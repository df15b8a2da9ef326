/**
 * @file
 * Register liveness over the plan instruction stream.
 *
 * A compiled plan is straight-line code over a register file, so one
 * backward sweep computes exact liveness: a register is live at a
 * program point when its current value is still read on the way to the
 * network's outputLayout. Three consumers use the result:
 *
 *  - the liveness verifier pass (src/analysis) flags dead instructions
 *    (results that never reach the output) and reports per-layer peaks;
 *  - dse::Explorer bounds the intra-layer ciphertext-buffer
 *    replication of the Eq. 8-9 BRAM model by the layer's peak live
 *    register count — a layer that never holds more than k live
 *    ciphertexts cannot need more than k resident stream buffers;
 *  - the rescale rewriter keeps a deferred rescale only on registers
 *    that are live at the end of their layer.
 */
#ifndef FXHENN_HECNN_LIVENESS_HPP
#define FXHENN_HECNN_LIVENESS_HPP

#include <cstdint>
#include <vector>

#include "src/hecnn/plan.hpp"

namespace fxhenn::hecnn {

/** One instruction whose result never reaches the network output. */
struct DeadInstr
{
    std::size_t layer = 0; ///< layer index
    std::size_t instr = 0; ///< instruction index within the layer
};

/** The liveness solution for one plan. */
struct LivenessInfo
{
    /**
     * Per-layer peak of simultaneously live registers (any program
     * point inside the layer, including values carried across it).
     */
    std::vector<unsigned> peakLive;

    /** Maximum of peakLive over all layers. */
    unsigned peakLiveOverall = 0;

    /**
     * Instructions whose destination value is never read afterwards
     * and is not part of the network outputLayout. Only the last dead
     * write of a chain is reported: its operands count as used.
     */
    std::vector<DeadInstr> deadInstrs;

    /**
     * Per layer, the registers live at its end (read by a later layer
     * or decoded by the client), in ascending order.
     */
    std::vector<std::vector<std::int32_t>> liveOut;
};

/**
 * Solve liveness for @p plan. Tolerates malformed plans (out-of-range
 * registers are ignored); pair with the def-use pass for validation.
 */
LivenessInfo computeLiveness(const HeNetworkPlan &plan);

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_LIVENESS_HPP
