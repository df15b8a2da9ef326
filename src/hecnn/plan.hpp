/**
 * @file
 * Compiled HE-CNN representation: layer plans over a register file.
 *
 * The compiler lowers each CNN layer to a list of HeInstr plus the
 * plaintexts (packed weights, masks, biases) the instructions reference.
 * This single artifact drives three consumers:
 *   1. the runtime, which executes it on real ciphertexts;
 *   2. the statistics pass (HOP / KS counts, Tables IV, VI, VII);
 *   3. the FPGA performance model and DSE (per-layer op counts, N_in,
 *      ciphertext level, KS/NKS class).
 */
#ifndef FXHENN_HECNN_PLAN_HPP
#define FXHENN_HECNN_PLAN_HPP

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/ckks/params.hpp"
#include "src/hecnn/he_op.hpp"

namespace fxhenn::hecnn {

/** KS/NKS layer classes of Sec. V-A. */
enum class LayerClass { nks, ks };

/** Where each logical activation element lives: (register, slot). */
struct SlotLayout
{
    /** element index -> (register id, slot index) */
    std::vector<std::pair<std::int32_t, std::int32_t>> pos;

    /** registers that carry this layout, in order. */
    std::vector<std::int32_t> regs;

    std::size_t elements() const { return pos.size(); }

    /**
     * @return true when the layout is one register with element e at
     * slot e (the precondition for the replicated dense path).
     */
    bool isContiguousSingleReg() const;
};

/** A plaintext the plan references: slot values + how to encode it. */
struct PlanPlaintext
{
    std::vector<double> values; ///< slot vector (size = N/2)
    std::size_t level = 0;      ///< encoding level
    /**
     * true: encode at the scheme scale Delta (multiplicands);
     * false: encode at the current ciphertext scale (bias adds).
     */
    bool atSchemeScale = true;
    /**
     * max |slot value|. The compiler records it even when the values
     * themselves are elided (stats-only plans), so the static noise
     * certifier can bound pcMult growth with the real weight magnitude
     * instead of a pessimistic |v| <= 1 assumption.
     */
    double maxAbs = 0.0;
};

/** Per-layer HE operation counts, in the paper's taxonomy. */
struct HeOpCounts
{
    std::uint64_t ccAdd = 0;   ///< OP1 (includes plaintext adds)
    std::uint64_t pcMult = 0;  ///< OP2
    std::uint64_t ccMult = 0;  ///< OP3
    std::uint64_t rescale = 0; ///< OP4
    std::uint64_t relin = 0;   ///< OP5 (Relinearize)
    std::uint64_t rotate = 0;  ///< OP5 (Rotate)

    std::uint64_t
    total() const
    {
        return ccAdd + pcMult + ccMult + rescale + relin + rotate;
    }
    std::uint64_t keySwitch() const { return relin + rotate; }
};

/** One compiled HE-CNN layer. */
struct HeLayerPlan
{
    std::string name;
    LayerClass cls = LayerClass::nks;
    std::size_t levelIn = 0;  ///< ciphertext level at layer entry
    std::size_t levelOut = 0; ///< level after the layer
    std::size_t nIn = 0;      ///< independent input ciphertext count
    std::vector<HeInstr> instrs;
    SlotLayout outputLayout;

    /** Count instructions by paper operation class. */
    HeOpCounts counts() const;

    /** Instructions of paper module @p module (1..5 = OP1..OP5). */
    std::uint64_t moduleCount(std::size_t module) const;

    /**
     * Instructions of one opcode. O(1) once classify() (called by the
     * compiler and the plan loader) has populated the cache; a plan
     * built by hand without classify() recounts on every call instead
     * of silently returning zeros. Neither path mutates the layer, so
     * concurrent readers sharing one plan are safe; the uncached path
     * never touches cls, so a stale KS/NKS class is still observable
     * (and diagnosed by the layer-class verifier pass).
     */
    std::uint64_t kindCount(HeOpKind kind) const;

    /** Cache the opcode counts and set the KS/NKS class (Sec. V-A). */
    void classify();

  private:
    /** Opcode-count cache, populated only by classify() so that
     *  kindCount() stays const in the strict sense — executors share
     *  plans read-only across threads. */
    std::array<std::uint64_t, kHeOpKindCount> kindCounts_{};
    bool counted_ = false;
};

/** A full compiled network. */
struct HeNetworkPlan
{
    std::string name;
    ckks::CkksParams params;

    /** Client-side packing: per input register, slot -> input element
     *  index (or -1 for a zero slot). */
    std::vector<std::vector<std::int32_t>> inputGather;

    std::vector<HeLayerPlan> layers;
    std::vector<PlanPlaintext> plaintexts; ///< shared pool
    bool valuesElided = false; ///< true: stats-only, not executable
    std::int32_t regCount = 0;

    /**
     * Cross-request slot batching factor B. A batched plan interleaves
     * B independent requests lane-wise: request b's virtual slot s
     * lives at physical slot s*B + b, every rotation step is a
     * multiple of B (lane-preserving), and every plaintext is
     * broadcast across the B lanes. B = 1 is the classic
     * single-request plan.
     */
    std::size_t batchLanes = 1;

    /** Final layout: logit index -> (register, slot). */
    SlotLayout outputLayout;

    /** Aggregate operation counts over all layers. */
    HeOpCounts totalCounts() const;

    /** All distinct rotation steps used (for Galois key generation). */
    std::set<std::int32_t> rotationSteps() const;

    /** Multiplicative depth consumed (levels used). */
    std::size_t depth() const;

    /** Number of client-supplied input ciphertexts. */
    std::size_t inputCiphertexts() const { return inputGather.size(); }
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_PLAN_HPP
