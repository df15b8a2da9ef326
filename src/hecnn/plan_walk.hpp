/**
 * @file
 * The (level, scale, parts) meaning of each HE op, and the one forward
 * walk over a plan that every static consumer shares.
 *
 * A register's shape is what the evaluator tags its ciphertext with.
 * applyShape() steps it across one instruction with the evaluator's own
 * double arithmetic, so on a healthy run the prediction equals the
 * executed ciphertexts bit for bit. checkShape() holds the scale-level
 * checks (lint's messages, hints and severities) and operandFault() the
 * reasons an instruction cannot run at all.
 *
 * walkPlan() seeds the input registers at the top of a prime chain and
 * calls its consumer at each layer start, before each instruction, and
 * at each layer end. The consumers: lint's scale-level and
 * rescale-placement passes (src/analysis), the noise certifier (which
 * adds noise bits per register) and the PlanExecutor's guard prediction
 * (which keeps the rejected instructions and each layer's shapes). The
 * rescale rewriter applies the same step to the stream it emits. The
 * walk is a template over the consumer, so the 60k-instruction CIFAR10
 * plan costs no virtual call and no allocation per instruction.
 */
#ifndef FXHENN_HECNN_PLAN_WALK_HPP
#define FXHENN_HECNN_PLAN_WALK_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/ckks/params.hpp"
#include "src/hecnn/plan.hpp"

namespace fxhenn::hecnn {

/** The shape of one register: what the evaluator tags it with. */
struct RegShape
{
    bool written = false;
    std::size_t level = 0;
    double scale = 0.0;
    std::size_t parts = 2;
};

/** The modulus chain and scheme scale a walk runs over. */
struct ShapeChain
{
    ShapeChain() = default;
    ShapeChain(double schemeScale, std::span<const std::uint64_t> moduli);

    /** The chain compile() targets: params.levels NTT primes. Throws
     *  ConfigError for invalid parameters. */
    static ShapeChain ofParams(const ckks::CkksParams &params);

    double scale = 0.0;         ///< scheme scale Delta
    std::vector<double> primes; ///< q_0..q_{L-1} as doubles
    std::vector<double> logQ;   ///< logQ[l] = sum_{i<l} log2 q_i

    /** Number of data primes: the level fresh ciphertexts enter at. */
    std::size_t levels() const { return primes.size(); }
};

/** Step @p dst across @p in from @p src (dst may alias src). */
inline void
applyShape(const HeInstr &in, const ShapeChain &chain,
           const RegShape &srcIn, RegShape &dst)
{
    const RegShape src = srcIn;
    switch (in.kind) {
      case HeOpKind::pcMult:
        dst = src;
        dst.scale = src.scale * chain.scale;
        break;
      case HeOpKind::ccAdd:
        break; // dst += src keeps dst's shape
      case HeOpKind::ccMult:
        dst = src;
        dst.scale = src.scale * src.scale;
        dst.parts = 3;
        break;
      case HeOpKind::relinearize:
        dst = src;
        dst.parts = 2;
        break;
      case HeOpKind::rescale:
        dst = src;
        if (src.level >= 2) {
            dst.scale = src.scale / chain.primes[src.level - 1];
            dst.level = src.level - 1;
        }
        break;
      case HeOpKind::pcAdd:  // bias encodes at the current scale
      case HeOpKind::rotate:
      case HeOpKind::copy:
        dst = src;
        break;
    }
    dst.written = true;
}

/** One scale-level finding: lint's severity, message and hint. */
struct ShapeFinding
{
    bool error = true; ///< false: a warning
    std::string message;
    std::string hint;
};

/**
 * Append the scale-level findings of @p in, about to run on operands
 * shaped @p src and @p dst, to @p findings. Plaintext operands come from
 * @p pool; an index outside it is left to the operand checks.
 */
void checkShape(const HeInstr &in, const RegShape &src,
                const RegShape &dst, const ShapeChain &chain,
                std::span<const PlanPlaintext> pool,
                std::vector<ShapeFinding> &findings);

/** The registers @p layer hands on: its layout's, or every register
 *  written in @p regs when the layout names none. */
std::vector<std::int32_t> layerOutputs(const HeLayerPlan &layer,
                                       std::span<const RegShape> regs);

/**
 * The levelOut check at the end of @p layer: a finding for the first of
 * @p outputs (in the file and written) whose shape in @p regs disagrees
 * with the plan's levelOut metadata.
 */
std::optional<ShapeFinding> checkLayerExit(
    const HeLayerPlan &layer, std::span<const std::int32_t> outputs,
    std::span<const RegShape> regs);

/** True when the walk can step @p src into @p dst: both registers are
 *  in the file and the source has been written. */
inline bool
operandsReady(const RegShape *src, const RegShape *dst)
{
    return src != nullptr && dst != nullptr && src->written;
}

/**
 * Why @p in cannot run at all, or nullopt: a register outside the file
 * (@p src or @p dst null), a read of an unwritten register, or a
 * plaintext index outside a pool of @p poolSize entries.
 */
std::optional<std::string> operandFault(const HeInstr &in,
                                        const RegShape *src,
                                        const RegShape *dst,
                                        std::size_t poolSize);

/** The register file at plan entry: the input registers written at the
 *  chain's top level and scheme scale, every other one empty. */
std::vector<RegShape> inputShapes(const HeNetworkPlan &plan,
                                  const ShapeChain &chain);

/**
 * Walk @p plan over @p chain from inputShapes(). Each instruction whose
 * operands are ready steps its destination with applyShape() after the
 * consumer has seen it; one with faulty operands is shown and skipped.
 * The consumer's hooks, called on its static type (layerBegin is
 * optional):
 *
 *   void layerBegin(std::size_t layer);
 *   void op(std::size_t layer, std::size_t index, const HeInstr &in,
 *           const RegShape *src, const RegShape *dst); // null: outside
 *   void layerEnd(std::size_t layer, std::span<const RegShape> regs);
 */
template <typename Consumer>
void
walkPlan(const HeNetworkPlan &plan, const ShapeChain &chain,
         Consumer &consumer)
{
    std::vector<RegShape> regs = inputShapes(plan, chain);
    const auto reg = [&](std::int32_t id) -> RegShape * {
        return id >= 0 && static_cast<std::size_t>(id) < regs.size()
                   ? &regs[static_cast<std::size_t>(id)]
                   : nullptr;
    };
    for (std::size_t li = 0; li < plan.layers.size(); ++li) {
        if constexpr (requires { consumer.layerBegin(li); })
            consumer.layerBegin(li);
        const std::vector<HeInstr> &instrs = plan.layers[li].instrs;
        for (std::size_t ii = 0; ii < instrs.size(); ++ii) {
            const HeInstr &in = instrs[ii];
            RegShape *src = reg(in.src);
            RegShape *dst = reg(in.dst);
            consumer.op(li, ii, in, src, dst);
            if (operandsReady(src, dst))
                applyShape(in, chain, *src, *dst);
        }
        consumer.layerEnd(li, std::span<const RegShape>(regs));
    }
}

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_PLAN_WALK_HPP
