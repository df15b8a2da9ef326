/**
 * @file
 * Plan-aware runtime guard. What the guard expects of a run depends
 * only on the plan, so a GuardPrediction computes it once per
 * PlanExecutor with the plan walk (plan_walk.hpp): the instructions it
 * rejects, each layer's expected register shapes, and the predicted
 * noise-budget trajectory. A request then only compares the layer-end
 * shapes against its actual ciphertexts. The shapes replay the
 * evaluator's own double arithmetic, so on a healthy run they match the
 * ciphertext tags bit for bit; a dropped rescale, perturbed scale or
 * corrupted state shows up as divergence at the next layer boundary.
 */
#ifndef FXHENN_HECNN_GUARD_HPP
#define FXHENN_HECNN_GUARD_HPP

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/ckks/ciphertext.hpp"
#include "src/ckks/context.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan.hpp"
#include "src/hecnn/plan_walk.hpp"
#include "src/robustness/guard.hpp"

namespace fxhenn::hecnn {

/** The guard's view of one plan, shared read-only by every request. */
class GuardPrediction
{
  public:
    /** One instruction the guard rejects before it runs. */
    struct Rejection
    {
        std::size_t instr = 0; ///< index within its layer
        std::string reason;
    };

    /**
     * Walk @p plan over @p context's prime chain and certify it once
     * (at @p options.messageBits). Rejected are lint's scale-level
     * errors plus operands that are out of range, unwritten, or point
     * outside the plaintext pool. An invalid certificate (a malformed
     * plan that still executes) falls back to the noise-free headroom
     * formula. Never throws on a malformed plan.
     */
    GuardPrediction(const HeNetworkPlan &plan,
                    const ckks::CkksContext &context,
                    const robustness::GuardOptions &options);

    /** Rejected instructions of layer @p layer, by ascending index. */
    const std::vector<Rejection> &rejections(std::size_t layer) const
    {
        return rejected_[layer];
    }

    /** Every register's expected shape at the end of @p layer. */
    const std::vector<RegShape> &shapes(std::size_t layer) const
    {
        return shapes_[layer];
    }

    /** Predicted budget trajectory, one sample per layer. */
    const std::vector<robustness::BudgetSample> &trajectory() const
    {
        return trajectory_;
    }

    /**
     * Layer-end check: compare every predicted register against the
     * actual ciphertexts, then report the layer's plan-metadata
     * mismatch or predicted headroom exhaustion, if any. @return the
     * first violation, or nullopt.
     */
    std::optional<std::string> checkLayerEnd(
        std::size_t layer,
        std::span<const std::optional<ckks::Ciphertext>> regs) const;

  private:
    std::vector<std::vector<Rejection>> rejected_;
    std::vector<std::vector<RegShape>> shapes_;
    std::vector<robustness::BudgetSample> trajectory_;
    /** Per layer: metadata mismatch, else budget exhaustion. */
    std::vector<std::optional<std::string>> layerFinding_;
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_GUARD_HPP
