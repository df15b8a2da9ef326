#include "src/hecnn/guard.hpp"

#include <cmath>

#include "src/common/table_printer.hpp"

namespace fxhenn::hecnn {

namespace {

/**
 * Relative tolerance when comparing the predicted scale against the
 * ciphertext's actual scale tag. The prediction replays the evaluator's
 * own double arithmetic, so healthy runs match bit for bit; any real
 * divergence is orders of magnitude larger.
 */
constexpr double kScaleRelTolerance = 1e-6;

/** The guard's share of the plan walk: the first reason each
 *  instruction cannot run safely, and every layer's end shapes. */
struct GuardWalk
{
    const HeNetworkPlan &plan;
    const ShapeChain &chain;
    std::vector<std::vector<GuardPrediction::Rejection>> &rejected;
    std::vector<std::vector<RegShape>> &shapes;
    std::vector<ShapeFinding> findings;

    void
    op(std::size_t li, std::size_t ii, const HeInstr &in,
       const RegShape *src, const RegShape *dst)
    {
        auto reason = operandFault(in, src, dst, plan.plaintexts.size());
        if (!reason) {
            findings.clear();
            checkShape(in, *src, *dst, chain, plan.plaintexts, findings);
            for (ShapeFinding &f : findings) {
                if (f.error) {
                    reason = std::move(f.message);
                    break;
                }
            }
        }
        if (reason)
            rejected[li].push_back({ii, std::move(*reason)});
    }

    void
    layerEnd(std::size_t li, std::span<const RegShape> regs)
    {
        shapes[li].assign(regs.begin(), regs.end());
    }
};

} // namespace

GuardPrediction::GuardPrediction(const HeNetworkPlan &plan,
                                 const ckks::CkksContext &context,
                                 const robustness::GuardOptions &options)
    : rejected_(plan.layers.size()), shapes_(plan.layers.size())
{
    // The context's data primes are exactly the chain of its params.
    const ShapeChain chain = ShapeChain::ofParams(context.params());
    GuardWalk walk{plan, chain, rejected_, shapes_, {}};
    walkPlan(plan, chain, walk);

    CertifyOptions copts;
    copts.messageBits = options.messageBits;
    const NoiseCertificate cert = certifyPlan(plan, copts);

    for (std::size_t li = 0; li < plan.layers.size(); ++li) {
        const HeLayerPlan &layer = plan.layers[li];
        const std::vector<RegShape> &regs = shapes_[li];
        // Plan metadata consistency over the layer's output registers.
        const std::vector<std::int32_t> outRegs = layerOutputs(layer, regs);
        std::optional<std::string> finding;
        double max_scale = 0.0;
        for (std::int32_t r : outRegs) {
            if (r < 0 || r >= static_cast<std::int32_t>(regs.size()))
                continue;
            const RegShape &pred = regs[static_cast<std::size_t>(r)];
            if (pred.written)
                max_scale = std::max(max_scale, pred.scale);
            else if (!finding)
                finding = "plan output register r" + std::to_string(r) +
                          " was never written";
        }
        if (!finding) {
            if (auto exit = checkLayerExit(layer, outRegs, regs))
                finding = std::move(exit->message);
        }

        robustness::BudgetSample sample;
        sample.layer = layer.name;
        sample.level = layer.levelOut;
        sample.scaleBits = max_scale > 0.0 ? std::log2(max_scale) : 0.0;
        // Prefer the statically certified per-layer bound (which
        // accounts for accumulated crypto noise, not just the message
        // magnitude); an invalid certificate falls back to the
        // noise-free formula.
        if (cert.valid && li < cert.layers.size() &&
            cert.layers[li].layer == layer.name) {
            sample.noiseBits = cert.layers[li].noiseBits;
            sample.headroomBits = cert.layers[li].headroomBits;
        } else {
            sample.headroomBits =
                (context.basis().logQ(layer.levelOut) - 1.0) -
                sample.scaleBits - options.messageBits;
        }
        trajectory_.push_back(sample);

        if (!finding && sample.headroomBits < 0.0)
            finding = "predicted noise budget exhausted after layer " +
                      layer.name + ": certified headroom " +
                      fmtBits(sample.headroomBits) +
                      " bits (the message no longer fits the modulus "
                      "and decryption would be garbage)";
        layerFinding_.push_back(std::move(finding));
    }
}

std::optional<std::string>
GuardPrediction::checkLayerEnd(
    std::size_t layer,
    std::span<const std::optional<ckks::Ciphertext>> regs) const
{
    // Predicted-vs-actual divergence over every tracked register: any
    // mismatch means the executed ops differ from the plan (dropped
    // rescale, perturbed scale, corrupted state).
    const std::vector<RegShape> &predicted = shapes_[layer];
    for (std::size_t i = 0; i < predicted.size(); ++i) {
        const RegShape &pred = predicted[i];
        if (!pred.written)
            continue;
        const auto &actual = regs[i];
        if (!actual.has_value())
            return "register r" + std::to_string(i) +
                   " predicted written but holds no ciphertext";
        if (actual->level() != pred.level)
            return "level diverged at r" + std::to_string(i) +
                   ": predicted " + std::to_string(pred.level) +
                   ", actual " + std::to_string(actual->level()) +
                   " (rescale dropped or misapplied?)";
        if (actual->size() != pred.parts)
            return "part count diverged at r" + std::to_string(i);
        const double rel = std::abs(actual->scale - pred.scale) /
                           std::max(std::abs(pred.scale), 1e-300);
        if (rel > kScaleRelTolerance)
            return "scale diverged at r" + std::to_string(i) +
                   ": predicted 2^" + fmtBits(std::log2(pred.scale)) +
                   ", actual 2^" + fmtBits(std::log2(actual->scale));
    }
    return layerFinding_[layer];
}

} // namespace fxhenn::hecnn
