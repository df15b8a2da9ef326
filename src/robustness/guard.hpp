/**
 * @file
 * Guardrail policy types shared across the HE-CNN stack.
 *
 * CKKS is approximate: a silent scale mismatch, level underflow or
 * modulus-headroom overflow produces garbage logits with no error.
 * The guard layer classifies what happens when a runtime invariant
 * breaks:
 *
 *  - GuardPolicy::strict  — throw InternalError at the first violation;
 *  - GuardPolicy::warn    — log to stderr and keep running (default:
 *                           zero behavior change for existing callers);
 *  - GuardPolicy::degrade — abort the encrypted run and hand back a
 *                           structured FailureReport instead of garbage
 *                           logits (graceful degradation).
 *
 * The plan-aware prediction that produces BudgetSamples lives in
 * src/hecnn/guard.hpp; these types stay dependency-light so ckks and
 * dse can share them.
 */
#ifndef FXHENN_ROBUSTNESS_GUARD_HPP
#define FXHENN_ROBUSTNESS_GUARD_HPP

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace fxhenn::robustness {

/** What the runtime does when a guarded invariant breaks. */
enum class GuardPolicy { strict, warn, degrade };

/** @return "strict" | "warn" | "degrade". */
const char *guardPolicyName(GuardPolicy policy);

/** Parse a policy name; throws ConfigError on anything else. */
GuardPolicy parseGuardPolicy(const std::string &name);

/** Knobs of the runtime guard. */
struct GuardOptions
{
    GuardPolicy policy = GuardPolicy::warn;
    /**
     * Assumed log2 of the largest message value at layer boundaries.
     * The model zoo tunes weights so intermediate activations stay
     * below ~0.25, hence the -2 default; raise it for networks with
     * larger dynamic range to get earlier exhaustion warnings.
     */
    double messageBits = -2.0;
};

/** One per-layer point of the predicted noise-budget trajectory. */
struct BudgetSample
{
    std::string layer;
    std::size_t level = 0;    ///< ciphertext level after the layer
    double scaleBits = 0.0;   ///< log2(scale) after the layer
    /**
     * Certified log2 bound on the per-slot noise standard deviation
     * after the layer (from the static NoiseCertificate). 0 when the
     * guard fell back to the noise-free headroom formula.
     */
    double noiseBits = 0.0;
    /**
     * Bits left before the message (plus certified noise tail)
     * overflows the modulus at this level. Negative means decryption
     * of this layer's output is garbage. Taken from the static noise
     * certificate when one is available; otherwise the coarser
     * log2(q_level / 2) - scaleBits - messageBits formula.
     */
    double headroomBits = 0.0;
};

/** Render the trajectory as an indented table (one line per layer). */
std::string renderTrajectory(std::span<const BudgetSample> trajectory);

/**
 * Structured result of a gracefully degraded encrypted run: where the
 * run stopped, why, and the headroom trajectory up to that point.
 */
struct FailureReport
{
    std::string layer;  ///< layer being executed when the guard fired
    std::string op;     ///< opcode, "layer-end", or "exception"
    std::string reason; ///< human-readable diagnosis
    std::vector<BudgetSample> trajectory;

    std::string render() const;
};

} // namespace fxhenn::robustness

#endif // FXHENN_ROBUSTNESS_GUARD_HPP
