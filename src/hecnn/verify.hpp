/**
 * @file
 * One-call encrypted-vs-plaintext verification.
 *
 * The repository's correctness metric (DESIGN.md): compile a network,
 * run one input through both the plaintext forward pass and the full
 * encrypted pipeline, and compare logits. Shared by the CLI `verify`
 * command, the examples and the test suite.
 */
#ifndef FXHENN_HECNN_VERIFY_HPP
#define FXHENN_HECNN_VERIFY_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ckks/params.hpp"
#include "src/hecnn/stats.hpp"
#include "src/nn/network.hpp"
#include "src/robustness/guard.hpp"

namespace fxhenn::hecnn {

/** Knobs of one verifyAgainstPlaintext() run. */
struct VerifyOptions
{
    /** Seed of the synthetic input image. */
    std::uint64_t inputSeed = 1;
    /** Seed of the key material / encryption randomness. */
    std::uint64_t keySeed = 1;
    /** Guard options for the encrypted run; degrade by default so a
     * broken run yields a FailureReport instead of garbage logits. */
    robustness::GuardOptions guard{robustness::GuardPolicy::degrade};
    /**
     * Execution backend of the encrypted run: "cpu", "cpu-ref" or
     * "fpga-sim" (empty resolves FXHENN_BACKEND, default "cpu").
     */
    std::string backend;
};

/** Result of one encrypted-vs-plaintext comparison. */
struct VerifyResult
{
    double maxAbsError = 0.0;  ///< max |encrypted - plaintext| logit
    bool argmaxMatches = false;
    std::uint64_t hopsExecuted = 0;
    std::vector<double> encryptedLogits;
    std::vector<double> plaintextLogits;
    /** Measured per-layer wall time + op breakdown of the run. */
    std::vector<MeasuredLayerStats> layers;
    /**
     * Failure diagnosis: set when the guarded run degraded, when the
     * measured output headroom went negative, or when the logits
     * diverged catastrophically (corrupted ciphertext state). A set
     * failure always fails passed().
     */
    std::optional<robustness::FailureReport> failure;
    /** Predicted per-layer noise-budget trajectory. */
    std::vector<robustness::BudgetSample> noiseBudget;
    /** Predicted headroom after the final layer (bits). */
    double predictedHeadroomBits = 0.0;
    /** Measured headroom of the output ciphertexts (bits). */
    double measuredHeadroomBits = 0.0;
    /** Name of the backend that ran the encrypted side. */
    std::string backendName;

    /** Pass criterion used across the repository. */
    bool passed(double tolerance = 1e-2) const
    {
        return !failure.has_value() && maxAbsError < tolerance &&
               argmaxMatches;
    }

    /**
     * Render the failure-diagnosis section: the predicted headroom
     * trajectory, measured-vs-predicted output headroom, and the
     * FailureReport when the run failed.
     */
    std::string renderDiagnosis() const;
};

/**
 * Compile @p net under @p params, run encrypted inference on a seeded
 * synthetic input, and compare against the plaintext forward pass.
 *
 * @param inputSeed seed of the synthetic input image
 * @param keySeed   seed of the key material / encryption randomness
 * @param guard     guard options for the encrypted run; defaults to
 *                  GuardPolicy::degrade so a broken run yields a
 *                  FailureReport instead of garbage logits
 */
VerifyResult verifyAgainstPlaintext(
    const nn::Network &net, const ckks::CkksParams &params,
    std::uint64_t inputSeed = 1, std::uint64_t keySeed = 1,
    const robustness::GuardOptions &guard = {
        robustness::GuardPolicy::degrade});

/** verifyAgainstPlaintext() with the full option set (backend
 * selection). */
VerifyResult verifyAgainstPlaintext(const nn::Network &net,
                                    const ckks::CkksParams &params,
                                    const VerifyOptions &options);

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_VERIFY_HPP
