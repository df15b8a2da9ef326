#include "src/hecnn/verify.hpp"

#include <cmath>
#include <sstream>

#include "src/ckks/context.hpp"
#include "src/common/table_printer.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/runtime.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::hecnn {

std::string
VerifyResult::renderDiagnosis() const
{
    std::ostringstream oss;
    oss << "noise-budget trajectory (predicted):\n";
    if (noiseBudget.empty())
        oss << "    (none recorded)\n";
    else
        oss << robustness::renderTrajectory(noiseBudget) << "\n";
    oss << "  predicted output headroom: "
        << fmtBits(predictedHeadroomBits) << " bits\n";
    oss << "  measured output headroom:  "
        << fmtBits(measuredHeadroomBits) << " bits\n";
    if (failure)
        oss << failure->render();
    return oss.str();
}

VerifyResult
verifyAgainstPlaintext(const nn::Network &net,
                       const ckks::CkksParams &params,
                       std::uint64_t inputSeed, std::uint64_t keySeed,
                       const robustness::GuardOptions &guard)
{
    VerifyOptions options;
    options.inputSeed = inputSeed;
    options.keySeed = keySeed;
    options.guard = guard;
    return verifyAgainstPlaintext(net, params, options);
}

VerifyResult
verifyAgainstPlaintext(const nn::Network &net,
                       const ckks::CkksParams &params,
                       const VerifyOptions &options)
{
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    ExecOptions exec;
    exec.backend = options.backend;
    Runtime runtime(plan, ctx, options.keySeed, options.guard, exec);

    const nn::Tensor input = nn::syntheticInput(net, options.inputSeed);
    const nn::Tensor expected = net.forward(input);

    VerifyResult result;
    auto outcome = runtime.inferGuarded(input);
    result.backendName = outcome.backendName;
    result.noiseBudget = std::move(outcome.budget);
    if (!result.noiseBudget.empty())
        result.predictedHeadroomBits =
            result.noiseBudget.back().headroomBits;
    result.hopsExecuted = runtime.executedCounts().total();
    result.layers = runtime.lastLayerStats();
    if (outcome.failure) {
        result.failure = std::move(outcome.failure);
        return result;
    }

    result.encryptedLogits = std::move(outcome.logits);
    result.plaintextLogits.assign(expected.data().begin(),
                                  expected.data().end());
    result.measuredHeadroomBits = runtime.outputHeadroomBits();

    std::size_t argmax_he = 0, argmax_pt = 0;
    for (std::size_t i = 0; i < result.encryptedLogits.size(); ++i) {
        result.maxAbsError = std::max(
            result.maxAbsError,
            std::abs(result.encryptedLogits[i] -
                     result.plaintextLogits[i]));
        if (result.encryptedLogits[i] >
            result.encryptedLogits[argmax_he])
            argmax_he = i;
        if (result.plaintextLogits[i] >
            result.plaintextLogits[argmax_pt])
            argmax_pt = i;
    }
    result.argmaxMatches = (argmax_he == argmax_pt);

    // Post-hoc classification. A negative measured headroom means the
    // message overflowed the modulus. The predicted trajectory is a
    // worst-case bound on coefficient growth, so a healthy run can
    // never measure below it: a deficit proves non-modeled noise,
    // i.e. ciphertext corruption (residue damage saturates near
    // q/2/scale and so never trips a naive divergence threshold).
    const std::string where =
        result.layers.empty() ? std::string("output")
                              : result.layers.back().name;
    if (result.measuredHeadroomBits < 0.0) {
        robustness::FailureReport report;
        report.layer = where;
        report.op = "decrypt";
        report.reason = "noise budget exhausted: measured output "
                        "headroom " +
                        fmtBits(result.measuredHeadroomBits) + " bits";
        report.trajectory = result.noiseBudget;
        result.failure = std::move(report);
    } else if (!result.noiseBudget.empty() &&
               result.measuredHeadroomBits <
                   result.predictedHeadroomBits - 0.5) {
        robustness::FailureReport report;
        report.layer = where;
        report.op = "decrypt";
        report.reason =
            "measured output headroom " +
            fmtBits(result.measuredHeadroomBits) +
            " bits fell below the worst-case prediction of " +
            fmtBits(result.predictedHeadroomBits) +
            " bits: ciphertext state corrupted";
        report.trajectory = result.noiseBudget;
        result.failure = std::move(report);
    } else if (result.maxAbsError > 1e3) {
        robustness::FailureReport report;
        report.layer = where;
        report.op = "decrypt";
        report.reason = "catastrophic logit divergence (max |err| = " +
                        fmtBits(result.maxAbsError) +
                        "): ciphertext state corrupted";
        report.trajectory = result.noiseBudget;
        result.failure = std::move(report);
    }
    return result;
}

} // namespace fxhenn::hecnn
