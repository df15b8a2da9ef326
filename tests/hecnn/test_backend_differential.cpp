/**
 * @file
 * Cross-backend bitwise differential: every execution backend must
 * decrypt to exactly the same logits as the "cpu" reference on the
 * model zoo — not merely close, bit-for-bit equal. "cpu-ref" exercises
 * the eager-keyswitch scalar-kernel path and "fpga-sim" the name whose
 * latency the DSE replay models, so an exact match here proves the
 * backend name changes strategy only, never arithmetic. Run per
 * reachable SIMD level: the dispatch contract (all levels bitwise
 * identical) and the backend contract compose.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/plaintext_pool.hpp"
#include "src/hecnn/runtime.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::hecnn {
namespace {

std::vector<simd::Level>
reachableLevels()
{
    std::vector<simd::Level> levels;
    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512})
        if (simd::available(level))
            levels.push_back(level);
    return levels;
}

/** Logits of one seeded encrypted inference under @p backend. */
std::vector<double>
runWithBackend(const HeNetworkPlan &plan, const ckks::CkksContext &ctx,
               const std::string &backend, std::uint64_t seed,
               const nn::Tensor &input)
{
    ExecOptions exec;
    exec.backend = backend;
    Runtime runtime(plan, ctx, seed, {}, exec);
    return runtime.infer(input);
}

TEST(BackendDifferential, AllBackendsBitwiseIdenticalOnTestNetwork)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const nn::Tensor input = nn::syntheticInput(net, 11);
    constexpr std::uint64_t kSeed = 5;

    for (simd::Level level : reachableLevels()) {
        simd::ScopedLevel pin(level);
        const auto reference =
            runWithBackend(plan, ctx, "cpu", kSeed, input);
        ASSERT_FALSE(reference.empty());
        for (const std::string backend : {"cpu-ref", "fpga-sim"}) {
            const auto logits =
                runWithBackend(plan, ctx, backend, kSeed, input);
            ASSERT_EQ(logits.size(), reference.size())
                << backend << " at simd level "
                << simd::levelName(level);
            for (std::size_t i = 0; i < logits.size(); ++i)
                EXPECT_EQ(logits[i], reference[i])
                    << backend << " logit " << i
                    << " diverged bitwise at simd level "
                    << simd::levelName(level);
        }
    }
}

TEST(BackendDifferential, BackendsBitwiseIdenticalAcrossZooSeeds)
{
    // Several seeds on the test network: backend identity must hold
    // for every reachable level of the compiled plan, not one lucky
    // noise draw.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);

    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
        const nn::Tensor input = nn::syntheticInput(net, seed + 100);
        const auto reference =
            runWithBackend(plan, ctx, "cpu", seed, input);
        for (const std::string backend : {"cpu-ref", "fpga-sim"}) {
            const auto logits =
                runWithBackend(plan, ctx, backend, seed, input);
            ASSERT_EQ(logits.size(), reference.size());
            for (std::size_t i = 0; i < logits.size(); ++i)
                EXPECT_EQ(logits[i], reference[i])
                    << backend << " seed " << seed << " logit " << i;
        }
    }
}

TEST(BackendDifferential, OutcomeReportsBackendNameAndOps)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const nn::Tensor input = nn::syntheticInput(net, 3);

    for (const std::string backend : {"cpu", "cpu-ref", "fpga-sim"}) {
        ExecOptions exec;
        exec.backend = backend;
        Runtime runtime(plan, ctx, 1, {}, exec);
        const auto outcome = runtime.inferGuarded(input);
        EXPECT_EQ(outcome.backendName, backend);
        EXPECT_EQ(outcome.opsExecuted, plan.totalCounts().total())
            << backend
            << " must execute exactly the planned op count";
    }
}

TEST(BackendDifferential, CpuRefPinsScalarKernelsAndEagerKeyswitch)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    ClientSession session(plan, ctx, 4);
    PlaintextPool pool(plan, ctx);
    const nn::Tensor input = nn::syntheticInput(net, 8);

    // Lazy reductions saved over one run of @p executor.
    const auto savedReductions = [&](const PlanExecutor &executor) {
        telemetry::reset();
        telemetry::setEnabled(true);
        const auto result =
            executor.execute(session.encryptInput({&input}, 0));
        telemetry::setEnabled(false);
        EXPECT_FALSE(result.degraded());
        const auto saved =
            telemetry::counter("ckks.keyswitch.lazy_reductions_saved")
                .value();
        telemetry::reset();
        return saved;
    };
    const auto executor = [&](const char *backend) {
        ExecOptions exec;
        exec.backend = backend;
        return std::make_unique<PlanExecutor>(
            plan, ctx, session.relinKey(), session.galoisKeys(), pool,
            robustness::GuardOptions{}, exec);
    };

    // Start from the best reachable level so the restore is visible.
    simd::ScopedLevel outer(reachableLevels().back());
    const simd::Level before = simd::activeLevel();
    EXPECT_GT(savedReductions(*executor("cpu")), 0u);
    {
        const auto ref = executor("cpu-ref");
        EXPECT_EQ(simd::activeLevel(), simd::Level::scalar)
            << "cpu-ref must pin the scalar kernels while it is alive";
        EXPECT_EQ(savedReductions(*ref), 0u)
            << "cpu-ref must keyswitch eagerly";
    }
    EXPECT_EQ(simd::activeLevel(), before)
        << "destroying the cpu-ref executor must restore the level";
}

} // namespace
} // namespace fxhenn::hecnn
