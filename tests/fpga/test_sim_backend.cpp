/**
 * @file
 * The "fpga-sim" backend: bitwise identity with the cpu path, replay
 * soundness against the DSE's closed-form prediction, and the
 * warn-level latency gate the replay feeds.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/assert.hpp"
#include "src/dse/explorer.hpp"
#include "src/fpga/device.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/runtime.hpp"
#include "src/hecnn/verify.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::fpga {
namespace {

TEST(SimBackend, SimulatedRunIsBitwiseIdenticalToCpu)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = hecnn::compile(net, params);
    ckks::CkksContext ctx(params);
    const nn::Tensor input = nn::syntheticInput(net, 17);

    hecnn::ExecOptions cpu;
    cpu.backend = "cpu";
    hecnn::Runtime cpuRuntime(plan, ctx, 9, {}, cpu);
    const auto reference = cpuRuntime.infer(input);

    hecnn::ExecOptions sim;
    sim.backend = "fpga-sim";
    hecnn::Runtime simRuntime(plan, ctx, 9, {}, sim);
    const auto logits = simRuntime.infer(input);

    ASSERT_EQ(logits.size(), reference.size());
    for (std::size_t i = 0; i < logits.size(); ++i)
        EXPECT_EQ(logits[i], reference[i]) << "logit " << i;
}

TEST(SimBackend, VerifyLatencyMatchesDsePredictionWithinTolerance)
{
    // The latency-soundness acceptance criterion: on the model zoo the
    // event-driven simulated per-layer cost of the fpga-sim design
    // point must agree with the DSE's closed-form prediction within
    // the warning tolerance, on every layer of the plan.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    hecnn::VerifyOptions options;
    options.backend = "fpga-sim";
    const auto result = hecnn::verifyAgainstPlaintext(net, params, options);
    EXPECT_TRUE(result.passed()) << result.renderDiagnosis();
    EXPECT_EQ(result.backendName, "fpga-sim");

    const auto plan = hecnn::compile(net, params);
    dse::ExploreOptions explore;
    explore.replaySim = true;
    const auto replay = dse::explore(plan, acu9eg(), explore);
    ASSERT_EQ(replay.simReplay.size(), plan.layers.size());
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        EXPECT_EQ(replay.simReplay[i].layer, plan.layers[i].name);
        EXPECT_GT(replay.simReplay[i].simulatedCycles, 0.0);
        EXPECT_GT(replay.simReplay[i].predictedCycles, 0.0);
    }
    EXPECT_LE(replay.simReplayMaxErrorFrac, dse::kReplayToleranceFrac)
        << "simulated latency diverged from the DSE prediction";
    const auto warning = dse::replayWarning(replay.simReplay);
    EXPECT_FALSE(warning.has_value()) << warning->render();

    const auto table = dse::renderReplayLatency(replay.simReplay, acu9eg());
    EXPECT_NE(table.find("Predicted"), std::string::npos);
    EXPECT_NE(table.find(plan.layers.front().name), std::string::npos);
}

TEST(SimBackend, DivergentPredictionRaisesWarnLevelReport)
{
    // A fabricated replay whose second layer the closed form
    // under-predicts 3x: the gate names that layer at warn level
    // (layer "backend", op "latency") — wrong performance model,
    // never a failed inference.
    const std::vector<dse::ReplayRow> rows = {
        {"Cnv1", 100.0, 110.0, 0.1},
        {"Fc1", 100.0, 300.0, 2.0},
        {"Fc2", 100.0, 120.0, 0.2},
    };

    const auto warning = dse::replayWarning(rows);
    ASSERT_TRUE(warning.has_value());
    EXPECT_EQ(warning->layer, "backend");
    EXPECT_EQ(warning->op, "latency");
    EXPECT_NE(warning->reason.find("'Fc1'"), std::string::npos)
        << warning->reason;
    EXPECT_NE(warning->render().find("latency"), std::string::npos);
}

TEST(SimBackend, TightToleranceTripsTheWarningGate)
{
    // The gate trips strictly above dse::kReplayToleranceFrac: a row
    // exactly at the tolerance stays quiet, one just above it trips.
    std::vector<dse::ReplayRow> rows = {
        {"Cnv1", 100.0, 150.0, dse::kReplayToleranceFrac},
    };
    EXPECT_FALSE(dse::replayWarning(rows).has_value());
    rows[0].errorFrac = dse::kReplayToleranceFrac + 1e-12;
    const auto tripped = dse::replayWarning(rows);
    ASSERT_TRUE(tripped.has_value());
    EXPECT_EQ(tripped->op, "latency");
    EXPECT_FALSE(dse::replayWarning({}).has_value());

    // On the real replay of the test plan the gate fires exactly when
    // the worst layer's error exceeds the tolerance.
    const auto plan = hecnn::compile(nn::buildTestNetwork(),
                                     ckks::testParams(2048, 7, 30));
    dse::ExploreOptions explore;
    explore.replaySim = true;
    const auto replay = dse::explore(plan, acu9eg(), explore);
    EXPECT_EQ(dse::replayWarning(replay.simReplay).has_value(),
              replay.simReplayMaxErrorFrac > dse::kReplayToleranceFrac);
}

TEST(SimBackend, UnknownBackendNameThrowsConfigError)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = hecnn::compile(net, params);
    ckks::CkksContext ctx(params);
    hecnn::ExecOptions exec;
    exec.backend = "sim-test-never-registered";
    EXPECT_THROW(hecnn::Runtime(plan, ctx, 1, {}, exec), ConfigError);
}

} // namespace
} // namespace fxhenn::fpga
