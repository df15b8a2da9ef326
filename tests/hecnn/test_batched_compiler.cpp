/**
 * @file
 * Invariants of the batched compilation mode (CompileOptions
 * ::batchLanes): the stride-B slot layout, lane-broadcast weight
 * encodings and lane-preserving rotations that make packing B
 * independent requests into one ciphertext sound. See
 * docs/ARCHITECTURE.md section 15.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "src/analysis/pass_manager.hpp"
#include "src/common/assert.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_io.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::hecnn {
namespace {

HeNetworkPlan
compileBatched(std::size_t lanes)
{
    CompileOptions options;
    options.batchLanes = lanes;
    return compile(nn::buildTestNetwork(),
                   ckks::testParams(2048, 7, 30), options);
}

TEST(BatchedCompiler, SingleLaneIsByteIdenticalToUnbatched)
{
    // batchLanes = 1 must be a strict no-op: the serialized plan is
    // byte-for-byte the plan compiled without the option, so existing
    // deployments cannot drift when the flag defaults in.
    const auto unbatched = compile(nn::buildTestNetwork(),
                                   ckks::testParams(2048, 7, 30));
    const auto lanes1 = compileBatched(1);
    std::stringstream a;
    std::stringstream b;
    savePlan(unbatched, a);
    savePlan(lanes1, b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(BatchedCompiler, RotationStepsScaleByLaneCount)
{
    // Batched compilation happens in VIRTUAL slot space: reduction
    // trees are sized by the per-request slot count, so a lanes = 4
    // compile on n = 2048 (1024/4 = 256 virtual slots) does not emit
    // 4x the steps of a lanes = 1 compile on the same ring (whose
    // reductions span all 1024 slots). The sound scaling invariant is
    // against an unbatched compile with the SAME virtual geometry: a
    // 256-slot ring (n = 512). Its steps, times 4, must be exactly
    // the batched plan's physical steps.
    const auto batched = compileBatched(4);
    const auto sameGeometry = compile(nn::buildTestNetwork(),
                                      ckks::testParams(512, 7, 30));
    std::set<std::int32_t> expected;
    for (const std::int32_t step : sameGeometry.rotationSteps())
        expected.insert(step * 4);
    EXPECT_EQ(batched.rotationSteps(), expected);
}

TEST(BatchedCompiler, EveryRotationIsLaneAligned)
{
    const auto plan = compileBatched(4);
    for (const auto &layer : plan.layers)
        for (const auto &instr : layer.instrs)
            if (instr.kind == HeOpKind::rotate) {
                EXPECT_EQ(instr.step % 4, 0)
                    << layer.name << ": rotation by " << instr.step
                    << " would move data between requests";
            }
}

TEST(BatchedCompiler, LayoutsAddressLaneZeroOnly)
{
    const auto plan = compileBatched(4);
    auto checkLayout = [](const SlotLayout &layout,
                          const std::string &where) {
        for (const auto &[reg, slot] : layout.pos)
            EXPECT_EQ(slot % 4, 0)
                << where << ": slot " << slot << " is not lane 0";
    };
    checkLayout(plan.outputLayout, "network output");
    for (const auto &layer : plan.layers)
        checkLayout(layer.outputLayout, layer.name);
}

TEST(BatchedCompiler, GatherTouchesLaneZeroOnly)
{
    // Lane 0 carries the compiled virtual layout; sibling lanes are
    // filled at encrypt time by ClientSession::encryptInput, so
    // the gather map must leave them unmapped (-1).
    const auto plan = compileBatched(4);
    const std::size_t physSlots = plan.params.n / 2;
    for (const auto &gather : plan.inputGather) {
        ASSERT_EQ(gather.size(), physSlots);
        for (std::size_t s = 0; s < gather.size(); ++s) {
            if (s % 4 != 0) {
                EXPECT_EQ(gather[s], -1)
                    << "slot " << s << " is a sibling lane";
            }
        }
    }
}

TEST(BatchedCompiler, PlaintextsBroadcastAcrossLanes)
{
    // Weight encodings must be lane-constant: every request multiplies
    // by the same weights, so v[s*B + b] == v[s*B] for all lanes b.
    const auto plan = compileBatched(4);
    ASSERT_FALSE(plan.plaintexts.empty());
    for (const auto &pt : plan.plaintexts) {
        if (pt.values.empty())
            continue;
        for (std::size_t s = 0; s < pt.values.size(); ++s)
            ASSERT_EQ(pt.values[s], pt.values[(s / 4) * 4])
                << "plaintext slot " << s << " is not lane-constant";
    }
}

TEST(BatchedCompiler, StandardLintPipelineAcceptsBatchedPlans)
{
    for (const std::size_t lanes : {2u, 4u, 16u}) {
        const auto plan = compileBatched(lanes);
        const auto report =
            analysis::PassManager::standard().run(plan);
        EXPECT_TRUE(report.clean())
            << "lanes " << lanes << ": " << report.errorCount()
            << " error(s)";
    }
}

TEST(BatchedCompiler, RejectsZeroLanes)
{
    EXPECT_THROW(compileBatched(0), ConfigError);
}

TEST(BatchedCompiler, RejectsLaneCountNotDividingTheRing)
{
    // 3 does not divide the 1024 slots of n = 2048.
    EXPECT_THROW(compileBatched(3), ConfigError);
}

TEST(BatchedCompiler, RejectsCapacityOverflow)
{
    // 32 lanes leave 1024/32 = 32 virtual slots — fewer than the test
    // network's 36 input pixels, so no request fits its lane.
    EXPECT_THROW(compileBatched(32), ConfigError);
}

} // namespace
} // namespace fxhenn::hecnn
