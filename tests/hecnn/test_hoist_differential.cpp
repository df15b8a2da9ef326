/**
 * @file
 * Differential tests over PlanExecutor's execution strategies: the
 * hoisted-rotation + lazy-keyswitch fast path must produce bitwise the
 * same ciphertexts as the serial + eager reference path on real plans,
 * and the runtime's keyswitch telemetry must agree with the lint
 * pass's static decomposition model (countHoistedDecompositions).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/rotation_groups.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::hecnn {
namespace {

bool
sameRegs(const std::vector<std::optional<ckks::Ciphertext>> &a,
         const std::vector<std::optional<ckks::Ciphertext>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t r = 0; r < a.size(); ++r) {
        if (a[r].has_value() != b[r].has_value())
            return false;
        if (!a[r])
            continue;
        if (a[r]->parts.size() != b[r]->parts.size())
            return false;
        for (std::size_t p = 0; p < a[r]->parts.size(); ++p)
            if (!(a[r]->parts[p] == b[r]->parts[p]))
                return false;
    }
    return true;
}

std::size_t
plannedDecompositions(const HeNetworkPlan &plan)
{
    std::size_t total = 0;
    for (const auto &layer : plan.layers)
        total += countHoistedDecompositions(layer.instrs);
    return total;
}

/**
 * A hand-built plan whose single layer holds a hoistable rotation
 * group (three rotations of r0) feeding a reduction — the shape the
 * model zoo never produces (its rotate-and-sum interleaves adds), so
 * the executor's group dispatch needs its own plan.
 */
HeNetworkPlan
rotationGroupPlan()
{
    HeNetworkPlan plan;
    plan.name = "rotgroup";
    plan.params = ckks::testParams(1024, 4, 30);
    const std::size_t slots = plan.params.n / 2;
    plan.regCount = 4;
    plan.inputGather.emplace_back(slots, -1);
    for (std::int32_t s = 0; s < 8; ++s)
        plan.inputGather[0][static_cast<std::size_t>(s)] = s;

    HeLayerPlan layer;
    layer.name = "L0";
    layer.levelIn = plan.params.levels;
    layer.levelOut = plan.params.levels;
    layer.nIn = 1;
    layer.instrs.push_back({HeOpKind::rotate, 1, 0, -1, 1});
    layer.instrs.push_back({HeOpKind::rotate, 2, 0, -1, 2});
    layer.instrs.push_back({HeOpKind::rotate, 3, 0, -1, 3});
    layer.instrs.push_back({HeOpKind::ccAdd, 1, 2, -1, 0});
    layer.instrs.push_back({HeOpKind::ccAdd, 1, 3, -1, 0});
    for (std::int32_t s = 0; s < 4; ++s)
        layer.outputLayout.pos.emplace_back(1, s);
    layer.outputLayout.regs.push_back(1);
    layer.classify();
    plan.layers.push_back(std::move(layer));
    plan.outputLayout = plan.layers.back().outputLayout;
    return plan;
}

TEST(HoistDifferential, ZooInferenceIsBitwiseIdenticalAcrossStrategies)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    ClientSession session(plan, ctx, /*seed=*/17);
    PlaintextPool pool(plan, ctx);

    ExecOptions fast; // defaults: hoisting on, lazy keyswitch
    fast.backend = "cpu";
    ExecOptions reference; // eager keyswitch, run on the scalar kernels
    reference.hoistRotations = false;
    reference.backend = "cpu-ref";
    const PlanExecutor optimized(plan, ctx, session.relinKey(),
                                 session.galoisKeys(), pool, {}, fast);
    const auto input = nn::syntheticInput(net, 12);
    const auto a = optimized.execute(session.encryptInput({&input}, 0));

    // The reference run also uses the scalar kernels, so the two runs
    // differ in SIMD level as well as keyswitch and rotation strategy.
    const auto b = [&] {
        simd::ScopedLevel scalar(simd::Level::scalar);
        const PlanExecutor eager(plan, ctx, session.relinKey(),
                                 session.galoisKeys(), pool, {},
                                 reference);
        return eager.execute(session.encryptInput({&input}, 0));
    }();

    ASSERT_FALSE(a.degraded());
    ASSERT_FALSE(b.degraded());
    EXPECT_TRUE(sameRegs(a.regs, b.regs))
        << "lazy/hoisted path diverged from the eager reference";
    EXPECT_EQ(session.decryptLogits(a.regs), session.decryptLogits(b.regs));
}

TEST(HoistDifferential, HoistedGroupPlanMatchesSerialExecutionBitwise)
{
    const auto plan = rotationGroupPlan();
    ckks::CkksContext ctx(plan.params);
    ClientSession session(plan, ctx, 23);
    PlaintextPool pool(plan, ctx);

    ASSERT_EQ(plannedDecompositions(plan), 1u)
        << "fixture must hold exactly one hoistable group";

    ExecOptions serial;
    serial.hoistRotations = false;
    const PlanExecutor hoisted(plan, ctx, session.relinKey(),
                               session.galoisKeys(), pool);
    const PlanExecutor unhoisted(plan, ctx, session.relinKey(),
                                 session.galoisKeys(), pool, {}, serial);

    nn::Tensor input(8);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = 0.1 * static_cast<double>(i + 1);
    const auto a = hoisted.execute(session.encryptInput({&input}, 0));
    const auto b = unhoisted.execute(session.encryptInput({&input}, 0));
    ASSERT_FALSE(a.degraded());
    ASSERT_FALSE(b.degraded());
    EXPECT_TRUE(sameRegs(a.regs, b.regs));
    EXPECT_EQ(a.executed.rotate, 3u);
    EXPECT_EQ(b.executed.rotate, 3u);
}

TEST(HoistDifferential, DecompositionTelemetryMatchesLintModel)
{
    // The lint OpCountPass predicts keyswitch decompositions with
    // countHoistedDecompositions; the runtime must report exactly that
    // via "ckks.keyswitch.decompositions" when hoisting is on — the
    // group-of-k-rotations = 1-decomposition contract.
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";

    for (const auto &plan :
         {rotationGroupPlan(),
          compile(nn::buildTestNetwork(), ckks::testParams(2048, 7, 30))}) {
        ckks::CkksContext ctx(plan.params);
        ClientSession session(plan, ctx, 29);
        PlaintextPool pool(plan, ctx);
        const PlanExecutor executor(plan, ctx, session.relinKey(),
                                    session.galoisKeys(), pool);

        std::int32_t maxIndex = -1;
        for (const auto &gather : plan.inputGather)
            for (std::int32_t idx : gather)
                maxIndex = std::max(maxIndex, idx);
        nn::Tensor input(static_cast<std::size_t>(maxIndex + 1));
        for (std::size_t i = 0; i < input.size(); ++i)
            input[i] = 0.05 * static_cast<double>(i % 16 + 1);
        const auto encrypted = session.encryptInput({&input}, 0);

        telemetry::reset();
        telemetry::setEnabled(true);
        const auto result = executor.execute(encrypted);
        telemetry::setEnabled(false);

        ASSERT_FALSE(result.degraded());
        EXPECT_EQ(
            telemetry::counter("ckks.keyswitch.decompositions").value(),
            plannedDecompositions(plan))
            << "plan " << plan.name;
        // Satellite contract re-checked at plan scope: every executed
        // rotate pairs one op count with one timer sample.
        EXPECT_EQ(telemetry::counter("ckks.op.rotate").value(),
                  result.executed.rotate);
        EXPECT_EQ(telemetry::histogram("ckks.time.rotate.ns").count(),
                  result.executed.rotate);
        telemetry::reset();
    }
}

} // namespace
} // namespace fxhenn::hecnn
