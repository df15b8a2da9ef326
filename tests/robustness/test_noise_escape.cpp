/**
 * @file
 * Escape test for the certificate-driven runtime guard: the guard's
 * per-layer headroom source is the static noise certificate, not an
 * ad-hoc simulation, and a certificate is a *prediction* —
 * it cannot see a fault that corrupts ciphertext limbs at run time.
 * This suite proves the swap opened no escape hatch: the guard still
 * detects injected limb corruption and degrades the run, while clean
 * runs demonstrably consume the certificate (nonzero certified
 * noiseBits in every trajectory sample).
 */
#include <gtest/gtest.h>

#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/verify.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/robustness/fault_injection.hpp"

namespace fxhenn::hecnn {
namespace {

class NoiseEscapeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!robustness::faultInjectCompiledIn())
            GTEST_SKIP() << "fault injection compiled out";
        robustness::disarmFaults();
    }

    void
    TearDown() override
    {
        robustness::disarmFaults();
    }
};

TEST_F(NoiseEscapeTest, GuardConsumesCertificateAndCatchesCorruption)
{
    const auto net = nn::buildTestNetwork();
    const auto plan = compile(net, ckks::testParams(2048, 7, 30));
    ckks::CkksContext ctx(plan.params);
    ClientSession session(plan, ctx, /*seed=*/41);
    const PlaintextPool pool(plan, ctx);
    robustness::GuardOptions guard;
    guard.policy = robustness::GuardPolicy::degrade;
    const PlanExecutor exec(plan, ctx, session.relinKey(),
                            session.galoisKeys(), pool, guard);
    const auto input = nn::syntheticInput(net, 3);

    // Clean run: no degradation, and the guard's trajectory carries
    // the statically certified noise bound at every layer — the
    // certificate is demonstrably the headroom source, not a fallback.
    const auto clean = exec.execute(session.encryptInput({&input}, 0));
    ASSERT_FALSE(clean.degraded());
    ASSERT_EQ(clean.budget.size(), plan.layers.size());
    for (const auto &sample : clean.budget) {
        EXPECT_NE(sample.noiseBits, 0.0)
            << "layer " << sample.layer
            << " fell back to the non-certified headroom path";
        EXPECT_GE(sample.headroomBits, 0.0);
    }

    // Corrupted run: a limb bitflip is invisible to the server (no
    // secret key) and to the certificate (a static prediction); it
    // must be caught at decryption, where the measured headroom falls
    // below the certified worst-case trajectory — the comparison the
    // certificate exists to anchor.
    robustness::armFault({"ciphertext.limb", "bitflip", 1, 1});
    const auto corrupted = verifyAgainstPlaintext(
        net, ckks::testParams(2048, 7, 30), 1, 1, guard);
    EXPECT_EQ(robustness::armedFaultCount(), 0u)
        << "the armed fault never fired";
    ASSERT_TRUE(corrupted.failure.has_value())
        << "limb corruption escaped the certificate-anchored check";
    EXPECT_NE(corrupted.failure->reason.find("headroom"),
              std::string::npos)
        << corrupted.failure->reason;
}

} // namespace
} // namespace fxhenn::hecnn
