/**
 * @file
 * Static-vs-measured noise differential over the model zoo: at every
 * layer of every plan, the certified worst-case headroom must lower-
 * bound the headroom actually measured with the secret key (soundness
 * of the abstract interpretation). The rewritten (waterline) plans are
 * held to the same standard — a rescale rewrite that broke soundness
 * would be caught here even if its certificate claimed otherwise.
 *
 * The static shapes are pinned too: the plan walk's predicted level,
 * part count and scale of every output register must equal the
 * executed ciphertext's exactly, and the certificate's scale must be
 * log2 of that very scale — the certifier replays the evaluator's
 * arithmetic, not an approximation of it.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/rescale_rewriter.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::hecnn {
namespace {

/**
 * Slack granted to the measurement, not the bound: the measured
 * headroom uses the exact decrypted noise while the certificate rounds
 * through per-op RSS composition, so equality is the worst legal case
 * and a certificate exceeding measurement by more than this is a
 * soundness bug.
 */
constexpr double kSlackBits = 0.5;

void
expectCertifiedHeadroomIsSound(const nn::Network &net,
                               const HeNetworkPlan &plan,
                               std::uint64_t seed)
{
    const auto cert = certifyPlan(plan);
    ASSERT_TRUE(cert.valid) << cert.invalidReason;
    ASSERT_TRUE(cert.certified()) << cert.renderText();
    ASSERT_EQ(cert.layers.size(), plan.layers.size());

    ckks::CkksContext ctx(plan.params);
    ClientSession session(plan, ctx, seed);
    const PlaintextPool pool(plan, ctx);
    const PlanExecutor exec(plan, ctx, session.relinKey(),
                            session.galoisKeys(), pool);

    std::vector<double> measured(
        plan.layers.size(), std::numeric_limits<double>::infinity());
    std::vector<double> maxScale(plan.layers.size(), 0.0);
    RunControl control;
    control.layerProbe =
        [&](std::size_t li,
            std::span<const std::optional<ckks::Ciphertext>> regs) {
            const auto &predicted = exec.prediction().shapes(li);
            for (std::int32_t reg :
                 plan.layers[li].outputLayout.regs) {
                const auto r = static_cast<std::size_t>(reg);
                const auto &slot = regs[r];
                ASSERT_TRUE(slot.has_value());
                measured[li] = std::min(
                    measured[li], session.headroomBits(*slot));
                EXPECT_EQ(predicted[r].level, slot->level())
                    << "layer " << li << " r" << reg;
                EXPECT_EQ(predicted[r].parts, slot->size())
                    << "layer " << li << " r" << reg;
                EXPECT_EQ(predicted[r].scale, slot->scale)
                    << "layer " << li << " r" << reg;
                maxScale[li] = std::max(maxScale[li], slot->scale);
            }
        };

    const auto input = nn::syntheticInput(net, seed);
    const auto result =
        exec.execute(session.encryptInput({&input}, 0), control);
    ASSERT_FALSE(result.degraded());

    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        EXPECT_EQ(cert.layers[i].scaleBits, std::log2(maxScale[i]))
            << "certified scale drifted from the executed one at layer '"
            << plan.layers[i].name << "'";
        EXPECT_LE(cert.layers[i].headroomBits,
                  measured[i] + kSlackBits)
            << "certificate overclaims headroom at layer '"
            << plan.layers[i].name << "' (certified "
            << cert.layers[i].headroomBits << " bits, measured "
            << measured[i] << " bits)";
    }
}

TEST(NoiseDifferential, TestNetworkCertificateIsSound)
{
    const auto net = nn::buildTestNetwork();
    const auto plan = compile(net, ckks::testParams(2048, 7, 30));
    expectCertifiedHeadroomIsSound(net, plan, 11);
}

TEST(NoiseDifferential, RewrittenTestNetworkCertificateIsSound)
{
    const auto net = nn::buildTestNetwork();
    auto plan = compile(net, ckks::testParams(2048, 7, 30));
    const auto summary = rewriteRescales(plan);
    ASSERT_TRUE(summary.applied) << summary.reason;
    expectCertifiedHeadroomIsSound(net, plan, 13);
}

TEST(NoiseDifferential, MnistCertificateIsSound)
{
    const auto net = nn::buildMnistNetwork();
    const auto plan = compile(net, ckks::mnistParams());
    expectCertifiedHeadroomIsSound(net, plan, 5);
}

} // namespace
} // namespace fxhenn::hecnn
