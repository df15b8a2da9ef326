/**
 * @file
 * Golden outputs of the static toolchain. For each plan of the zoo the
 * standard lint report, the noise certificate and the certified rescale
 * rewrite (its summary, the CRC-32 of the serialized plan before and
 * after, then lint and certificate of the rewritten plan) must match
 * the committed files under tests/analysis/golden byte for byte. A
 * change to the op semantics, the plan walk or any pass that moves one
 * character of these outputs fails here. So does a change to the
 * fpga-sim replay text that `fxhenn verify --backend fpga-sim` and
 * `fxhenn design --model mnist --backend fpga-sim` print.
 *
 * Regenerate on purpose with FXHENN_UPDATE_GOLDEN=1, which rewrites
 * the files instead of comparing, and review the diff.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/analysis/pass_manager.hpp"
#include "src/common/crc32.hpp"
#include "src/dse/explorer.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan_io.hpp"
#include "src/hecnn/rescale_rewriter.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::analysis {
namespace {

/**
 * CRC-32 of the serialized plan. The stream ends in a CRC-32 trailer of
 * everything before it, and the CRC of a message followed by its own
 * CRC is the same constant for every message, so hash the payload only.
 */
std::uint32_t
planCrc(const hecnn::HeNetworkPlan &plan)
{
    std::ostringstream os;
    hecnn::savePlan(plan, os);
    const std::string bytes = os.str();
    return crc32(bytes.data(), bytes.size() - sizeof(std::uint32_t));
}

/** Everything the static toolchain prints about @p plan. */
std::string
renderToolchain(hecnn::HeNetworkPlan plan)
{
    std::ostringstream out;
    out << "== lint ==\n"
        << PassManager::standard().run(plan).toJson()
        << "== noise certificate ==\n"
        << hecnn::certifyPlan(plan).renderJson()
        << "== rescale rewrite ==\n"
        << "plan crc32: " << planCrc(plan) << "\n";
    const auto summary = hecnn::rewriteRescales(plan);
    out << summary.describe() << "\n"
        << "rewritten plan crc32: " << planCrc(plan) << "\n"
        << "== lint after rewrite ==\n"
        << PassManager::standard().run(plan).toJson()
        << "== noise certificate after rewrite ==\n"
        << hecnn::certifyPlan(plan).renderJson();
    return out.str();
}

void
expectGolden(const std::string &file, const std::string &actual)
{
    const std::string path = std::string(FXHENN_GOLDEN_DIR) + "/" + file;
    if (std::getenv("FXHENN_UPDATE_GOLDEN") != nullptr) {
        std::ofstream(path, std::ios::binary) << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::ostringstream expected;
    expected << in.rdbuf();
    if (expected.str() == actual)
        return;
    // Point at the first line that differs; the whole file is in the
    // repository for a full diff.
    std::istringstream want(expected.str());
    std::istringstream got(actual);
    std::string wantLine;
    std::string gotLine;
    for (std::size_t line = 1;; ++line) {
        const bool moreWant = static_cast<bool>(std::getline(want, wantLine));
        const bool moreGot = static_cast<bool>(std::getline(got, gotLine));
        if (!moreWant && !moreGot)
            break;
        if (moreWant != moreGot || wantLine != gotLine) {
            ADD_FAILURE() << path << " differs at line " << line
                          << "\n  golden: " << (moreWant ? wantLine : "<eof>")
                          << "\n  actual: " << (moreGot ? gotLine : "<eof>");
            return;
        }
    }
    ADD_FAILURE() << path << " differs (line endings)";
}

hecnn::HeNetworkPlan
compileWith(const nn::Network &net, const ckks::CkksParams &params,
            std::size_t lanes, bool elide)
{
    hecnn::CompileOptions opts;
    opts.batchLanes = lanes;
    opts.elideValues = elide;
    return hecnn::compile(net, params, opts);
}

TEST(GoldenOutputs, TestNetworkOneLane)
{
    expectGolden("test5l_b1.txt",
                 renderToolchain(compileWith(nn::buildTestNetwork(),
                                             ckks::testParams(2048, 7, 30),
                                             1, false)));
}

TEST(GoldenOutputs, TestNetworkSixteenLanes)
{
    expectGolden("test5l_b16.txt",
                 renderToolchain(compileWith(nn::buildTestNetwork(),
                                             ckks::testParams(2048, 7, 30),
                                             16, false)));
}

TEST(GoldenOutputs, Mnist)
{
    expectGolden("mnist.txt",
                 renderToolchain(compileWith(nn::buildMnistNetwork(),
                                             ckks::mnistParams(), 1,
                                             false)));
}

TEST(GoldenOutputs, Cifar10ValuesElided)
{
    expectGolden("cifar10_elided.txt",
                 renderToolchain(compileWith(nn::buildCifar10Network(),
                                             ckks::cifar10Params(), 1,
                                             true)));
}

TEST(GoldenOutputs, FpgaSimVerifyLatencyTable)
{
    // What `fxhenn verify --backend fpga-sim` prints: the test
    // network's plan replayed at the DSE winner on ACU9EG.
    dse::ExploreOptions options;
    options.replaySim = true;
    const auto device = fpga::acu9eg();
    const auto replay = dse::explore(
        hecnn::compile(nn::buildTestNetwork(),
                       ckks::testParams(2048, 7, 30)),
        device, options);
    expectGolden("fpga_sim_verify_test5l.txt",
                 dse::renderReplayLatency(replay.simReplay, device));
}

TEST(GoldenOutputs, FpgaSimDesignReplayMnist)
{
    // What `fxhenn design --model mnist --backend fpga-sim` prints
    // after the module allocation.
    FxhennOptions options;
    options.explore.replaySim = true;
    const auto solution =
        Fxhenn::generate(nn::buildMnistNetwork(), ckks::mnistParams(),
                         fpga::acu9eg(), options);
    expectGolden("fpga_sim_design_mnist.txt",
                 dse::renderReplayCycles(solution.simReplay));
}

} // namespace
} // namespace fxhenn::analysis
