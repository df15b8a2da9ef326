/**
 * @file
 * The FxHENN framework facade (Fig. 1's design flow).
 *
 * Input:  an HE-CNN model (a plaintext CNN plus CKKS parameters) and a
 *         target FPGA specification.
 * Output: an accelerator design solution — the parallelism and buffer
 *         provisioning of every HE operation module (found by DSE), the
 *         predicted per-layer and end-to-end latency, and the HLS
 *         directives the Vivado toolchain would consume.
 */
#ifndef FXHENN_FXHENN_FRAMEWORK_HPP
#define FXHENN_FXHENN_FRAMEWORK_HPP

#include <string>

#include "src/ckks/params.hpp"
#include "src/dse/baseline.hpp"
#include "src/dse/explorer.hpp"
#include "src/fpga/device.hpp"
#include "src/nn/network.hpp"

namespace fxhenn {

/** A complete accelerator design solution for one (model, device). */
struct DesignSolution
{
    std::string modelName;
    std::string deviceName;
    ckks::CkksParams params;
    hecnn::HeNetworkPlan plan;   ///< compiled HE-CNN (stats-only ok)
    dse::DesignPoint design;     ///< winning DSE point
    std::size_t dsePointsEvaluated = 0;
    std::size_t dsePointsPruned = 0;

    // Copied from ExploreResult when ExploreOptions::certifyNoise ran.
    std::size_t certifiedLevels = 0;
    std::size_t minFeasibleLevels = 0;
    std::size_t levelChoicesPruned = 0;
    double certifiedMinHeadroomBits = 0.0;

    // Copied from ExploreResult when ExploreOptions::replaySim ran:
    // the winner's closed-form prediction checked against the
    // event-driven pipeline schedule (the fpga-sim backend's latency).
    std::vector<dse::ReplayRow> simReplay;
    double simReplayMaxErrorFrac = 0.0;

    /** End-to-end inference latency predicted by the model (seconds). */
    double latencySeconds() const { return design.latencySeconds; }

    /** Energy per inference at the device TDP (joules). */
    double energyJoules(const fpga::DeviceSpec &device) const
    {
        return latencySeconds() * device.tdpWatts;
    }
};

/** Options for the framework entry points. */
struct FxhennOptions
{
    /** Compile stats-only (required for CIFAR10-scale weights). */
    bool elideValues = false;
    /** Forwarded to the explorer (budget sweeps etc.). */
    dse::ExploreOptions explore;
};

/** Framework entry points. */
class Fxhenn
{
  public:
    using Options = FxhennOptions;

    /**
     * Full flow: compile @p net under @p params, run DSE on @p device,
     * return the optimized design solution.
     */
    static DesignSolution generate(const nn::Network &net,
                                   const ckks::CkksParams &params,
                                   const fpga::DeviceSpec &device,
                                   const Options &options = {});

    /** The Table IX baseline on the same inputs. */
    static dse::BaselineResult generateBaseline(
        const nn::Network &net, const ckks::CkksParams &params,
        const fpga::DeviceSpec &device, const Options &options = {});
};

} // namespace fxhenn

#endif // FXHENN_FXHENN_FRAMEWORK_HPP
