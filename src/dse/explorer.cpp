#include "src/dse/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/hecnn/liveness.hpp"
#include "src/common/assert.hpp"
#include "src/common/table_printer.hpp"
#include "src/fpga/pipeline_sim.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/robustness/fault_injection.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::dse {

namespace {

using fpga::HeOpModule;
using fpga::ModuleAllocation;
using fpga::OpAllocation;

/** Candidate (pIntra, pInter) pairs for one module class. */
std::vector<std::pair<unsigned, unsigned>>
pairChoices(const std::vector<unsigned> &intra,
            const std::vector<unsigned> &inter)
{
    std::vector<std::pair<unsigned, unsigned>> out;
    for (unsigned a : intra) {
        for (unsigned b : inter)
            out.emplace_back(a, b);
    }
    return out;
}

} // namespace

ExploreResult
explore(const hecnn::HeNetworkPlan &plan, const fpga::DeviceSpec &device,
        const ExploreOptions &options)
{
    FXHENN_FATAL_IF(plan.layers.empty(), "cannot explore an empty plan");
    FXHENN_TELEM_SCOPED_TIMER("dse.explore.ns");
    FXHENN_TELEM_COUNT("dse.explorations", 1);
    ExploreResult result;

    if (options.certifyNoise) {
        const auto cert = hecnn::certifyPlan(plan);
        FXHENN_FATAL_IF(!cert.valid && !options.allowInfeasible,
                        "cannot noise-certify plan '" + plan.name +
                            "' before exploration: " +
                            cert.invalidReason);
        if (cert.valid) {
            result.certifiedLevels = plan.params.levels;
            result.minFeasibleLevels = plan.params.levels;
            result.certifiedMinHeadroomBits = cert.minHeadroomBits;
            if (!cert.certified()) {
                std::ostringstream oss;
                oss << "plan '" << plan.name
                    << "' is not noise-safe: certified minimum "
                       "headroom "
                    << cert.minHeadroomBits
                    << " bits is negative — no hardware allocation "
                       "can fix a plan that decrypts to garbage";
                FXHENN_FATAL_IF(!options.allowInfeasible, oss.str());
            } else {
                // Shrink the chain until the certificate breaks: the
                // deepest shift that still certifies bounds the prime
                // count actually needed. Shifting below the plan's
                // final level is structurally impossible (the last
                // rescale would have no prime to drop into).
                const std::size_t max_shift =
                    plan.layers.back().levelOut > 0
                        ? plan.layers.back().levelOut - 1
                        : 0;
                for (std::size_t k = 1; k <= max_shift; ++k) {
                    hecnn::CertifyOptions copts;
                    copts.levelShift = k;
                    const auto shifted =
                        hecnn::certifyPlan(plan, copts);
                    if (!shifted.valid || !shifted.certified())
                        break;
                    result.minFeasibleLevels = plan.params.levels - k;
                }
                result.levelChoicesPruned =
                    result.certifiedLevels - result.minFeasibleLevels;
                FXHENN_TELEM_COUNT("dse.level_choices_pruned",
                                   result.levelChoicesPruned);
            }
        }
    }

    fpga::DeviceSpec spec = device;
    if (auto fault = robustness::fireFault("dse.device")) {
        if (fault->kind == "infeasible") {
            spec.dspSlices = 1;
            spec.bram36kBlocks = 1;
            spec.uramBlocks = 0;
        }
    }

    std::vector<unsigned> ntt_intra;
    for (unsigned i = 1; i <= options.maxIntraNtt; ++i)
        ntt_intra.push_back(i);
    std::vector<unsigned> ntt_inter;
    for (unsigned i = 1; i <= options.maxInterNtt; ++i)
        ntt_inter.push_back(i);

    const auto ew_pairs =
        pairChoices(options.elementwiseIntra, options.elementwiseInter);
    const auto ntt_pairs = pairChoices(ntt_intra, ntt_inter);

    // Per-layer peak live-register counts, solved once for the whole
    // search (the bound is allocation-independent).
    std::vector<unsigned> peak_live;
    if (options.livenessBuffers)
        peak_live = hecnn::computeLiveness(plan).peakLive;
    const std::vector<unsigned> *peaks =
        options.livenessBuffers ? &peak_live : nullptr;

    // CCmult parallelism is pinned to 1: it runs once per activation
    // ciphertext and never bottlenecks (the paper's Fig. 10 note).
    const OpAllocation ccmult_alloc{2, 1, 1};

    double best_cycles = 0.0;
    unsigned min_dsp = std::numeric_limits<unsigned>::max();
    double min_bram = std::numeric_limits<double>::infinity();
    double last_bram_cap = 0.0;
    for (unsigned nc : options.ncNttChoices) {
        for (const auto &[ks_a, ks_b] : ntt_pairs) {
            for (const auto &[rs_a, rs_b] : ntt_pairs) {
                for (const auto &[ew_a, ew_b] : ew_pairs) {
                    ModuleAllocation alloc;
                    alloc[HeOpModule::ccAdd] = {nc, ew_a, ew_b};
                    alloc[HeOpModule::pcMult] = {nc, ew_a, ew_b};
                    alloc[HeOpModule::ccMult] = ccmult_alloc;
                    alloc[HeOpModule::ccMult].ncNtt = nc;
                    alloc[HeOpModule::rescale] = {nc, rs_a, rs_b};
                    alloc[HeOpModule::keySwitch] = {nc, ks_a, ks_b};

                    const auto perf =
                        fpga::evaluateNetworkShared(plan, alloc,
                                                    peaks);

                    const double bram_cap =
                        options.bramBudgetBlocks
                            ? *options.bramBudgetBlocks
                            : spec.effectiveBramBlocks(
                                  plan.params.n / (2 * nc));
                    min_dsp = std::min(min_dsp, perf.dspPhysical);
                    min_bram = std::min(min_bram, perf.bramPhysical);
                    last_bram_cap = bram_cap;
                    if (perf.dspPhysical > spec.dspSlices ||
                        (spec.luts != 0 &&
                         perf.lutPhysical > spec.luts) ||
                        perf.bramPhysical > bram_cap) {
                        ++result.pruned;
                        continue;
                    }

                    ++result.evaluated;
                    DesignPoint point;
                    point.alloc = alloc;
                    point.latencySeconds =
                        spec.seconds(perf.totalCycles);
                    point.dspFraction =
                        double(perf.dspPhysical) / spec.dspSlices;
                    point.bramFraction = perf.bramPhysical / bram_cap;
                    point.perf = perf;

                    if (!result.best ||
                        point.perf.totalCycles < best_cycles) {
                        best_cycles = point.perf.totalCycles;
                        result.best = point;
                    }
                    if (options.collectAll)
                        result.all.push_back(std::move(point));
                }
            }
        }
    }
    FXHENN_TELEM_COUNT("dse.points_evaluated", result.evaluated);
    FXHENN_TELEM_COUNT("dse.points_pruned", result.pruned);
    if (!result.best && !options.allowInfeasible) {
        std::ostringstream oss;
        oss << "design space exploration found no feasible point for "
               "plan '"
            << plan.name << "' on device '" << spec.name << "': all "
            << result.pruned << " candidates exceed the resource "
            << "constraints. The smallest candidate needs >= "
            << min_dsp << " DSP slices (device has " << spec.dspSlices
            << ") and >= " << std::llround(std::ceil(min_bram))
            << " BRAM blocks (capacity " << std::llround(last_bram_cap)
            << "); pick a larger device or raise the BRAM budget.";
        FXHENN_FATAL_IF(true, oss.str());
    }
    if (options.replaySim && result.best) {
        // Close the loop on the winner: the closed forms the search
        // ranked points by, checked against the event-driven schedule
        // of the same point.
        result.simReplay.reserve(plan.layers.size());
        for (std::size_t i = 0; i < plan.layers.size(); ++i) {
            ReplayRow row;
            row.layer = plan.layers[i].name;
            row.predictedCycles = result.best->perf.layers[i].cycles;
            row.simulatedCycles = fpga::simulateLayer(
                plan.layers[i], plan.params.n, result.best->alloc);
            if (row.predictedCycles > 0.0)
                row.errorFrac = std::abs(row.simulatedCycles -
                                         row.predictedCycles) /
                                row.predictedCycles;
            result.simReplayMaxErrorFrac = std::max(
                result.simReplayMaxErrorFrac, row.errorFrac);
            result.simReplay.push_back(std::move(row));
        }
    }
    return result;
}

namespace {

/** The first row with the largest error; null when every error is 0. */
const ReplayRow *
worstRow(const std::vector<ReplayRow> &rows)
{
    const ReplayRow *worst = nullptr;
    for (const auto &row : rows) {
        if (row.errorFrac > (worst ? worst->errorFrac : 0.0))
            worst = &row;
    }
    return worst;
}

double
maxErrorFrac(const std::vector<ReplayRow> &rows)
{
    const ReplayRow *worst = worstRow(rows);
    return worst ? worst->errorFrac : 0.0;
}

} // namespace

std::string
renderReplayLatency(const std::vector<ReplayRow> &rows,
                    const fpga::DeviceSpec &device)
{
    TablePrinter table({"Layer", "Predicted (ms)", "Simulated (ms)",
                        "Error (%)"});
    double predicted = 0.0;
    double simulated = 0.0;
    for (const auto &row : rows) {
        const double predictedSeconds =
            device.seconds(row.predictedCycles);
        const double simulatedSeconds =
            device.seconds(row.simulatedCycles);
        predicted += predictedSeconds;
        simulated += simulatedSeconds;
        table.addRow({row.layer, fmtF(predictedSeconds * 1e3, 3),
                      fmtF(simulatedSeconds * 1e3, 3),
                      fmtF(row.errorFrac * 100.0, 2)});
    }
    table.addSeparator();
    const double totalErr =
        predicted > 0.0
            ? std::abs(simulated - predicted) / predicted
            : 0.0;
    table.addRow({"total", fmtF(predicted * 1e3, 3),
                  fmtF(simulated * 1e3, 3),
                  fmtF(totalErr * 100.0, 2)});
    std::ostringstream oss;
    oss << "predicted-vs-simulated latency (backend fpga-sim):\n";
    table.print(oss);
    oss << "max per-layer prediction error "
        << 100.0 * maxErrorFrac(rows) << " %\n";
    return oss.str();
}

std::string
renderReplayCycles(const std::vector<ReplayRow> &rows)
{
    std::ostringstream oss;
    oss << "  replay   predicted-vs-simulated cycles "
           "(fpga-sim backend):\n";
    for (const auto &row : rows) {
        oss << "           " << row.layer << ": predicted "
            << row.predictedCycles << ", simulated "
            << row.simulatedCycles << " (" << 100.0 * row.errorFrac
            << " % error)\n";
    }
    oss << "           max prediction error "
        << 100.0 * maxErrorFrac(rows) << " %\n";
    return oss.str();
}

std::optional<robustness::FailureReport>
replayWarning(const std::vector<ReplayRow> &rows)
{
    const ReplayRow *worst = worstRow(rows);
    if (worst == nullptr || worst->errorFrac <= kReplayToleranceFrac)
        return std::nullopt;
    robustness::FailureReport report;
    report.layer = "backend";
    report.op = "latency";
    report.reason = "simulated latency of layer '" + worst->layer +
                    "' diverges from the DSE prediction by " +
                    fmtBits(worst->errorFrac * 100.0) +
                    "% (tolerance " +
                    fmtBits(kReplayToleranceFrac * 100.0) + "%)";
    return report;
}

} // namespace fxhenn::dse
