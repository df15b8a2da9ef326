/**
 * @file
 * Design space exploration (Sec. VI-B).
 *
 * Enumerates the parallelism knobs of every HE operation module class —
 * nc_NTT in {2,4,8}, P_intra in 1..L, P_inter — and minimizes the
 * aggregated layer latency (Eq. 10) subject to the device's DSP and
 * BRAM capacities:
 *
 *     min  sum_lr LAT_lr
 *     s.t. sum_op DSP_op           <= DSP_max
 *          max_lr BRAM_lr          <= BRAM_max   (inter-layer reuse)
 *
 * The space is a few hundred thousand points and is searched
 * exhaustively, mirroring the paper's choice ("solved within a few
 * seconds, negligible compared with FPGA synthesis").
 */
#ifndef FXHENN_DSE_EXPLORER_HPP
#define FXHENN_DSE_EXPLORER_HPP

#include <optional>
#include <string>
#include <vector>

#include "src/fpga/device.hpp"
#include "src/fpga/layer_model.hpp"
#include "src/robustness/guard.hpp"

namespace fxhenn::dse {

/** One evaluated design point. */
struct DesignPoint
{
    fpga::ModuleAllocation alloc;
    fpga::NetworkPerf perf;
    double latencySeconds = 0.0;
    double dspFraction = 0.0;  ///< physical DSP / device DSP
    double bramFraction = 0.0; ///< physical BRAM / effective capacity
};

/** Explorer limits (defaults match the paper's observed optima). */
struct ExploreOptions
{
    std::vector<unsigned> ncNttChoices{2, 4, 8};
    unsigned maxIntraNtt = 7;    ///< Rescale/KeySwitch P_intra ceiling
    unsigned maxInterNtt = 6;    ///< Rescale/KeySwitch P_inter ceiling
    std::vector<unsigned> elementwiseIntra{1, 2, 4};
    std::vector<unsigned> elementwiseInter{1, 2};
    /** Override the device BRAM capacity (Fig. 9 budget sweep). */
    std::optional<double> bramBudgetBlocks;
    /** Keep every feasible point (Fig. 9 scatter), not just the best. */
    bool collectAll = false;
    /**
     * Return an empty result instead of throwing ConfigError when no
     * design point fits the device. Budget sweeps set this: an
     * infeasible budget is a data point there, not a user error.
     */
    bool allowInfeasible = false;

    /**
     * Tighten each layer's BRAM demand with its register-liveness
     * peak (hecnn::computeLiveness): buffer replication beyond the
     * number of simultaneously live ciphertexts is provably unused.
     * The bound never grows, so the feasible set only expands and the
     * best latency can only improve or stay put.
     */
    bool livenessBuffers = false;

    /**
     * Replay the winning design point through the event-driven
     * pipeline simulator (fpga/pipeline_sim) and report the per-layer
     * predicted-vs-simulated cycle error in ExploreResult::simReplay.
     * This is the predicted-vs-measured latency loop: the closed forms
     * the search minimized are checked against the schedule of the
     * point it chose. Both depend only on the plan and the design
     * point, so the replay is the per-layer latency of the "fpga-sim"
     * backend for every request of the plan.
     */
    bool replaySim = false;

    /**
     * Gate the search on the static noise certificate and prune the
     * prime-chain dimension with it: a plan whose certified minimum
     * headroom is negative produces garbage on ANY hardware, so
     * exploring it is a ConfigError (unless allowInfeasible). The
     * certifier is then re-run at shrinking chain depths (levelShift)
     * to report the minimum prime count that still certifies — every
     * level above it is a pruned design choice (smaller ciphertexts,
     * cheaper keyswitch) the compiler could claim by recompiling.
     */
    bool certifyNoise = false;
};

/** Per-layer predicted-vs-simulated latency of the winning point. */
struct ReplayRow
{
    std::string layer;
    double predictedCycles = 0.0; ///< closed form (what DSE minimized)
    double simulatedCycles = 0.0; ///< event-driven pipeline schedule
    /** |simulated - predicted| / predicted. */
    double errorFrac = 0.0;
};

/** Result of a search. */
struct ExploreResult
{
    std::optional<DesignPoint> best;
    std::vector<DesignPoint> all; ///< filled when collectAll is set
    std::size_t evaluated = 0;    ///< feasible design points seen
    std::size_t pruned = 0;       ///< points rejected by constraints

    // Filled when ExploreOptions::replaySim is set and a best exists.
    std::vector<ReplayRow> simReplay;
    double simReplayMaxErrorFrac = 0.0;

    // Filled when ExploreOptions::certifyNoise is set.
    /** Prime-chain depth the plan was compiled for. */
    std::size_t certifiedLevels = 0;
    /** Smallest chain depth whose certificate still shows headroom. */
    std::size_t minFeasibleLevels = 0;
    /** Certified minimum headroom at the compiled depth (bits). */
    double certifiedMinHeadroomBits = 0.0;
    /** Prime-count choices the certificate proved removable. */
    std::size_t levelChoicesPruned = 0;
};

/** Run the exhaustive DSE for @p plan on @p device. */
ExploreResult explore(const hecnn::HeNetworkPlan &plan,
                      const fpga::DeviceSpec &device,
                      const ExploreOptions &options = {});

/**
 * Per-layer replay error beyond which replayWarning() reports: the
 * ±25 % agreement the pipeline-sim tests pin, with headroom for small
 * layers.
 */
inline constexpr double kReplayToleranceFrac = 0.5;

/**
 * The predicted-vs-simulated latency table of a replay, in
 * milliseconds at @p device's clock, with its max per-layer error:
 * what `fxhenn verify --backend fpga-sim` prints.
 */
std::string renderReplayLatency(const std::vector<ReplayRow> &rows,
                                const fpga::DeviceSpec &device);

/** The per-layer replay cycles `fxhenn design --backend fpga-sim`
 * prints. */
std::string renderReplayCycles(const std::vector<ReplayRow> &rows);

/**
 * Warn-level classification of a replay: a report (layer "backend",
 * op "latency") naming the worst layer when its error exceeds
 * kReplayToleranceFrac, nullopt otherwise. A divergent layer means
 * the closed-form model and the event-driven schedule disagree, which
 * is a performance-model bug to investigate, never a failed
 * inference.
 */
std::optional<robustness::FailureReport> replayWarning(
    const std::vector<ReplayRow> &rows);

} // namespace fxhenn::dse

#endif // FXHENN_DSE_EXPLORER_HPP
