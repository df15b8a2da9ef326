/**
 * @file
 * The server role of the MLaaS split: a plan interpreter over the
 * register file, with no key generation and no secret-key access.
 *
 * A PlanExecutor borrows everything it needs by const reference — the
 * compiled plan, the CKKS context, the relinearization/Galois keys and
 * the precomputed PlaintextPool — and keeps no per-request state in
 * the object: every execute() call starts its own ckks::Evaluator and
 * register file on the stack, and checks them against the guard
 * prediction computed once at construction. The backend name in
 * ExecOptions::backend (src/hecnn/backend.hpp) picks the keyswitch
 * strategy and SIMD pin of those evaluators. One executor therefore
 * serves any number of concurrent requests (the InferenceEngine's
 * worker pool), and the FxHENN verification loop (Sec. VII) gets the
 * plan-interpreter half without dragging in the client role.
 */
#ifndef FXHENN_HECNN_PLAN_EXECUTOR_HPP
#define FXHENN_HECNN_PLAN_EXECUTOR_HPP

#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/ckks/encoder.hpp"
#include "src/ckks/evaluator.hpp"
#include "src/ckks/keys.hpp"
#include "src/hecnn/guard.hpp"
#include "src/hecnn/plaintext_pool.hpp"
#include "src/hecnn/plan.hpp"
#include "src/hecnn/stats.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/robustness/guard.hpp"

namespace fxhenn::hecnn {

/** Execution strategy knobs of one PlanExecutor. */
struct ExecOptions
{
    /**
     * Dispatch consecutive same-source rotations as one hoisted group
     * (one shared digit decomposition) instead of serial rotates.
     * Results are bitwise identical either way — the serial and
     * hoisted paths share the same decompose-then-permute core.
     */
    bool hoistRotations = true;
    /**
     * Execution backend of this executor: "cpu", "cpu-ref" (eager
     * keyswitching, scalar kernels) or "fpga-sim" (see
     * src/hecnn/backend.hpp). Empty resolves the FXHENN_BACKEND
     * environment variable and falls back to "cpu"
     * (hecnn::resolveBackendName()); an unknown name is a ConfigError
     * at executor construction.
     */
    std::string backend;
};

/**
 * Per-call serving controls of one execute(). Unlike ExecOptions
 * (fixed per executor) these vary request by request, so the engine
 * passes them per call; the executor stays stateless.
 */
struct RunControl
{
    /**
     * Cooperative abort-by time. Checked between layers (the
     * checkpoint granularity of the interpreter); a blown deadline
     * degrades the run with a FailureReport regardless of the guard
     * policy — lateness is a serving concern, not a broken invariant.
     */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /**
     * Observer invoked at each layer boundary (after the layer's
     * instructions ran, before the guard's layer-end check) with the
     * layer index and the live register file. The noise differential
     * tests use it to measure per-layer headroom against the static
     * certificate — square layers overwrite their inputs in place, so
     * intermediate states are unobservable after the run. Must not
     * mutate the registers; exceptions propagate like layer errors.
     */
    std::function<void(std::size_t layerIndex,
                       std::span<const std::optional<ckks::Ciphertext>>
                           regs)>
        layerProbe;
};

/** Everything one encrypted run produced, scoped to that request. */
struct ExecutionResult
{
    /** Final register file (the output registers hold the logits). */
    std::vector<std::optional<ckks::Ciphertext>> regs;
    /** Wall time + executed-op breakdown per layer. */
    std::vector<MeasuredLayerStats> layerStats;
    /** Evaluator op counters accumulated over the run. */
    ckks::OpCounts executed;
    /** Name of the backend that ran the request. */
    std::string backendName;
    /** Set when the run degraded (GuardPolicy::degrade). */
    std::optional<robustness::FailureReport> failure;
    /** Predicted per-layer noise-budget trajectory. */
    std::vector<robustness::BudgetSample> budget;

    bool degraded() const { return failure.has_value(); }
};

/** Stateless-per-request interpreter of one compiled HE-CNN plan. */
class PlanExecutor
{
  public:
    /**
     * Borrow @p plan, @p context, the evaluation keys and @p pool.
     * All five must outlive the executor and stay unmodified; the pool
     * must have been built from the same plan/context.
     */
    PlanExecutor(const HeNetworkPlan &plan,
                 const ckks::CkksContext &context,
                 const ckks::RelinKey &relin,
                 const ckks::GaloisKeys &galois,
                 const PlaintextPool &pool,
                 robustness::GuardOptions guard = {},
                 ExecOptions exec = {});

    /**
     * Run every layer of the plan over @p inputs (the client's
     * encrypted input registers, in plan order). Under
     * GuardPolicy::degrade a violation or mid-layer
     * ConfigError/InternalError aborts the run with a FailureReport in
     * the result instead of propagating. When @p control carries a
     * deadline, the run checks it at every layer boundary and aborts
     * with a FailureReport (op "deadline") once it is past — the
     * partial trajectory up to the abort is preserved. Safe to call
     * concurrently.
     */
    ExecutionResult execute(std::vector<ckks::Ciphertext> inputs,
                            const RunControl &control = {}) const;

    const HeNetworkPlan &plan() const { return plan_; }

    /** The backend name this executor runs under (resolved once at
     * construction from ExecOptions::backend). */
    const std::string &backendName() const { return backendName_; }

    /** What the guard expects of every run, computed at construction. */
    const GuardPrediction &prediction() const { return prediction_; }

  private:
    /** Mutable state of one in-flight request, stack-allocated. */
    struct Run
    {
        ckks::Evaluator eval;
        std::vector<std::optional<ckks::Ciphertext>> regs;
        std::vector<MeasuredLayerStats> layerStats;
        /** Layers whose end check ran: the trajectory's prefix. */
        std::size_t layersChecked = 0;
    };

    /** The predicted trajectory over the layers @p run has checked. */
    std::vector<robustness::BudgetSample> trajectory(const Run &run) const;
    /** A FailureReport carrying that trajectory. */
    robustness::FailureReport failure(const Run &run,
                                      const std::string &layer,
                                      const char *op,
                                      const std::string &reason) const;

    void executeLayer(Run &run, std::size_t layerIndex) const;
    void guardViolation(Run &run, const std::string &layer,
                        const char *op, const std::string &reason) const;

    const HeNetworkPlan &plan_;
    const ckks::CkksContext &context_;
    const ckks::RelinKey &relin_;
    const ckks::GaloisKeys &galois_;
    const PlaintextPool &pool_;
    ckks::Encoder encoder_; ///< re-entrant (bias encodes at run scale)
    robustness::GuardOptions guardOptions_;
    ExecOptions execOptions_;
    std::string backendName_;
    /** Keyswitch strategy of the per-run evaluators (eager under
     * "cpu-ref", lazy otherwise). */
    ckks::KswMode kswMode_;
    /** Scalar kernels, held for the executor's lifetime under
     * "cpu-ref". */
    std::optional<simd::ScopedLevel> scalarPin_;
    GuardPrediction prediction_;
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_PLAN_EXECUTOR_HPP
