/**
 * @file
 * Single-tenant façade over the layered inference engine.
 *
 * Historically Runtime fused the client role (keygen, packing,
 * encrypt/decrypt) and the server role (plan interpretation) into one
 * monolith. Those now live in ClientSession and PlanExecutor; Runtime
 * composes them behind the original API so the verification loop, the
 * guard simulation, the examples and the tests keep working unchanged.
 * Concurrent batched inference over the same split lives in
 * engine::InferenceEngine (src/engine).
 *
 * Each infer() call consumes the next per-request noise stream
 * (request index 0, 1, 2, ...), so N serial infer() calls produce
 * bitwise the same logits as the engine running the same N inputs on
 * any number of workers with the same key seed.
 */
#ifndef FXHENN_HECNN_RUNTIME_HPP
#define FXHENN_HECNN_RUNTIME_HPP

#include <memory>
#include <optional>
#include <vector>

#include "src/hecnn/client_session.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/plaintext_pool.hpp"
#include "src/hecnn/stats.hpp"
#include "src/nn/tensor.hpp"
#include "src/robustness/guard.hpp"

namespace fxhenn::hecnn {

/**
 * Outcome of one guarded encrypted inference. Either `logits` holds
 * the decrypted result, or `failure` explains why the run was aborted
 * (GuardPolicy::degrade) — never garbage logits.
 */
struct InferOutcome
{
    std::vector<double> logits;
    std::optional<robustness::FailureReport> failure;
    /** Predicted per-layer noise-budget trajectory. */
    std::vector<robustness::BudgetSample> budget;
    /** Name of the execution backend that ran the request. */
    std::string backendName;
    /** HE ops the executor ran for this request. */
    std::uint64_t opsExecuted = 0;

    bool degraded() const { return failure.has_value(); }
};

/**
 * The outcome fields of one executed run, shared by every member it
 * served: budget, backend, op count and failure.
 * The caller decrypts the logits when there is no failure.
 */
InferOutcome runOutcome(const ExecutionResult &result);

/** Client + server runtime for one compiled HE-CNN. */
class Runtime
{
  public:
    /**
     * Generate all key material (public, relinearization, and the
     * Galois keys for every rotation step the plan uses) and build the
     * shared plaintext pool. @p guard selects what happens when a
     * runtime invariant breaks; the default (warn) preserves the
     * historical behavior.
     */
    Runtime(const HeNetworkPlan &plan, const ckks::CkksContext &context,
            std::uint64_t seed = 1,
            robustness::GuardOptions guard = {}, ExecOptions exec = {});

    /**
     * Full encrypted inference: pack + encrypt @p input, execute every
     * layer homomorphically, decrypt and extract the logits. Throws
     * InternalError if the run degrades (use inferGuarded() for the
     * structured report).
     */
    std::vector<double> infer(const nn::Tensor &input);

    /**
     * Like infer(), but under GuardPolicy::degrade a guard violation
     * aborts the encrypted run at the failing layer and returns a
     * FailureReport (with the headroom trajectory) instead of garbage
     * logits. ConfigError/InternalError thrown mid-layer are converted
     * into the report too, so a degraded run never escapes as an
     * exception.
     */
    InferOutcome inferGuarded(const nn::Tensor &input);

    /**
     * Measured headroom of the output registers after the last
     * inference: min over output ciphertexts of
     * ckks::headroomBits(). Negative means the logits are garbage.
     */
    double outputHeadroomBits() const;

    /** Executed-operation counters from the last inference. */
    const ckks::OpCounts &executedCounts() const { return last_.executed; }

    /**
     * Measured per-layer statistics of the last infer(): wall time and
     * executed-op breakdown. Always collected (the cost is two clock
     * reads per layer); also mirrored into the telemetry registry as
     * "hecnn.layer.<name>.ns" histograms when telemetry is enabled.
     */
    const std::vector<MeasuredLayerStats> &lastLayerStats() const
    {
        return last_.layerStats;
    }

    /** Number of Galois keys generated (rotation key footprint). */
    std::size_t galoisKeyCount() const
    {
        return session_.galoisKeyCount();
    }

    /** The client half (key material, packing, encrypt/decrypt). */
    const ClientSession &session() const { return session_; }

    /** The server half (stateless plan interpreter). */
    const PlanExecutor &executor() const { return executor_; }

  private:
    ClientSession session_;
    PlaintextPool pool_;
    PlanExecutor executor_;
    std::uint64_t nextRequest_ = 0;
    ExecutionResult last_; ///< the last inference's run
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_RUNTIME_HPP
