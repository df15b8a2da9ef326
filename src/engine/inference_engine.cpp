#include "src/engine/inference_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/robustness/fault_injection.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::engine {

namespace {

/** Nearest-rank percentile of an unsorted sample copy. */
double
percentile(std::vector<double> &sample, double q)
{
    if (sample.empty())
        return 0.0;
    std::sort(sample.begin(), sample.end());
    const double rank = std::ceil(q * double(sample.size()));
    const std::size_t idx = rank < 1.0 ? 0
                                       : std::min(sample.size() - 1,
                                                  std::size_t(rank) - 1);
    return sample[idx];
}

/** EWMA weight of the online service-time estimate. */
constexpr double kServiceEwmaAlpha = 0.2;

std::chrono::steady_clock::duration
secondsToDuration(double seconds)
{
    return std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(seconds));
}

} // namespace

InferenceEngine::InferenceEngine(const hecnn::HeNetworkPlan &plan,
                                 const ckks::CkksContext &context,
                                 EngineOptions options)
    : options_(options), session_(plan, context, options.keySeed),
      pool_(plan, context),
      executor_(plan, context, session_.relinKey(),
                session_.galoisKeys(), pool_, options.guard,
                options.exec),
      estimator_(kServiceEwmaAlpha), breaker_(options.breaker),
      lanes_(plan.batchLanes == 0 ? 1 : plan.batchLanes),
      queue_(options.queueCapacity == 0 ? 1 : options.queueCapacity)
{
    FXHENN_FATAL_IF(options.workers == 0,
                    "engine needs at least one worker");
    latencyReservoir_.reserve(kLatencyReservoir);
}

InferenceEngine::~InferenceEngine()
{
    shutdown();
}

std::optional<InferenceEngine::Clock::time_point>
InferenceEngine::resolveDeadline(const RequestOptions &req,
                                 Clock::time_point now) const
{
    const double seconds = req.deadlineSeconds > 0.0
                               ? req.deadlineSeconds
                               : options_.deadlineSeconds;
    if (seconds <= 0.0)
        return std::nullopt;
    return now + secondsToDuration(seconds);
}

std::vector<hecnn::InferOutcome>
InferenceEngine::runGroup(
    const std::vector<const nn::Tensor *> &inputs,
    const std::vector<std::uint64_t> &indices,
    const std::optional<Clock::time_point> &deadline)
{
    // A worker counts against the thread budget while it runs a
    // request, so its limb loops fan out only onto the cores the
    // other workers leave idle.
    const BudgetClaim busy;
    std::vector<hecnn::InferOutcome> outcomes(inputs.size());
    FXHENN_TELEM_COUNT("engine.requests",
                       static_cast<std::int64_t>(inputs.size()));

    // Member pre-validation: a malformed request degrades alone with
    // a structured report and its lane zeroed, instead of poisoning
    // the whole batch with a mid-encrypt exception.
    std::vector<const nn::Tensor *> lanes(lanes_, nullptr);
    std::vector<std::uint64_t> liveIndices;
    std::vector<std::size_t> liveSlots; // member position per lane
    for (std::size_t b = 0; b < inputs.size(); ++b) {
        try {
            session_.validateInput(*inputs[b]);
        } catch (const ConfigError &e) {
            outcomes[b].failure = robustness::FailureReport{
                "request", "exception", e.what(), {}};
            continue;
        }
        lanes[b] = inputs[b];
        liveIndices.push_back(indices[b]);
        liveSlots.push_back(b);
    }
    if (liveIndices.empty())
        return outcomes;

    // A failure of the shared run reaches every live member.
    const auto fail = [&](const std::string &reason, const char *op) {
        for (const std::size_t b : liveSlots) {
            outcomes[b].failure = robustness::FailureReport{
                lanes_ > 1 ? "batch" : "request", op, reason, {}};
            outcomes[b].logits.clear();
        }
    };

    // Injected transient infrastructure failure hits the shared run:
    // every live member sees the same retryable report.
    if (auto fault = robustness::fireFault("engine.request")) {
        fail("injected transient request fault (kind " + fault->kind +
                 ")",
             "transient");
        return outcomes;
    }

    try {
        hecnn::RunControl control;
        control.deadline = deadline;
        // With one lane the key is the member's own request index.
        const auto result = executor_.execute(
            session_.encryptInput(
                lanes, hecnn::ClientSession::batchRequestKey(liveIndices)),
            control);
        const hecnn::InferOutcome shared = hecnn::runOutcome(result);
        for (const std::size_t b : liveSlots)
            outcomes[b] = shared;
        if (result.failure) {
            // Whole-group degradation (guard violation, mid-run
            // deadline abort): every member gets the honest report —
            // never the garbage logits of a poisoned ciphertext.
            return outcomes;
        }
        // Lanes are indexed by group position (a shed sibling leaves
        // its lane zeroed, not compacted), so member b demuxes lane b.
        const auto demuxed = session_.decryptLogits(result.regs);
        for (const std::size_t b : liveSlots)
            outcomes[b].logits = demuxed[b];
    } catch (const ConfigError &e) {
        fail(e.what(), "exception");
    } catch (const InternalError &e) {
        fail(e.what(), "exception");
    }
    return outcomes;
}

std::vector<hecnn::InferOutcome>
InferenceEngine::runGroupWithRetry(
    const std::vector<const nn::Tensor *> &inputs,
    const std::vector<std::uint64_t> &indices,
    const std::optional<Clock::time_point> &deadline)
{
    std::uint32_t attempt = 0;
    for (;;) {
        // The encryption stream is a pure function of (keySeed, member
        // composition), so a successful retry is bitwise identical to
        // a first-try success and to the serial reference — retries
        // are invisible in the logits.
        auto outcomes = runGroup(inputs, indices, deadline);
        // One breaker rule at every batch size: a run counts as one
        // failure when none of its members got logits. It is retried
        // when its shared run failed transiently (a member that failed
        // validation alone carries the permanent "exception" op).
        const auto ok = [](const hecnn::InferOutcome &o) {
            return !o.degraded();
        };
        const auto transient = [](const hecnn::InferOutcome &o) {
            return transientFailure(*o.failure);
        };
        if (std::any_of(outcomes.begin(), outcomes.end(), ok)) {
            breaker_.onSuccess();
            return outcomes;
        }
        if (attempt >= options_.retry.maxRetries ||
            !std::any_of(outcomes.begin(), outcomes.end(), transient)) {
            breaker_.onFailure();
            return outcomes;
        }
        ++attempt;
        const double backoff =
            retryBackoffSeconds(options_.retry, attempt);
        if (deadline &&
            Clock::now() + secondsToDuration(backoff) > *deadline) {
            // No budget left for another attempt: hand back the
            // transient failure rather than blowing the deadline.
            breaker_.onFailure();
            return outcomes;
        }
        {
            std::scoped_lock lock(statsMutex_);
            stats_.retries += 1;
        }
        FXHENN_TELEM_COUNT("engine.retries", 1);
        if (backoff > 0.0)
            std::this_thread::sleep_for(secondsToDuration(backoff));
    }
}

void
InferenceEngine::recordBatch(std::size_t liveMembers,
                             double windowWaitSeconds)
{
    if (lanes_ <= 1)
        return; // an unbatched plan forms no batches
    if (telemetry::enabled()) {
        telemetry::histogram("engine.batch.size")
            .record(static_cast<std::uint64_t>(liveMembers));
        // Recorded as a percentage: 100 = every lane carries a
        // request, lower = ciphertext slots idled by a partial batch.
        telemetry::histogram("engine.batch.slot_fill_frac")
            .record(static_cast<std::uint64_t>(
                (100.0 * double(liveMembers)) / double(lanes_)));
        telemetry::histogram("engine.batch.window_wait.ns")
            .record(static_cast<std::uint64_t>(windowWaitSeconds *
                                               1e9));
    }
    std::scoped_lock lock(statsMutex_);
    stats_.batchesExecuted += 1;
    batchOccupancySum_ += double(liveMembers);
    stats_.meanBatchOccupancy =
        batchOccupancySum_ / double(stats_.batchesExecuted);
}

void
InferenceEngine::recordExecuted(const hecnn::InferOutcome &outcome,
                                double queueWaitSeconds,
                                double serviceSeconds)
{
    const double seconds = queueWaitSeconds + serviceSeconds;
    const bool deadlineAbort =
        outcome.degraded() && outcome.failure->op == "deadline";
    if (outcome.degraded())
        FXHENN_TELEM_COUNT("engine.degraded", 1);
    if (deadlineAbort)
        FXHENN_TELEM_COUNT("engine.deadline_expired", 1);
    estimator_.record(serviceSeconds);
    if (telemetry::enabled()) {
        telemetry::histogram("engine.request.ns")
            .record(static_cast<std::uint64_t>(seconds * 1e9));
        telemetry::histogram("engine.queue_wait.ns")
            .record(
                static_cast<std::uint64_t>(queueWaitSeconds * 1e9));
        telemetry::histogram("engine.service.ns")
            .record(static_cast<std::uint64_t>(serviceSeconds * 1e9));
    }
    std::scoped_lock lock(statsMutex_);
    stats_.completed += 1;
    if (outcome.degraded())
        stats_.degraded += 1;
    if (deadlineAbort)
        stats_.deadlineExpired += 1;
    executedCount_ += 1;
    latencySumSeconds_ += seconds;
    queueWaitSumSeconds_ += queueWaitSeconds;
    serviceSumSeconds_ += serviceSeconds;
    stats_.meanLatencySeconds =
        latencySumSeconds_ / double(executedCount_);
    if (executedCount_ == 1) {
        stats_.minLatencySeconds = seconds;
        stats_.maxLatencySeconds = seconds;
    } else {
        stats_.minLatencySeconds =
            std::min(stats_.minLatencySeconds, seconds);
        stats_.maxLatencySeconds =
            std::max(stats_.maxLatencySeconds, seconds);
    }
    if (latencyReservoir_.size() < kLatencyReservoir) {
        latencyReservoir_.push_back(seconds);
    } else {
        latencyReservoir_[latencyNext_] = seconds;
        latencyNext_ = (latencyNext_ + 1) % kLatencyReservoir;
    }
}

hecnn::InferOutcome
InferenceEngine::reject(const char *op, const std::string &reason)
{
    const bool expired = std::string_view(op) == "deadline";
    if (expired)
        FXHENN_TELEM_COUNT("engine.deadline_expired", 1);
    else
        FXHENN_TELEM_COUNT("engine.shed", 1);
    {
        std::scoped_lock lock(statsMutex_);
        stats_.completed += 1;
        if (expired)
            stats_.deadlineExpired += 1;
        else
            stats_.shed += 1;
    }
    hecnn::InferOutcome out;
    out.failure = robustness::FailureReport{"admission", op, reason, {}};
    return out;
}

std::vector<hecnn::InferOutcome>
InferenceEngine::runBatch(const std::vector<nn::Tensor> &inputs,
                          RequestOptions req)
{
    {
        // Same contract as submit(): a shut-down engine rejects new
        // work loudly instead of silently racing the worker teardown.
        std::scoped_lock lock(lifecycleMutex_);
        FXHENN_FATAL_IF(stopped_,
                        "inference engine is shut down and no longer "
                        "accepts requests");
    }
    std::uint64_t base = 0;
    {
        std::scoped_lock lock(statsMutex_);
        base = stats_.submitted;
        stats_.submitted += inputs.size();
    }
    const auto deadline = resolveDeadline(req, Clock::now());
    std::vector<hecnn::InferOutcome> outcomes(inputs.size());
    Timer wall;
    // Consecutive B-groups, so the member composition (and with it the
    // encryption stream) is deterministic regardless of which worker
    // runs which group. With one lane every request is its own group.
    // At most `workers` groups run at once; their limb loops use what
    // the thread budget has left.
    const std::size_t groups = (inputs.size() + lanes_ - 1) / lanes_;
    parallelForWorkers(options_.workers, groups, [&](std::size_t g) {
        const std::size_t lo = g * lanes_;
        const std::size_t hi = std::min(inputs.size(), lo + lanes_);
        std::vector<const nn::Tensor *> members;
        std::vector<std::uint64_t> indices;
        std::vector<std::size_t> positions;
        // Shed-before-formation: breaker and deadline verdicts are per
        // member, so a dead request never occupies a lane.
        for (std::size_t i = lo; i < hi; ++i) {
            const auto start = Clock::now();
            if (!breaker_.admitAt(start)) {
                outcomes[i] = reject(
                    "breaker",
                    "circuit breaker open: request shed before "
                    "execution");
                continue;
            }
            if (deadline && start > *deadline) {
                outcomes[i] = reject(
                    "deadline",
                    "request deadline expired before execution started "
                    "(never executed)");
                continue;
            }
            members.push_back(&inputs[i]);
            indices.push_back(base + i);
            positions.push_back(i);
        }
        if (members.empty())
            return;
        Timer latency;
        auto groupOutcomes = runGroupWithRetry(members, indices, deadline);
        const double serviceSeconds = latency.elapsedSeconds();
        recordBatch(members.size(), 0.0);
        for (std::size_t j = 0; j < positions.size(); ++j) {
            outcomes[positions[j]] = std::move(groupOutcomes[j]);
            recordExecuted(outcomes[positions[j]], 0.0, serviceSeconds);
        }
    });
    const double seconds = wall.elapsedSeconds();
    {
        std::scoped_lock lock(statsMutex_);
        stats_.lastBatchSeconds = seconds;
        stats_.lastBatchRequestsPerSecond =
            seconds > 0.0 ? double(inputs.size()) / seconds : 0.0;
    }
    return outcomes;
}

std::future<hecnn::InferOutcome>
InferenceEngine::submit(nn::Tensor input, RequestOptions req)
{
    startWorkers();
    const auto now = Clock::now();
    Job job;
    job.input = std::move(input);
    job.deadline = resolveDeadline(req, now);
    job.enqueued = now;
    {
        std::scoped_lock lock(statsMutex_);
        job.index = stats_.submitted;
        stats_.submitted += 1;
    }
    auto future = job.promise.get_future();

    // Breaker short-circuit: while open, the engine does not queue
    // work that is overwhelmingly likely to fail — the future resolves
    // immediately with a structured rejection.
    if (!breaker_.admitAt(now)) {
        job.promise.set_value(reject("breaker",
                                 "circuit breaker open: request shed "
                                 "at admission"));
        return future;
    }

    if (options_.admission == AdmissionPolicy::shed) {
        if (job.deadline && now > *job.deadline) {
            job.promise.set_value(reject(
                "deadline",
                "request deadline already expired at admission"));
            return future;
        }
        // SLO-aware fast-fail: with an online service-time estimate,
        // a request predicted to finish after its deadline is shed now
        // instead of wasting queue time and worker cycles. The
        // predicted completion is queue drain (depth ahead of us, over
        // `workers` servers) plus our own service time.
        const double est = estimator_.estimateSeconds();
        if (job.deadline && est > 0.0) {
            const double depth = double(queue_.size());
            const double predicted =
                (depth / double(options_.workers)) * est + est;
            if (now + secondsToDuration(predicted) > *job.deadline) {
                job.promise.set_value(reject(
                    "shed",
                    "predicted completion exceeds deadline "
                    "(EWMA service estimate " +
                        std::to_string(est) + " s, queue depth " +
                        std::to_string(std::size_t(depth)) + ")"));
                return future;
            }
        }
        if (!queue_.tryPush(std::move(job))) {
            FXHENN_FATAL_IF(queue_.closed(),
                            "inference engine is shut down and no "
                            "longer accepts requests");
            job.promise.set_value(reject(
                "shed", "admission queue full (capacity " +
                            std::to_string(queue_.capacity()) + ")"));
            return future;
        }
        return future;
    }

    // block / degrade: backpressure admission. With a deadline the
    // wait is bounded by it — a producer parked past its own SLO is
    // told so and the request is shed, never silently enqueued late.
    if (job.deadline) {
        const auto deadline = *job.deadline;
        const PushResult result = queue_.pushFor(std::move(job),
                                                 deadline);
        if (result == PushResult::accepted)
            return future;
        FXHENN_FATAL_IF(result == PushResult::closed,
                        "inference engine is shut down and no longer "
                        "accepts requests");
        job.promise.set_value(reject(
            "deadline",
            "request deadline expired while waiting for queue room "
            "(never executed)"));
        return future;
    }
    const bool accepted = queue_.push(std::move(job));
    FXHENN_FATAL_IF(!accepted,
                    "inference engine is shut down and no longer "
                    "accepts requests");
    return future;
}

void
InferenceEngine::startWorkers()
{
    std::scoped_lock lock(lifecycleMutex_);
    FXHENN_FATAL_IF(stopped_, "inference engine is shut down");
    if (started_)
        return;
    started_ = true;
    workers_.reserve(options_.workers);
    for (unsigned w = 0; w < options_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

void
InferenceEngine::workerLoop()
{
    Job job;
    while (queue_.pop(job)) {
        // Injected queue delay (a stalled upstream, a slow scheduler
        // tick): the deadline check below runs after it, so the fault
        // deterministically expires short-deadline requests.
        if (auto fault = robustness::fireFault("engine.queue")) {
            const std::uint64_t ms =
                20 * std::max<std::uint64_t>(1, fault->seed);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(ms));
        }
        workerRunWindow(std::move(job));
    }
}

void
InferenceEngine::workerRunWindow(Job head)
{
    // Accumulation window: @p head opens it; collect up to B-1
    // siblings, flushing on B-full or when waiting longer would
    // endanger the head's own SLO (its deadline minus the EWMA
    // service-time estimate).
    const auto opened = Clock::now();
    std::vector<Job> window;
    window.reserve(lanes_);
    window.push_back(std::move(head));
    if (options_.batchWindowSeconds > 0.0 && lanes_ > 1) {
        auto flushAt =
            opened + secondsToDuration(options_.batchWindowSeconds);
        if (window[0].deadline) {
            const auto margin =
                secondsToDuration(estimator_.estimateSeconds());
            const auto latest = *window[0].deadline - margin;
            if (latest < flushAt)
                flushAt = latest;
        }
        if (flushAt > opened)
            queue_.popUpToUntil(window, lanes_ - 1, flushAt);
    }
    const double windowWait =
        std::chrono::duration<double>(Clock::now() - opened).count();

    // Shed expired members BEFORE batch formation: a dead request
    // never occupies a lane, and burning a worker on it would only
    // push the requests behind it past their deadlines too.
    const auto picked = Clock::now();
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < window.size(); ++i) {
        Job &member = window[i];
        if (member.deadline && picked > *member.deadline) {
            const double queueWait =
                std::chrono::duration<double>(picked -
                                              member.enqueued)
                    .count();
            member.promise.set_value(reject(
                "deadline",
                "request deadline expired after " +
                    std::to_string(queueWait) +
                    " s in queue (never executed)"));
            continue;
        }
        live.push_back(i);
    }
    if (live.empty())
        return;

    std::vector<const nn::Tensor *> members;
    std::vector<std::uint64_t> indices;
    std::optional<Clock::time_point> deadline;
    for (const std::size_t i : live) {
        members.push_back(&window[i].input);
        indices.push_back(window[i].index);
        // The shared run honors the tightest member SLO: the executor
        // aborts at the next checkpoint once any member's deadline
        // passes, and every member learns about it honestly.
        if (window[i].deadline &&
            (!deadline || *window[i].deadline < *deadline))
            deadline = window[i].deadline;
    }
    Timer service;
    auto outcomes = runGroupWithRetry(members, indices, deadline);
    const double serviceSeconds = service.elapsedSeconds();
    recordBatch(members.size(), windowWait);
    for (std::size_t j = 0; j < live.size(); ++j) {
        Job &member = window[live[j]];
        const double queueWait =
            std::chrono::duration<double>(picked - member.enqueued)
                .count();
        recordExecuted(outcomes[j], queueWait, serviceSeconds);
        member.promise.set_value(std::move(outcomes[j]));
    }
}

void
InferenceEngine::shutdown()
{
    {
        std::scoped_lock lock(lifecycleMutex_);
        stopped_ = true;
    }
    queue_.close();
    std::vector<std::thread> workers;
    {
        std::scoped_lock lock(lifecycleMutex_);
        workers.swap(workers_);
    }
    for (auto &worker : workers)
        worker.join();
}

EngineStats
InferenceEngine::stats() const
{
    EngineStats snapshot;
    std::vector<double> sample;
    {
        std::scoped_lock lock(statsMutex_);
        snapshot = stats_;
        sample = latencyReservoir_;
        if (executedCount_ > 0) {
            snapshot.meanQueueWaitSeconds =
                queueWaitSumSeconds_ / double(executedCount_);
            snapshot.meanServiceSeconds =
                serviceSumSeconds_ / double(executedCount_);
        }
    }
    snapshot.p50LatencySeconds = percentile(sample, 0.50);
    snapshot.p95LatencySeconds = percentile(sample, 0.95);
    snapshot.p99LatencySeconds = percentile(sample, 0.99);
    snapshot.breakerState = breaker_.state();
    snapshot.breakerOpens = breaker_.opens();
    return snapshot;
}

} // namespace fxhenn::engine
