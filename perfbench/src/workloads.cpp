#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/analysis/pass_manager.hpp"
#include "src/ckks/encoder.hpp"
#include "src/ckks/encryptor.hpp"
#include "src/ckks/evaluator.hpp"
#include "src/ckks/keygen.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/dse/explorer.hpp"
#include "src/engine/inference_engine.hpp"
#include "src/hecnn/backend.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/modarith/modulus.hpp"
#include "src/modarith/ntt.hpp"
#include "src/modarith/primes.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace fxhenn;
using Clock = std::chrono::steady_clock;

namespace {

/** Logit tolerance of the output check (max abs error vs plaintext). */
constexpr double kLogitTolerance = 1e-2;
/** Latency limit of the open-loop capacity search. */
constexpr double kLimitMs = 100.0;
/** Largest fpga-sim replay error a design pass may report. */
constexpr double kMaxReplayError = 0.5;

/** Per-layer metrics, in print order, with their units. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"parallel.calls_per_req", "count"},
    {"parallel.inline_calls_per_req", "count"},
    {"parallel.region_us", "us"},
    {"parallel.threads_spawned_per_req", "count"},
    {"parallel.busy_frac", "frac"},
    {"modarith.ntt_fwd_us", "us"},
    {"modarith.ntts_per_req", "count"},
    {"rns.workspace_miss_frac", "frac"},
    {"ckks.rotate_us", "us"},
    {"ckks.rescale_us", "us"},
    {"ckks.pc_mult_us", "us"},
    {"ckks.relin_us", "us"},
    {"ckks.rotations_per_req", "count"},
    {"ckks.keyswitches_per_req", "count"},
    {"ckks.rescales_per_req", "count"},
    {"ckks.keygen_s", "s"},
    {"hecnn.compile_ms", "ms"},
    {"hecnn.pool_build_ms", "ms"},
    {"hecnn.encrypt_ms", "ms"},
    {"hecnn.execute_ms", "ms"},
    {"hecnn.decrypt_ms", "ms"},
    {"hecnn.layer.Cnv1_ms", "ms"},
    {"hecnn.layer.Act1_ms", "ms"},
    {"hecnn.layer.Fc1_ms", "ms"},
    {"hecnn.layer.Act2_ms", "ms"},
    {"hecnn.layer.Fc2_ms", "ms"},
    {"hecnn.galois_keys", "count"},
    {"hecnn.pool_mib", "MiB"},
    {"hecnn.plan_keyswitches", "count"},
    {"hecnn.plan_hops", "count"},
    {"engine.queue_wait_ms", "ms"},
    {"engine.service_ms", "ms"},
    {"engine.window_wait_ms", "ms"},
    {"engine.batch_occupancy", "count"},
    {"engine.shed", "count"},
    {"engine.generator_lag_ms", "ms"},
    {"analysis.lint_ms", "ms"},
    {"analysis.noise_cert_ms", "ms"},
    {"dse.explore_ms", "ms"},
    {"dse.points_evaluated", "count"},
    {"dse.points_pruned", "count"},
    {"fpga.layer.Cnv1_pred_mcycles", "Mcycles"},
    {"fpga.layer.Act1_pred_mcycles", "Mcycles"},
    {"fpga.layer.Fc1_pred_mcycles", "Mcycles"},
    {"fpga.layer.Act2_pred_mcycles", "Mcycles"},
    {"fpga.layer.Fc2_pred_mcycles", "Mcycles"},
    {"fpga.layer.Cnv2_pred_mcycles", "Mcycles"},
    {"fpga.replay_max_err", "frac"},
};

/** Per-layer values gathered during a traced run (absent = 0). */
using LayerValues = std::map<std::string, double>;

double
msSince(Clock::time_point t0, Clock::time_point t1 = Clock::now())
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

unsigned
engineWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // Linux reports KiB
}

/** Input seed of unit @p index of a run seeded @p seed. */
std::uint64_t
unitSeed(std::uint64_t seed, std::uint64_t index)
{
    return SplitMix(seed * 0x100000001b3ull + index).next();
}

std::string
fmt(double value, int precision = 4)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << value;
    return os.str();
}

std::string
tailNote(const std::string &what, const Tail &tail)
{
    return what + ": tail = p" + fmt(tail.percentile, 1) + " of " +
           std::to_string(tail.samples) + " samples (" +
           std::to_string(tail.beyond) + " beyond) = " +
           fmt(tail.value, 3) + " ms";
}

Outcome
classify(const hecnn::InferOutcome &outcome, const std::vector<double> &want)
{
    if (outcome.failure)
        return outcome.failure->layer == "admission" ? Outcome::shed
                                                     : Outcome::degraded;
    return logitsMatch(outcome.logits, want, kLogitTolerance)
               ? Outcome::ok
               : Outcome::wrong;
}

double
histMean(const std::string &name)
{
    const auto &h = telemetry::histogram(name);
    return h.count() ? double(h.sum()) / double(h.count()) : 0.0;
}

double
counterOf(const std::string &name)
{
    return double(telemetry::counter(name).value());
}

/**
 * Read the stack's own telemetry after a serving phase of @p requests
 * completed requests (telemetry was reset when the phase began).
 */
void
collectServingTelemetry(LayerValues &layer, double requests)
{
    const double per = requests > 0 ? 1.0 / requests : 0.0;
    layer["parallel.calls_per_req"] = counterOf("parallel.calls") * per;
    layer["parallel.inline_calls_per_req"] =
        counterOf("parallel.inline_calls") * per;
    layer["parallel.region_us"] = histMean("parallel.region.ns") / 1e3;
    layer["parallel.threads_spawned_per_req"] =
        counterOf("parallel.threads_spawned") * per;
    const auto &region = telemetry::histogram("parallel.region.ns");
    const double meanHelpers = histMean("parallel.workers_used");
    const double capacityNs = double(region.sum()) * meanHelpers;
    layer["parallel.busy_frac"] =
        capacityNs > 0 ? counterOf("parallel.worker_busy_ns") / capacityNs
                       : 0.0;
    layer["modarith.ntts_per_req"] =
        (counterOf("modarith.ntt.forward") +
         counterOf("modarith.ntt.inverse")) *
        per;
    const double hits = counterOf("rns.workspace.hits");
    const double misses = counterOf("rns.workspace.misses");
    layer["rns.workspace_miss_frac"] =
        hits + misses > 0 ? misses / (hits + misses) : 0.0;
    const double rotations = counterOf("ckks.op.rotate");
    layer["ckks.rotations_per_req"] = rotations * per;
    layer["ckks.keyswitches_per_req"] =
        (rotations + counterOf("ckks.op.relinearize")) * per;
    layer["ckks.rescales_per_req"] = counterOf("ckks.op.rescale") * per;
    layer["hecnn.encrypt_ms"] = histMean("hecnn.client.encrypt.ns") / 1e6;
    layer["hecnn.execute_ms"] = histMean("hecnn.infer.ns") / 1e6;
    layer["hecnn.decrypt_ms"] = histMean("hecnn.client.decrypt.ns") / 1e6;
    for (const char *name : {"Cnv1", "Act1", "Fc1", "Act2", "Fc2"})
        layer[std::string("hecnn.layer.") + name + "_ms"] =
            histMean(std::string("hecnn.layer.") + name + ".ns") / 1e6;
    layer["engine.queue_wait_ms"] = histMean("engine.queue_wait.ns") / 1e6;
    layer["engine.service_ms"] = histMean("engine.service.ns") / 1e6;
    layer["engine.window_wait_ms"] =
        histMean("engine.batch.window_wait.ns") / 1e6;
    layer["engine.batch_occupancy"] = histMean("engine.batch.size");
}

/** The DSE price of one plan on one device, with its fpga-sim replay. */
struct Pricing
{
    double totalMcycles = 0.0;
    double latencyMs = 0.0;
    double replayMaxErr = 0.0;
    double exploreMs = 0.0;
    std::size_t evaluated = 0;
    std::size_t pruned = 0;
    std::map<std::string, double> layerMcycles;
    bool found = false;
};

Pricing
priceFrom(const dse::ExploreResult &result, const fpga::DeviceSpec &device,
          double exploreMs)
{
    Pricing p;
    p.exploreMs = exploreMs;
    p.evaluated = result.evaluated;
    p.pruned = result.pruned;
    p.replayMaxErr = result.simReplayMaxErrorFrac;
    if (result.best) {
        p.found = true;
        p.totalMcycles = result.best->perf.totalCycles / 1e6;
        p.latencyMs = device.seconds(result.best->perf.totalCycles) * 1e3;
        for (const auto &l : result.best->perf.layers)
            p.layerMcycles[l.name] = l.cycles / 1e6;
    }
    return p;
}

Pricing
price(const hecnn::HeNetworkPlan &plan, const fpga::DeviceSpec &device,
      dse::ExploreOptions options)
{
    trace::Scope span("dse.explore");
    options.replaySim = true;
    const auto t0 = Clock::now();
    const auto result = dse::explore(plan, device, options);
    return priceFrom(result, device, msSince(t0));
}

void
recordPricing(LayerValues &layer, const Pricing &p)
{
    layer["dse.explore_ms"] = p.exploreMs;
    layer["dse.points_evaluated"] = double(p.evaluated);
    layer["dse.points_pruned"] = double(p.pruned);
    layer["fpga.replay_max_err"] = p.replayMaxErr;
    for (const auto &[name, mcycles] : p.layerMcycles)
        layer["fpga.layer." + name + "_pred_mcycles"] = mcycles;
}

/** Time the standard lint pipeline and the noise certifier on a plan. */
void
recordAnalysis(LayerValues &layer, const hecnn::HeNetworkPlan &plan)
{
    auto t0 = Clock::now();
    {
        trace::Scope span("analysis.lint");
        analysis::PassManager::standard().run(plan);
    }
    layer["analysis.lint_ms"] = msSince(t0);
    t0 = Clock::now();
    {
        trace::Scope span("analysis.noise_cert");
        hecnn::certifyPlan(plan);
    }
    layer["analysis.noise_cert_ms"] = msSince(t0);
}

template <typename Fn>
double
medianMicros(int reps, Fn &&fn)
{
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        us.push_back(msSince(t0) * 1e3);
    }
    return median(us);
}

/**
 * Bench-timed kernels at the paper's MNIST parameters: a forward NTT at
 * N = 8192 on a 30-bit prime, and single CKKS calls at the top level.
 */
void
probeKernels(LayerValues &layer, std::uint64_t seed)
{
    trace::Scope span("probe.kernels");
    const auto params = ckks::mnistParams();
    {
        const NttTables ntt(params.n,
                            Modulus(generateNttPrimes(30, params.n, 1)[0]));
        Rng rng(seed);
        std::vector<std::uint64_t> a(params.n);
        for (auto &x : a)
            x = rng.uniform(ntt.modulus().value());
        layer["modarith.ntt_fwd_us"] =
            medianMicros(201, [&] { ntt.forward(a); });
    }
    ckks::CkksContext ctx(params);
    Rng rng(seed);
    ckks::KeyGenerator keygen(ctx, rng);
    ckks::Encoder encoder(ctx);
    ckks::Encryptor encryptor(ctx, keygen.makePublicKey(), rng);
    ckks::Evaluator eval(ctx);
    const auto relin = keygen.makeRelinKey();
    const auto galois = keygen.makeGaloisKeys({1});
    std::vector<double> values(ctx.slots(), 0.25);
    const auto pt = encoder.encode(std::span<const double>(values),
                                   params.scale, params.levels);
    const auto ct = encryptor.encrypt(pt);
    const auto sq = eval.mulNoRelin(ct, ct);
    constexpr int kReps = 15;
    layer["ckks.rotate_us"] =
        medianMicros(kReps, [&] { eval.rotate(ct, 1, galois); });
    layer["ckks.rescale_us"] = medianMicros(kReps, [&] { eval.rescale(ct); });
    layer["ckks.pc_mult_us"] =
        medianMicros(kReps, [&] { eval.mulPlain(ct, pt); });
    layer["ckks.relin_us"] =
        medianMicros(kReps, [&] { eval.relinearize(sq, relin); });
}

/** Identity fields every workload shares. */
void
stampIdentity(Result &r, const RunConfig &cfg, const ckks::CkksParams &params,
              unsigned workers, std::size_t lanes)
{
    r.identity = {
        {"workload", cfg.workload},
        {"hardware_threads",
         std::to_string(std::thread::hardware_concurrency())},
        {"pool_threads", std::to_string(threadCount())},
        {"engine_workers", std::to_string(workers)},
        {"batch_lanes", std::to_string(lanes)},
        {"simd", simd::levelName(simd::activeLevel())},
        {"backend", hecnn::resolveBackendName("")},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"n", std::to_string(params.n)},
        {"levels", std::to_string(params.levels)},
        {"seed", std::to_string(cfg.seed)},
        {"seconds", fmt(cfg.seconds, 1)},
    };
}

void
finishPerLayer(Result &r, const LayerValues &layer)
{
    for (const auto &[name, unit] : kPerLayer) {
        const auto it = layer.find(name);
        r.perLayer.push_back(
            {name, it == layer.end() ? 0.0 : it->second, unit});
    }
}

std::vector<double>
flatLogits(const nn::Network &net, const nn::Tensor &input)
{
    return net.forward(input).data();
}

/**
 * Compile + engine construction, timed; the last one is kept. The plan
 * lives on the heap because the engine keeps a reference to it.
 */
struct Served
{
    std::unique_ptr<hecnn::HeNetworkPlan> plan;
    std::unique_ptr<engine::InferenceEngine> engine;
    double setupS = 0.0;
    double compileMs = 0.0;
};

Served
setUpServing(const nn::Network &net, const ckks::CkksContext &ctx,
             std::size_t lanes, const engine::EngineOptions &opts, int reps,
             Result &r)
{
    Served s;
    std::vector<double> setups, compiles;
    for (int i = 0; i < reps; ++i) {
        trace::Scope span("setup");
        s.engine.reset(); // one engine alive at a time
        const auto t0 = Clock::now();
        hecnn::CompileOptions copts;
        copts.batchLanes = lanes;
        {
            trace::Scope c("hecnn.compile", span.id());
            s.plan = std::make_unique<hecnn::HeNetworkPlan>(
                hecnn::compile(net, ctx.params(), copts));
        }
        compiles.push_back(msSince(t0));
        {
            trace::Scope e("engine.construct", span.id());
            s.engine =
                std::make_unique<engine::InferenceEngine>(*s.plan, ctx, opts);
        }
        setups.push_back(msSince(t0) / 1e3);
    }
    s.setupS = median(setups);
    s.compileMs = median(compiles);
    r.notes.push_back("setup: compile + engine construction, median of " +
                      std::to_string(reps) + " = " + fmt(s.setupS) + " s");
    return s;
}

/** Serving-side per-layer values that do not need telemetry. */
void
recordServingStatic(LayerValues &layer, const Served &s,
                    const ckks::CkksContext &ctx, std::uint64_t seed)
{
    layer["hecnn.compile_ms"] = s.compileMs;
    layer["hecnn.galois_keys"] = double(s.engine->session().galoisKeyCount());
    layer["hecnn.pool_mib"] =
        double(s.engine->plaintextPool().bytes()) / double(1 << 20);
    const auto counts = s.plan->totalCounts();
    layer["hecnn.plan_keyswitches"] = double(counts.keySwitch());
    layer["hecnn.plan_hops"] = double(counts.total());
    layer["engine.shed"] = double(s.engine->stats().shed); // whole run
    const auto t0 = Clock::now();
    {
        trace::Scope span("client_session.construct");
        hecnn::ClientSession session(*s.plan, ctx, seed);
    }
    layer["ckks.keygen_s"] = msSince(t0) / 1e3;
}

// ---------------------------------------------------------------- mnist

Result
runMnistPaper(const RunConfig &cfg)
{
    Result r;
    LayerValues layer;
    const auto net = nn::buildMnistNetwork();
    const auto params = ckks::mnistParams();
    const ckks::CkksContext ctx(params);
    engine::EngineOptions opts;
    opts.workers = engineWorkers();
    opts.keySeed = cfg.seed;

    Served s = setUpServing(net, ctx, 1, opts, 3, r);
    if (cfg.trace)
        layer["hecnn.pool_build_ms"] =
            histMean("hecnn.plaintext_pool.build.ns") / 1e6;
    stampIdentity(r, cfg, params, opts.workers, 1);
    const Pricing pricing = price(*s.plan, fpga::acu9eg(), {});

    // (a) one client, closed loop over submit(): the engine worker runs
    // the limb loops inline.
    const double closedS = 0.75 * cfg.seconds;
    if (cfg.trace)
        telemetry::reset();
    std::vector<double> latMs;
    std::vector<nn::Tensor> inputs;
    std::vector<std::vector<double>> wants;
    const auto phaseStart = Clock::now();
    double busyMs = 0.0;
    // Stop on a whole number of worker waves so that phase (b) never
    // ends on a partly idle wave.
    for (std::uint64_t i = 0; msSince(phaseStart) < closedS * 1e3 ||
                              inputs.size() % opts.workers != 0;
         ++i) {
        inputs.push_back(nn::syntheticInput(net, unitSeed(cfg.seed, i)));
        wants.push_back(flatLogits(net, inputs.back()));
        const std::uint64_t req = i + 1;
        trace::Scope span("request", 0, req);
        const auto t0 = Clock::now();
        std::future<hecnn::InferOutcome> fut;
        {
            trace::Scope sub("engine.submit", span.id(), req);
            fut = s.engine->submit(inputs.back());
        }
        hecnn::InferOutcome out;
        {
            trace::Scope wait("future.get", span.id(), req);
            out = fut.get();
        }
        const double ms = msSince(t0);
        busyMs += ms;
        latMs.push_back(ms);
        r.tally.add(classify(out, wants.back()));
    }
    if (cfg.trace)
        collectServingTelemetry(layer, double(latMs.size()));
    const double p50 = median(latMs);
    const Tail tail = tailOf(latMs);
    r.notes.push_back("phase (a) closed loop, 1 client over submit(): " +
                      std::to_string(latMs.size()) + " requests, p50 " +
                      fmt(p50, 3) + " ms");
    r.notes.push_back(tailNote("phase (a)", tail));

    // (b) offline runBatch() of the same request count: the engine
    // workers each run whole requests.
    double batchS = 0.0;
    {
        trace::Scope span("engine.runBatch");
        const auto t0 = Clock::now();
        const auto outs = s.engine->runBatch(inputs);
        batchS = msSince(t0) / 1e3;
        for (std::size_t i = 0; i < outs.size(); ++i)
            r.tally.add(classify(outs[i], wants[i]));
    }
    const double throughput = double(inputs.size()) / batchS;
    r.notes.push_back("phase (b) runBatch of " +
                      std::to_string(inputs.size()) + " requests on " +
                      std::to_string(opts.workers) + " workers: " +
                      fmt(batchS, 3) + " s");

    if (cfg.trace) {
        recordServingStatic(layer, s, ctx, cfg.seed);
        recordAnalysis(layer, *s.plan);
        recordPricing(layer, pricing);
        probeKernels(layer, cfg.seed);
        const double sum = layer["hecnn.encrypt_ms"] +
                           layer["hecnn.execute_ms"] +
                           layer["hecnn.decrypt_ms"] +
                           layer["engine.queue_wait_ms"];
        r.notes.push_back(
            "accounting: encrypt + execute + decrypt + queue wait = " +
            fmt(sum, 3) + " ms vs traced latency_p50 " + fmt(p50, 3) +
            " ms (" + fmt(100.0 * (sum - p50) / p50, 1) + "%)");
        finishPerLayer(r, layer);
    }
    r.endToEnd = {
        {"setup_s", s.setupS, "s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_tail_ms", tail.value, "ms"},
        {"throughput_rps", throughput, "1/s"},
        {"capacity_rps", 1e3 * double(latMs.size()) / busyMs, "1/s"},
        {"success_frac", 1.0 - r.tally.failedFrac(), "frac"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"fpga_pred_mcycles", pricing.totalMcycles, "Mcycles"},
    };
    r.notes.push_back("fpga: FxHENN-MNIST on ACU9EG predicted " +
                      fmt(pricing.latencyMs, 3) + " ms");
    return r;
}

// ---------------------------------------------------------------- test5l

/** Inputs of the open-loop workload and their plaintext references. */
struct InputPool
{
    std::vector<nn::Tensor> inputs;
    std::vector<std::vector<double>> wants;
};

/** What one open-loop episode measured. */
struct OpenLoop
{
    std::vector<double> latMs; ///< ok requests, from their scheduled send
    std::vector<double> lagMs; ///< send time minus scheduled time
    Tally tally;
    std::size_t backlogAtEnd = 0;
    double offered = 0.0; ///< realized rate: requests scheduled / duration
};

/**
 * One generator thread (the caller) sends a seeded Poisson schedule at
 * @p rate for @p durationS into submit() and polls the futures between
 * sends; each request is timed from its scheduled send, so a stall of
 * the generator or of submit() back-pressure counts against every
 * request it delays. Unfinished requests after the drain count as
 * failed.
 */
OpenLoop
runOpenLoop(engine::InferenceEngine &eng, const InputPool &pool, double rate,
            double durationS, std::uint64_t scheduleSeed,
            std::uint64_t &nextRequest)
{
    struct Pending
    {
        std::size_t input;
        std::uint64_t request;
        std::uint64_t span; ///< id of the request's root span (0 untraced)
        Clock::time_point due;
        std::future<hecnn::InferOutcome> fut;
    };
    OpenLoop ol;
    const auto offsets = poissonSchedule(scheduleSeed, rate, durationS);
    ol.offered = double(offsets.size()) / durationS;
    std::vector<Pending> pending;
    pending.reserve(256);
    const auto poll = [&] {
        for (std::size_t i = 0; i < pending.size();) {
            Pending &p = pending[i];
            if (p.fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++i;
                continue;
            }
            const auto done = Clock::now();
            const Outcome o = classify(p.fut.get(), pool.wants[p.input]);
            ol.tally.add(o);
            if (o == Outcome::ok)
                ol.latMs.push_back(msSince(p.due, done));
            if (p.span)
                trace::recordWithId(p.span, "request", p.due, done, 0,
                                    p.request);
            pending[i] = std::move(pending.back());
            pending.pop_back();
        }
    };
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (const double offset : offsets) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset));
        while (Clock::now() < due) {
            poll();
            if (due - Clock::now() > std::chrono::microseconds(300))
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        const std::uint64_t req = ++nextRequest;
        const std::size_t input = req % pool.inputs.size();
        const auto sent = Clock::now();
        ol.lagMs.push_back(msSince(due, sent));
        auto fut = eng.submit(pool.inputs[input]);
        const std::uint64_t span = trace::enabled() ? trace::reserveId() : 0;
        trace::record("engine.submit", sent, Clock::now(), span, req);
        pending.push_back({input, req, span, due, std::move(fut)});
    }
    poll();
    ol.backlogAtEnd = pending.size();
    const auto drainUntil = Clock::now() + std::chrono::seconds(10);
    while (!pending.empty() && Clock::now() < drainUntil) {
        poll();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (std::size_t i = 0; i < pending.size(); ++i)
        ol.tally.add(Outcome::failed);
    // Requests still pending past the drain keep their futures; wait so
    // no outcome outlives the episode that judged it.
    for (auto &p : pending)
        p.fut.wait();
    return ol;
}

Result
runTest5lOpen(const RunConfig &cfg)
{
    Result r;
    LayerValues layer;
    constexpr std::size_t kLanes = 16;
    constexpr double kNominalRate = 600.0;
    constexpr double kCapacityHi = 3000.0;
    constexpr int kBisectSteps = 7;
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const ckks::CkksContext ctx(params);
    engine::EngineOptions opts;
    opts.workers = engineWorkers();
    opts.keySeed = cfg.seed;

    Served s = setUpServing(net, ctx, kLanes, opts, 5, r);
    if (cfg.trace)
        layer["hecnn.pool_build_ms"] =
            histMean("hecnn.plaintext_pool.build.ns") / 1e6;
    stampIdentity(r, cfg, params, opts.workers, kLanes);
    const Pricing pricing = price(*s.plan, fpga::acu9eg(), {});

    InputPool pool;
    for (std::uint64_t i = 0; i < 256; ++i) {
        pool.inputs.push_back(nn::syntheticInput(net, unitSeed(cfg.seed, i)));
        pool.wants.push_back(flatLogits(net, pool.inputs.back()));
    }
    std::uint64_t nextRequest = 0;
    auto &eng = *s.engine;

    // Nominal rate.
    if (cfg.trace)
        telemetry::reset();
    OpenLoop nominal;
    {
        trace::Scope span("phase.nominal");
        nominal = runOpenLoop(eng, pool, kNominalRate, 0.3 * cfg.seconds,
                              unitSeed(cfg.seed, 1u << 20), nextRequest);
    }
    r.tally.merge(nominal.tally);
    const double p50 = median(nominal.latMs);
    const Tail tail = tailOf(nominal.latMs);
    const StepVerdict nominalVerdict =
        judgeStep(nominal.latMs, nominal.tally.missed(),
                  nominal.backlogAtEnd, kNominalRate, kLimitMs, kLanes);
    if (cfg.trace) {
        collectServingTelemetry(layer, double(nominal.latMs.size()));
        layer["engine.generator_lag_ms"] = tailOf(nominal.lagMs).value;
    }
    r.notes.push_back("nominal open loop at " + fmt(kNominalRate, 0) +
                      " req/s: " + std::to_string(nominal.tally.attempted) +
                      " requests, p50 " + fmt(p50, 3) + " ms, " +
                      (nominalVerdict.pass ? "meets" : "misses") +
                      " the 100 ms limit");
    r.notes.push_back(tailNote("nominal", tail));
    r.notes.push_back(tailNote("nominal generator lag", tailOf(nominal.lagMs)));

    // Fixed-step capacity bisection. Each probe is a fresh open loop from
    // an empty queue. A failed probe is retried once with a fresh
    // schedule: a rate above the knee grows a backlog and fails both,
    // while a below-knee rate that lost its tail to one transient host
    // stall passes the retry. The nominal phase gets the same second
    // chance before it is trusted as the lower bound. The capacity
    // reported is the rate the highest passing probe actually offered
    // (its Poisson draw), not the grid point.
    const double stepS =
        std::max(0.5, 0.5 * cfg.seconds / (kBisectSteps + 4) - 0.1);
    int probeCount = 0;
    double capacity = nominalVerdict.pass ? nominal.offered : 0.0;
    const auto probe = [&](double rate) {
        for (int attempt = 0; attempt < 2; ++attempt) {
            trace::Scope span("phase.capacity_probe");
            const OpenLoop ol = runOpenLoop(
                eng, pool, rate, stepS,
                unitSeed(cfg.seed, (2u << 20) + probeCount++), nextRequest);
            r.tally.merge(ol.tally);
            const StepVerdict v = judgeStep(ol.latMs, ol.tally.missed(),
                                            ol.backlogAtEnd, rate, kLimitMs,
                                            kLanes);
            r.notes.push_back(
                "capacity probe " + std::to_string(probeCount) + ": " +
                fmt(rate, 1) + " req/s, tail p" + fmt(v.tail.percentile, 1) +
                " " + fmt(v.tail.value, 2) + " ms, backlog " +
                std::to_string(ol.backlogAtEnd) + "/" +
                std::to_string(v.backlogLimit) + " -> " +
                (v.pass ? "pass" : "fail"));
            if (v.pass) {
                capacity = ol.offered;
                return true;
            }
        }
        return false;
    };
    const bool nominalHolds = nominalVerdict.pass || probe(kNominalRate);
    bisectCapacity(nominalHolds ? kNominalRate : 0.0,
                   nominalHolds ? kCapacityHi : kNominalRate, kBisectSteps,
                   probe);

    // Saturated offline batches.
    std::vector<double> rates;
    {
        trace::Scope span("phase.saturated");
        std::vector<nn::Tensor> batch;
        std::vector<std::size_t> which;
        for (std::size_t i = 0; i < 60 * kLanes; ++i) {
            which.push_back((i * 7 + 3) % pool.inputs.size());
            batch.push_back(pool.inputs[which.back()]);
        }
        const auto phaseStart = Clock::now();
        while (rates.size() < 3 ||
               msSince(phaseStart) < 0.2 * cfg.seconds * 1e3) {
            trace::Scope call("engine.runBatch", span.id());
            const auto t0 = Clock::now();
            const auto outs = eng.runBatch(batch);
            rates.push_back(double(batch.size()) / (msSince(t0) / 1e3));
            for (std::size_t i = 0; i < outs.size(); ++i)
                r.tally.add(classify(outs[i], pool.wants[which[i]]));
        }
    }
    r.notes.push_back("saturated runBatch: median of " +
                      std::to_string(rates.size()) + " calls of " +
                      std::to_string(60 * kLanes) + " requests");

    if (cfg.trace) {
        recordServingStatic(layer, s, ctx, cfg.seed);
        recordAnalysis(layer, *s.plan);
        recordPricing(layer, pricing);
        probeKernels(layer, cfg.seed);
        finishPerLayer(r, layer);
    }
    r.endToEnd = {
        {"setup_s", s.setupS, "s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_tail_ms", tail.value, "ms"},
        {"throughput_rps", median(rates), "1/s"},
        {"capacity_rps", capacity, "1/s"},
        {"success_frac", 1.0 - r.tally.failedFrac(), "frac"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"fpga_pred_mcycles", pricing.totalMcycles, "Mcycles"},
    };
    r.notes.push_back("fpga: Test-5L on ACU9EG predicted " +
                      fmt(pricing.latencyMs, 3) + " ms");
    return r;
}

// ---------------------------------------------------------------- design

/** Timings and verdict of one design pass. */
struct DesignPass
{
    double totalMs = 0.0;
    double compileMs = 0.0;
    double lintMs = 0.0;
    double certMs = 0.0;
    Pricing pricing;
    bool ok = false;
    std::string why;
};

DesignPass
designPass(const nn::Network &net, std::uint64_t unit)
{
    DesignPass d;
    trace::Scope span("design.pass", 0, unit);
    const auto t0 = Clock::now();
    hecnn::CompileOptions copts;
    copts.elideValues = true;
    hecnn::HeNetworkPlan plan;
    {
        trace::Scope s("hecnn.compile", span.id(), unit);
        plan = hecnn::compile(net, ckks::cifar10Params(), copts);
    }
    auto t1 = Clock::now();
    d.compileMs = msSince(t0, t1);
    std::size_t lintErrors = 0;
    {
        trace::Scope s("analysis.lint", span.id(), unit);
        lintErrors = analysis::PassManager::standard().run(plan).errorCount();
    }
    auto t2 = Clock::now();
    d.lintMs = msSince(t1, t2);
    hecnn::NoiseCertificate cert;
    {
        trace::Scope s("analysis.noise_cert", span.id(), unit);
        cert = hecnn::certifyPlan(plan);
    }
    auto t3 = Clock::now();
    d.certMs = msSince(t2, t3);
    dse::ExploreOptions eopts;
    eopts.livenessBuffers = true;
    eopts.certifyNoise = true;
    eopts.replaySim = true;
    const auto device = fpga::acu15eg();
    dse::ExploreResult result;
    {
        trace::Scope s("dse.explore", span.id(), unit);
        result = dse::explore(plan, device, eopts);
    }
    const auto t4 = Clock::now();
    d.pricing = priceFrom(result, device, msSince(t3, t4));
    d.totalMs = msSince(t0, t4);
    if (!d.pricing.found)
        d.why = "no feasible design point";
    else if (!cert.certified())
        d.why = "noise certificate not certified";
    else if (d.pricing.replayMaxErr > kMaxReplayError)
        d.why = "fpga-sim replay error " + fmt(d.pricing.replayMaxErr);
    else if (lintErrors)
        d.why = std::to_string(lintErrors) + " lint error(s)";
    d.ok = d.why.empty();
    return d;
}

Result
runDesignCifar10(const RunConfig &cfg)
{
    Result r;
    LayerValues layer;
    // The design flow's input is the network itself: its synthetic
    // weights are drawn from the seed.
    const std::uint64_t netSeed = unitSeed(cfg.seed, 0);
    std::vector<double> setups;
    DesignPass first;
    for (int i = 0; i < 3; ++i) {
        trace::Scope span("setup");
        const auto t0 = Clock::now();
        const auto net = nn::buildCifar10Network(netSeed);
        first = designPass(net, 0);
        setups.push_back(msSince(t0) / 1e3);
    }
    const auto params = ckks::cifar10Params();
    stampIdentity(r, cfg, params, 0, 1);
    const auto net = nn::buildCifar10Network(netSeed);

    if (cfg.trace)
        telemetry::reset();
    std::vector<double> passMs, compileMs, lintMs, certMs, exploreMs;
    const auto phaseStart = Clock::now();
    for (std::uint64_t unit = 1; msSince(phaseStart) < cfg.seconds * 1e3;
         ++unit) {
        const DesignPass d = designPass(net, unit);
        r.tally.add(d.ok ? Outcome::ok : Outcome::wrong);
        if (!d.ok)
            r.notes.push_back("design pass " + std::to_string(unit) +
                              " failed: " + d.why);
        passMs.push_back(d.totalMs);
        compileMs.push_back(d.compileMs);
        lintMs.push_back(d.lintMs);
        certMs.push_back(d.certMs);
        exploreMs.push_back(d.pricing.exploreMs);
    }
    const double loopS = msSince(phaseStart) / 1e3;
    const double p50 = median(passMs);
    const Tail tail = tailOf(passMs);
    r.notes.push_back("closed loop: " + std::to_string(passMs.size()) +
                      " design passes, p50 " + fmt(p50, 3) + " ms");
    r.notes.push_back(tailNote("design pass", tail));

    if (cfg.trace) {
        layer["hecnn.compile_ms"] = median(compileMs);
        layer["analysis.lint_ms"] = median(lintMs);
        layer["analysis.noise_cert_ms"] = median(certMs);
        recordPricing(layer, first.pricing);
        layer["dse.explore_ms"] = median(exploreMs);
        hecnn::CompileOptions copts;
        copts.elideValues = true;
        const auto counts =
            hecnn::compile(net, params, copts).totalCounts();
        layer["hecnn.plan_keyswitches"] = double(counts.keySwitch());
        layer["hecnn.plan_hops"] = double(counts.total());
        probeKernels(layer, cfg.seed);
        finishPerLayer(r, layer);
    }
    const double rate = double(passMs.size()) / loopS;
    r.endToEnd = {
        {"setup_s", median(setups), "s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_tail_ms", tail.value, "ms"},
        {"throughput_rps", rate, "1/s"},
        {"capacity_rps", rate, "1/s"},
        {"success_frac", 1.0 - r.tally.failedFrac(), "frac"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"fpga_pred_mcycles", first.pricing.totalMcycles, "Mcycles"},
    };
    r.notes.push_back("fpga: FxHENN-CIFAR10 on ACU15EG predicted " +
                      fmt(first.pricing.latencyMs, 1) + " ms");
    return r;
}

} // namespace

Result
runWorkload(const RunConfig &config)
{
    if (config.workload == "mnist-paper")
        return runMnistPaper(config);
    if (config.workload == "test5l-open")
        return runTest5lOpen(config);
    if (config.workload == "design-cifar10")
        return runDesignCifar10(config);
    throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

} // namespace perfbench
