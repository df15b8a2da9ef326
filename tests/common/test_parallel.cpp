#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/runtime.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn {
namespace {

TEST(Parallel, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ZeroCountIsNoOp)
{
    bool ran = false;
    parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(Parallel, SerialModeMatchesParallelResults)
{
    auto compute = [](std::vector<double> &out) {
        parallelFor(out.size(), [&](std::size_t i) {
            double acc = 0.0;
            for (int k = 0; k < 100; ++k)
                acc += static_cast<double>(i * k % 17);
            out[i] = acc;
        });
    };
    std::vector<double> parallel_out(256), serial_out(256);
    const unsigned original = threadCount();
    compute(parallel_out);
    setThreadCount(1);
    compute(serial_out);
    setThreadCount(original);
    EXPECT_EQ(parallel_out, serial_out);
}

/** Nested loops two deep; every inner item runs exactly once. */
void
expectNestedLoopsTerminate()
{
    std::atomic<int> total{0};
    parallelFor(8, [&](std::size_t) {
        parallelFor(8, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

/** Restores the thread budget a test changes. */
class BudgetGuard
{
  public:
    explicit BudgetGuard(unsigned budget) { setThreadCount(budget); }
    ~BudgetGuard() { setThreadCount(saved_); }
    BudgetGuard(const BudgetGuard &) = delete;
    BudgetGuard &operator=(const BudgetGuard &) = delete;

  private:
    unsigned saved_ = threadCount();
};

/**
 * Run fn on a pool helper: the caller's own item of a two-item loop
 * waits until the other item has started on another thread. Returns
 * false when no helper showed up within the timeout.
 */
bool
runOnHelper(const std::function<void()> &fn)
{
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> started{false};
    bool ranOnHelper = false;
    parallelFor(2, [&](std::size_t) {
        if (std::this_thread::get_id() != caller) {
            started.store(true);
            ranOnHelper = true;
            fn();
            return;
        }
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!started.load() && std::chrono::steady_clock::now() < until)
            std::this_thread::yield();
    });
    return ranOnHelper;
}

TEST(Parallel, NestedCallsTerminate)
{
    const BudgetGuard budget(4);
    expectNestedLoopsTerminate();
    // From a pool helper, and from a thread counted against the budget
    // the way an engine worker is while it serves a request.
    EXPECT_TRUE(runOnHelper(expectNestedLoopsTerminate));
    std::thread worker([] {
        const BudgetClaim busy;
        expectNestedLoopsTerminate();
    });
    worker.join();
}

TEST(Parallel, ExceptionsPropagate)
{
    EXPECT_THROW(parallelFor(16,
                             [](std::size_t i) {
                                 if (i == 7)
                                     throw ConfigError("boom");
                             }),
                 ConfigError);
}

TEST(Parallel, ExceptionOnAHelperReachesTheCallerAndThePoolStaysUsable)
{
    const BudgetGuard budget(4);
    EXPECT_THROW(
        {
            const bool onHelper =
                runOnHelper([] { throw ConfigError("helper boom"); });
            ADD_FAILURE() << "no exception; ran on helper: " << onHelper;
        },
        ConfigError);
    std::vector<std::size_t> out(256);
    parallelFor(out.size(), [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(Parallel, ConcurrentCallersEachGetExactResults)
{
    const BudgetGuard budget(4);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kRounds = 200;
    std::vector<std::uint64_t> mismatches(kCallers, 0);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (std::size_t round = 0; round < kRounds; ++round) {
                std::vector<std::uint64_t> out(64, 0);
                parallelFor(out.size(), [&](std::size_t i) {
                    out[i] = (c + 1) * 1000003 + round * 64 + i;
                });
                for (std::size_t i = 0; i < out.size(); ++i)
                    mismatches[c] +=
                        out[i] != (c + 1) * 1000003 + round * 64 + i;
            }
        });
    }
    for (auto &t : callers)
        t.join();
    for (std::size_t c = 0; c < kCallers; ++c)
        EXPECT_EQ(mismatches[c], 0u) << "caller " << c;
}

TEST(Parallel, HelpersAreCreatedOnceAndTelemetryKeepsItsMeaning)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    const BudgetGuard budget(4);
    // The first call may create the helpers; no later one creates any.
    parallelFor(8, [](std::size_t) {});
    telemetry::setEnabled(true);
    telemetry::reset();
    constexpr std::size_t kCalls = 1000;
    constexpr std::size_t kItems = 8;
    for (std::size_t call = 0; call < kCalls; ++call) {
        parallelFor(kItems, [](std::size_t) {
            // About 20 us of work, so helpers can take part.
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::microseconds(20);
            while (std::chrono::steady_clock::now() < until) {
            }
        });
    }
    const auto count = [](const char *name) {
        return telemetry::counter(name).value();
    };
    const auto &region = telemetry::histogram("parallel.region.ns");
    const auto &used = telemetry::histogram("parallel.workers_used");
    const double busyNs = double(count("parallel.worker_busy_ns"));
    const double meanUsed =
        used.count() ? double(used.sum()) / double(used.count()) : 0.0;
    const double busyFrac = busyNs / (double(region.sum()) * meanUsed);
    telemetry::setEnabled(false);

    EXPECT_EQ(count("parallel.threads_spawned"), 0u);
    // A region is one fanned-out call; every call is one or the other.
    EXPECT_EQ(count("parallel.calls") + count("parallel.inline_calls"),
              kCalls);
    EXPECT_EQ(count("parallel.items"), kCalls * kItems);
    ASSERT_GT(count("parallel.calls"), 0u);
    EXPECT_EQ(region.count(), count("parallel.calls"));
    EXPECT_EQ(used.count(), count("parallel.calls"));
    EXPECT_GE(used.min(), 1u);
    EXPECT_LE(used.max(), 4u);
    // The share of the regions' thread time spent running items.
    EXPECT_GT(busyFrac, 0.0);
    EXPECT_LE(busyFrac, 1.0);
}

TEST(Parallel, EncryptedInferenceIsThreadCountInvariant)
{
    // The pool only distributes work across RNS limbs — it must never
    // change results. Same seeds, thread count 1 vs 8: the ciphertext
    // polynomials coming out of the HE pipeline must be bit-identical,
    // and so must every decrypted logit.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = hecnn::compile(net, params);
    const nn::Tensor input = nn::syntheticInput(net, 77);

    // Both runs share one context: RnsPoly::operator== includes basis
    // identity, so comparing ciphertexts only makes sense within a
    // single basis instance.
    ckks::CkksContext ctx(params);
    ckks::CkksContext ctx2(params);

    auto runOnce = [&](unsigned threads, ckks::Ciphertext &lastCt) {
        setThreadCount(threads);
        // A standalone kernel chain, checked at the ciphertext level.
        Rng rng(42);
        ckks::KeyGenerator keygen(ctx2, rng);
        ckks::Encoder encoder(ctx2);
        ckks::Encryptor encryptor(ctx2, keygen.makePublicKey(), rng);
        ckks::Evaluator evaluator(ctx2);
        const auto relin = keygen.makeRelinKey();
        const auto galois = keygen.makeGaloisKeys({1, 3});
        std::vector<double> v(ctx2.slots(), 0.125);
        const auto pt = encoder.encode(std::span<const double>(v),
                                       ctx2.params().scale, 7);
        auto ct = encryptor.encrypt(pt);
        ct = evaluator.mulPlain(ct, pt);
        evaluator.rescaleInplace(ct);
        ct = evaluator.relinearize(evaluator.mulNoRelin(ct, ct), relin);
        evaluator.rescaleInplace(ct);
        ct = evaluator.rotate(ct, 3, galois);
        lastCt = ct;
        // And the full runtime path, checked at the logit level.
        hecnn::Runtime runtime(plan, ctx, /*seed=*/9);
        return runtime.infer(input);
    };

    const unsigned original = threadCount();
    ckks::Ciphertext serialCt, parallelCt;
    const auto serialLogits = runOnce(1, serialCt);
    const auto parallelLogits = runOnce(8, parallelCt);
    setThreadCount(original);

    ASSERT_EQ(serialCt.parts.size(), parallelCt.parts.size());
    EXPECT_EQ(serialCt.scale, parallelCt.scale);
    for (std::size_t k = 0; k < serialCt.parts.size(); ++k)
        EXPECT_TRUE(serialCt.parts[k] == parallelCt.parts[k])
            << "ciphertext part " << k
            << " differs between serial and parallel execution";
    ASSERT_EQ(serialLogits.size(), parallelLogits.size());
    for (std::size_t i = 0; i < serialLogits.size(); ++i)
        EXPECT_EQ(serialLogits[i], parallelLogits[i])
            << "logit " << i << " is not bit-identical";
}

TEST(Parallel, ThreadCountIsConfigurable)
{
    const unsigned original = threadCount();
    setThreadCount(3);
    EXPECT_EQ(threadCount(), 3u);
    setThreadCount(0); // clamps to 1
    EXPECT_EQ(threadCount(), 1u);
    setThreadCount(original);
}

} // namespace
} // namespace fxhenn
