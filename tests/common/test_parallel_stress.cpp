/**
 * Thread-safety stress for the shared pool + telemetry registry.
 *
 * These tests are value-checked under every build, but their real
 * purpose is the tsan preset (cmake --preset tsan): many workers
 * hammering the same counters, histograms and registry lookups is
 * exactly the interleaving a data race needs to surface.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/parallel.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn {
namespace {

class ParallelStress : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = threadCount();
        telemetry::setEnabled(true);
        telemetry::reset();
    }

    void
    TearDown() override
    {
        telemetry::setEnabled(false);
        setThreadCount(saved_);
    }

    unsigned saved_ = 1;
};

TEST_F(ParallelStress, ConcurrentCounterUpdatesAreExact)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    setThreadCount(8);
    constexpr std::size_t kIters = 20000;
    auto &hits = telemetry::counter("stress.parallel.hits");
    parallelFor(kIters, [&](std::size_t i) {
        hits.add(1);
        // Exercise the macro path too: registry lookup + cached ref.
        FXHENN_TELEM_COUNT("stress.parallel.macro", i % 2);
    });
    EXPECT_EQ(hits.value(), kIters);
    EXPECT_EQ(telemetry::counter("stress.parallel.macro").value(),
              kIters / 2);
}

TEST_F(ParallelStress, ConcurrentHistogramRecordsLoseNothing)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    setThreadCount(8);
    constexpr std::size_t kIters = 20000;
    auto &hist = telemetry::histogram("stress.parallel.hist");
    parallelFor(kIters, [&](std::size_t i) {
        hist.record(static_cast<std::uint64_t>(i & 0xff));
    });
    EXPECT_EQ(hist.count(), kIters);
    EXPECT_EQ(hist.max(), 255u);
    EXPECT_EQ(hist.min(), 0u);
    std::uint64_t bucketed = 0;
    for (std::size_t b = 0; b < telemetry::Histogram::kBuckets; ++b)
        bucketed += hist.bucket(b);
    EXPECT_EQ(bucketed, kIters);
}

TEST_F(ParallelStress, ConcurrentRegistryLookupsYieldOneMetric)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    setThreadCount(8);
    // Every worker resolves the same names for the first time at once;
    // the registry must hand all of them the same instances.
    parallelFor(512, [](std::size_t i) {
        telemetry::counter("stress.registry.shared").add(1);
        telemetry::histogram("stress.registry.hist").record(i);
        telemetry::counter("stress.registry.per" + std::to_string(i % 7))
            .add(1);
    });
    EXPECT_EQ(telemetry::counter("stress.registry.shared").value(), 512u);
    EXPECT_EQ(telemetry::histogram("stress.registry.hist").count(), 512u);
}

TEST_F(ParallelStress, NestedParallelForTerminatesWithoutDeadlock)
{
    setThreadCount(4);
    std::atomic<std::uint64_t> total{0};
    parallelFor(16, [&](std::size_t) {
        parallelFor(16, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 256u);
}

TEST_F(ParallelStress, SerialAndParallelAgree)
{
    constexpr std::size_t kIters = 4096;
    auto run = [&] {
        std::atomic<std::uint64_t> sum{0};
        parallelFor(kIters, [&](std::size_t i) {
            sum.fetch_add(i * i, std::memory_order_relaxed);
        });
        return sum.load();
    };
    setThreadCount(1);
    const std::uint64_t serial = run();
    setThreadCount(8);
    EXPECT_EQ(run(), serial);
}

} // namespace
} // namespace fxhenn
