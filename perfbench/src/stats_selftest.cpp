/**
 * @file
 * Self-test of the benchmark's statistics helpers (stats.hpp): the tail
 * percentile rule, outcome accounting, the logit check, the Poisson
 * schedule, the step verdict and the capacity bisection against a
 * synthetic fixed-service-time server whose knee is known.
 *
 * Exits 0 when every check holds, 1 otherwise. run.py runs it after each
 * build, before any workload.
 */
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                          \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::fprintf(stderr, "selftest: %s:%d: %s\n", __FILE__, __LINE__, \
                         #cond);                                             \
            ++g_failures;                                                    \
        }                                                                    \
    } while (0)

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // descending: tailOf must sort
        v.push_back(double(i));
    return v;
}

void
testTailRule()
{
    const Tail t100 = tailOf(ramp(100));
    CHECK(t100.samples == 100 && t100.beyond == 10);
    CHECK(t100.percentile == 90.0 && t100.value == 90.0);

    const Tail t1000 = tailOf(ramp(1000));
    CHECK(t1000.percentile == 99.0 && t1000.value == 990.0);
    CHECK(t1000.beyond == kTailSupport);

    const Tail t25 = tailOf(ramp(25));
    CHECK(t25.percentile == 60.0 && t25.value == 15.0 && t25.beyond == 10);

    // Exactly 2 * support samples: the tail rank is the median rank.
    const Tail t20 = tailOf(ramp(20));
    CHECK(t20.percentile == 50.0 && t20.beyond == 10);

    // Thin support falls back to the upper median and says how thin.
    const Tail t9 = tailOf(ramp(9));
    CHECK(t9.value == 5.0 && t9.beyond == 4 && t9.samples == 9);
    const Tail t12 = tailOf(ramp(12));
    CHECK(t12.value == 7.0 && t12.beyond == 5);
    CHECK(t12.value >= median(ramp(12)));

    CHECK(tailOf({}).samples == 0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0}) == 2.5);
}

void
testTally()
{
    Tally tally;
    tally.add(Outcome::ok);
    tally.add(Outcome::ok);
    tally.add(Outcome::shed);
    tally.add(Outcome::degraded);
    tally.add(Outcome::wrong);
    tally.add(Outcome::failed);
    CHECK(tally.attempted == 6 && tally.ok == 2 && tally.missed() == 4);
    CHECK(tally.shed == 1 && tally.degraded == 1 && tally.wrong == 1);
    CHECK(std::abs(tally.failedFrac() - 4.0 / 6.0) < 1e-12);

    Tally other;
    other.add(Outcome::ok);
    other.add(Outcome::shed);
    tally.merge(other);
    CHECK(tally.attempted == 8 && tally.shed == 2 && tally.ok == 3);
    CHECK(Tally{}.failedFrac() == 0.0);
}

void
testLogitCheck()
{
    double err = 0.0;
    CHECK(logitsMatch({0.1, 0.9, 0.2}, {0.105, 0.899, 0.2}, 1e-2, &err));
    CHECK(std::abs(err - 0.005) < 1e-12);
    // Within tolerance but the argmax flips: a wrong answer.
    CHECK(!logitsMatch({0.5, 0.504}, {0.503, 0.501}, 1e-2));
    CHECK(!logitsMatch({0.1, 0.9}, {0.1, 0.8}, 1e-2, &err));
    CHECK(!logitsMatch({0.1}, {0.1, 0.2}, 1e-2, &err) && std::isinf(err));
    CHECK(!logitsMatch({}, {}, 1e-2));
}

void
testPoissonSchedule()
{
    const auto a = poissonSchedule(7, 1000.0, 20.0);
    const auto b = poissonSchedule(7, 1000.0, 20.0);
    const auto c = poissonSchedule(8, 1000.0, 20.0);
    CHECK(a == b);
    CHECK(a != c);
    CHECK(std::abs(double(a.size()) - 20000.0) < 600.0);
    CHECK(std::is_sorted(a.begin(), a.end()) && a.back() < 20.0);
}

/**
 * A single server with fixed service time @p serviceS fed by evenly
 * spaced arrivals at @p rate for @p durationS: its knee is exactly
 * 1 / serviceS. Returns the verdict the runner would reach.
 */
StepVerdict
syntheticStep(double rate, double serviceS, double durationS, double limitMs)
{
    const std::size_t n = static_cast<std::size_t>(rate * durationS);
    std::vector<double> finish(n), latMs(n);
    double busyUntil = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double arrival = double(i) / rate;
        busyUntil = std::max(busyUntil, arrival) + serviceS;
        finish[i] = busyUntil;
        latMs[i] = (busyUntil - arrival) * 1e3;
    }
    const double lastSend = double(n - 1) / rate;
    std::size_t backlog = 0;
    for (double f : finish)
        backlog += f > lastSend;
    return judgeStep(latMs, 0, backlog, rate, limitMs, 1);
}

void
testCapacityBisection()
{
    const double service = 1e-3; // knee at 1000 units/s
    CHECK(syntheticStep(900.0, service, 2.0, 100.0).pass);
    CHECK(!syntheticStep(1200.0, service, 2.0, 100.0).pass);

    const double cap = bisectCapacity(100.0, 4000.0, 10, [&](double rate) {
        return syntheticStep(rate, service, 2.0, 100.0).pass;
    });
    // A 2 s step tolerates the slight overload that cannot push the
    // queue past the 100 ms limit within the step, so the estimate sits
    // at or a little above the knee.
    CHECK(cap >= 970.0 && cap <= 1060.0);

    // A slower server moves the knee proportionally.
    const double cap2 = bisectCapacity(100.0, 4000.0, 10, [&](double rate) {
        return syntheticStep(rate, 2 * service, 2.0, 100.0).pass;
    });
    CHECK(cap2 >= 485.0 && cap2 <= 530.0);

    // Every probe failing returns the known-good lower bound.
    CHECK(bisectCapacity(50.0, 100.0, 5, [](double) { return false; }) ==
          50.0);

    // Missed units are charged as late; a backlog over Little's bound
    // fails even when the completed ones were fast.
    CHECK(!judgeStep({1.0, 2.0}, 1, 0, 10.0, 100.0, 1).pass);
    CHECK(!judgeStep(std::vector<double>(50, 1.0), 0, 500, 100.0, 100.0, 16)
               .pass);
    CHECK(judgeStep(std::vector<double>(50, 1.0), 0, 26, 100.0, 100.0, 16)
              .pass);
}

} // namespace

int
main()
{
    testTailRule();
    testTally();
    testLogitCheck();
    testPoissonSchedule();
    testCapacityBisection();
    if (g_failures) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("selftest: all statistics checks passed\n");
    return 0;
}
