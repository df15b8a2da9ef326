/**
 * @file
 * Statistics helpers of the end-to-end benchmark: medians, the tail
 * percentile rule, unit outcome accounting, the logit check, the
 * seeded Poisson arrival schedule and the capacity bisection.
 *
 * Header-only and free of library dependencies so the self-test
 * (stats_selftest.cpp) exercises exactly the code the runner runs.
 */
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace perfbench {

/** Median of @p values (mean of the two middle ones when even); 0 if empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** A tail-latency figure and the sample support behind it. */
struct Tail
{
    double percentile = 0.0; ///< in [0, 100]
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0; ///< samples strictly above the reported rank
};

/** Samples that must lie beyond a reported tail percentile. */
constexpr std::size_t kTailSupport = 10;

/**
 * The highest percentile with at least kTailSupport samples beyond it:
 * the (n - 10)-th smallest of n samples, i.e. percentile 100 (n-10)/n.
 * Below 2 * kTailSupport samples that rank would fall under the median,
 * so the upper median is reported instead and `beyond` states the
 * thinner support honestly.
 */
inline Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    std::size_t rank = n >= 2 * kTailSupport ? n - kTailSupport : n / 2 + 1;
    tail.value = values[rank - 1];
    tail.beyond = n - rank;
    tail.percentile = 100.0 * double(rank) / double(n);
    return tail;
}

/** What happened to one unit of work (a request or a design pass). */
enum class Outcome { ok, shed, degraded, wrong, failed };

/**
 * Outcome accounting over attempted units. Every unit that is not ok
 * counts as failed in failedFrac(): shed (never executed), degraded (a
 * FailureReport), wrong output, or lost (an exception or no result).
 */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t degraded = 0;
    std::size_t wrong = 0;
    std::size_t failed = 0;

    void
    add(Outcome outcome)
    {
        ++attempted;
        switch (outcome) {
        case Outcome::ok: ++ok; break;
        case Outcome::shed: ++shed; break;
        case Outcome::degraded: ++degraded; break;
        case Outcome::wrong: ++wrong; break;
        case Outcome::failed: ++failed; break;
        }
    }

    void
    merge(const Tally &other)
    {
        attempted += other.attempted;
        ok += other.ok;
        shed += other.shed;
        degraded += other.degraded;
        wrong += other.wrong;
        failed += other.failed;
    }

    std::size_t missed() const { return attempted - ok; }

    double
    failedFrac() const
    {
        return attempted ? double(missed()) / double(attempted) : 0.0;
    }
};

/**
 * Output check of one request: the decrypted logits match the plaintext
 * forward pass within @p tolerance (max abs error) and pick the same
 * class. @p maxError receives the observed max abs error.
 */
inline bool
logitsMatch(const std::vector<double> &got, const std::vector<double> &want,
            double tolerance, double *maxError = nullptr)
{
    if (got.size() != want.size() || got.empty()) {
        if (maxError)
            *maxError = std::numeric_limits<double>::infinity();
        return false;
    }
    double err = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i)
        err = std::max(err, std::abs(got[i] - want[i]));
    if (maxError)
        *maxError = err;
    const auto argmax = [](const std::vector<double> &v) {
        return std::max_element(v.begin(), v.end()) - v.begin();
    };
    return err <= tolerance && argmax(got) == argmax(want);
}

/** splitmix64: a tiny seeded generator with a fixed, portable stream. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in (0, 1]. */
    double
    unit()
    {
        return (double(next() >> 11) + 1.0) * 0x1.0p-53;
    }

  private:
    std::uint64_t state_;
};

/**
 * Send offsets (seconds from the start) of a Poisson arrival process at
 * @p rate per second over @p duration seconds, drawn from @p seed.
 */
inline std::vector<double>
poissonSchedule(std::uint64_t seed, double rate, double duration)
{
    SplitMix rng(seed);
    std::vector<double> offsets;
    offsets.reserve(static_cast<std::size_t>(rate * duration * 1.1) + 16);
    for (double t = -std::log(rng.unit()) / rate; t < duration;
         t += -std::log(rng.unit()) / rate)
        offsets.push_back(t);
    return offsets;
}

/** Verdict of one offered-rate step of the capacity search. */
struct StepVerdict
{
    bool pass = false;
    Tail tail; ///< latency tail, missed units counted as late
    std::size_t backlogLimit = 0;
};

/**
 * Judge one open-loop step offered at @p rate per second. Every
 * latency in @p latenciesMs belongs to a completed ok request; @p missed
 * counts shed, failed, wrong or unfinished ones, which are charged as
 * infinitely late. The step passes when nothing missed, the tail is
 * within @p limitMs, and the backlog left when the last request was
 * sent (@p backlogAtEnd) is no more than Little's law allows for
 * requests that all meet the limit, plus one partial batch of @p lanes.
 */
inline StepVerdict
judgeStep(std::vector<double> latenciesMs, std::size_t missed,
          std::size_t backlogAtEnd, double rate, double limitMs,
          std::size_t lanes)
{
    StepVerdict v;
    latenciesMs.insert(latenciesMs.end(), missed,
                       std::numeric_limits<double>::infinity());
    v.tail = tailOf(std::move(latenciesMs));
    v.backlogLimit =
        static_cast<std::size_t>(std::ceil(rate * limitMs / 1e3)) + lanes;
    v.pass = missed == 0 && v.tail.samples > 0 && v.tail.value <= limitMs &&
             backlogAtEnd <= v.backlogLimit;
    return v;
}

/**
 * Fixed-step bisection for the highest passing rate in [lo, hi]:
 * @p steps probes, each halving the bracket. @p lo is assumed to pass
 * and is returned when every probe fails.
 */
inline double
bisectCapacity(double lo, double hi, int steps,
               const std::function<bool(double)> &passes)
{
    for (int i = 0; i < steps; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (passes(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
