/**
 * @file
 * The benchmark's three workloads over the public API of the stack.
 *
 *  - mnist-paper: FxHENN-MNIST at the paper's CKKS parameters, B = 1,
 *    one client in a closed loop over submit(), then an offline
 *    runBatch() of the same request count;
 *  - test5l-open: Test-5L at N = 2048, B = 16, an open loop of seeded
 *    Poisson arrivals at a nominal rate, a capacity bisection and a
 *    saturated runBatch();
 *  - design-cifar10: the design flow (compile, lint, certify, DSE with
 *    fpga-sim replay) of FxHENN-CIFAR10 in a closed loop.
 *
 * Every workload checks every output and reports the end-to-end
 * metrics; a traced run also reports the per-layer metrics.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Result
{
    /** Run identity: results whose identity differs are not comparable. */
    std::vector<std::pair<std::string, std::string>> identity;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer; ///< traced runs only
    Tally tally;
    /** Human-readable lines: phases, sample counts, percentiles. */
    std::vector<std::string> notes;
};

/** Run one workload; throws std::invalid_argument for an unknown name. */
Result runWorkload(const RunConfig &config);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
