/**
 * @file
 * One persistent, budgeted thread pool for data-parallel loops.
 *
 * The CKKS kernels are embarrassingly parallel across RNS limbs (each
 * limb is an independent polynomial mod its own prime — the exact
 * property the paper's P_intra hardware knob exploits, Sec. V-B).
 * parallelFor() runs an index loop on the pool.
 *
 * The budget. setThreadCount() sets how many threads may compute at
 * once (default min(hardware threads, 8)). A thread counts against the
 * budget while it runs parallelFor() items — as a caller or as a
 * helper — or while it holds a BudgetClaim (an engine worker serving a
 * request). A loop fans out only to as many helpers as the budget has
 * idle threads, and runs inline when it has none; so engine workers,
 * the loops they issue and the loops of any other caller share one set
 * of cores instead of multiplying threads.
 *
 * Progress. The caller always claims items itself and waits only for
 * items a running helper has already claimed. A helper that never
 * arrives costs nothing but parallelism, so nested calls and
 * concurrent callers cannot deadlock.
 *
 * Helper lifetime. Helpers are created once — budget minus one of
 * them, on first use and whenever setThreadCount() raises the budget —
 * never by parallelFor(). A helper that runs out of work polls for the
 * next loop for a few tens of microseconds, and only while the budget
 * has an idle thread for it; otherwise it sleeps on a condition
 * variable. Helpers live as long as the process: the pool is never
 * destroyed, so process exit neither joins them nor destroys a
 * condition variable they wait on.
 *
 * Results never depend on the budget: items write disjoint outputs, so
 * setThreadCount(1) (fully serial) gives bitwise the same answers.
 */
#ifndef FXHENN_COMMON_PARALLEL_HPP
#define FXHENN_COMMON_PARALLEL_HPP

#include <cstddef>
#include <functional>

namespace fxhenn {

/** Set the thread budget (1 = serial). Takes effect immediately. */
void setThreadCount(unsigned count);

/** @return the current thread budget. */
unsigned threadCount();

/**
 * Run fn(0) .. fn(count-1), possibly concurrently. Blocks until all
 * iterations finish. Exceptions from iterations propagate (the first
 * one captured is rethrown) once every iteration has run.
 */
void parallelFor(std::size_t count,
                 const std::function<void(std::size_t)> &fn);

/**
 * parallelFor() with at most @p workers threads (the caller included)
 * working on this call at once; 0 means no cap beyond the budget. For
 * coarse work such as one encrypted inference per index: the nested
 * limb loops underneath fan out to whatever the budget has left.
 */
void parallelForWorkers(unsigned workers, std::size_t count,
                        const std::function<void(std::size_t)> &fn);

/**
 * Counts the calling thread against the thread budget while it lives.
 * A thread that computes outside parallelFor() for a long stretch (an
 * engine worker running a request) holds one, so loops issued by other
 * threads do not fan out onto the core it occupies. Claims nest: a
 * thread counts once however many it holds, and a thread already
 * counted (a helper, a caller inside parallelFor()) is not counted
 * again.
 */
class BudgetClaim
{
  public:
    BudgetClaim();
    ~BudgetClaim();

    BudgetClaim(const BudgetClaim &) = delete;
    BudgetClaim &operator=(const BudgetClaim &) = delete;
};

} // namespace fxhenn

#endif // FXHENN_COMMON_PARALLEL_HPP
