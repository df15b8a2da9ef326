#include "src/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/telemetry/telemetry.hpp"

namespace fxhenn {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * How long a helper that finds no work keeps polling before it sleeps
 * on its condition variable. Keyswitch limb loops follow each other
 * after a few to a few tens of microseconds of serial work, while a
 * wake-up costs the caller a system call and the helper tens of
 * microseconds to get back on a core. Measured on a lone FxHENN-MNIST
 * request (N=8192) on a 4-vCPU AVX-512 host, min of 9: 305 ms without
 * polling, 271-274 ms at 50 us, no further gain at 100 or 200 us.
 */
constexpr auto kSpin = std::chrono::microseconds(50);

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** Budget claims the calling thread holds; it counts while > 0. */
thread_local unsigned t_claims = 0;

std::uint64_t
nsSince(Clock::time_point begin)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - begin)
            .count());
}

/** One fanned-out parallelFor call; lives on its caller's stack. */
struct Region
{
    const std::function<void(std::size_t)> *fn = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    // The rest is guarded by the pool mutex.
    unsigned handed = 0;  ///< helpers handed a seat, not yet started
    unsigned joined = 0;  ///< helpers that started on it
    unsigned running = 0; ///< started helpers not yet done
    std::exception_ptr error;
    std::condition_variable done; ///< signalled when running hits 0
};

/** A persistent helper thread and its hand-off slot. */
struct Helper
{
    /** The region handed to this helper; null while it is idle.
     *  Written under the pool mutex, polled without it. */
    std::atomic<Region *> region{nullptr};
    bool started = false;  ///< working on region (guarded)
    bool sleeping = false; ///< waiting on wake (guarded)
    std::condition_variable wake;
    std::thread thread;
};

class Pool
{
  public:
    /** Never destroyed: exit must not wait on, or pull the condition
     *  variable from under, a sleeping helper. */
    static Pool &
    instance()
    {
        static Pool *pool = new Pool;
        return *pool;
    }

    /** Set the budget, creating helpers up to budget - 1. */
    void
    setBudget(unsigned count)
    {
        count = std::max(count, 1u);
        {
            std::scoped_lock lock(mutex_);
            while (helpers_.size() + 1 < count) {
                auto helper = std::make_unique<Helper>();
                Helper *self = helper.get();
                helpers_.push_back(std::move(helper));
                self->thread = std::thread([this, self] { helperLoop(*self); });
                FXHENN_TELEM_COUNT("parallel.threads_spawned", 1);
            }
        }
        budget_.store(count, std::memory_order_relaxed);
    }

    unsigned
    budget() const
    {
        return budget_.load(std::memory_order_relaxed);
    }

    void claim() { active_.fetch_add(1, std::memory_order_relaxed); }
    void release() { active_.fetch_sub(1, std::memory_order_relaxed); }

    void
    run(std::size_t count, const std::function<void(std::size_t)> &fn,
        unsigned cap)
    {
        if (count == 0)
            return;
        const BudgetClaim self;
        const std::size_t limit =
            cap == 0 ? count - 1 : std::min<std::size_t>(count, cap) - 1;
        const unsigned seats = reserve(limit);
        if (seats == 0) {
            FXHENN_TELEM_COUNT("parallel.inline_calls", 1);
            FXHENN_TELEM_COUNT("parallel.items", count);
            for (std::size_t i = 0; i < count; ++i)
                fn(i);
            return;
        }
        FXHENN_TELEM_COUNT("parallel.calls", 1);
        FXHENN_TELEM_COUNT("parallel.items", count);
        FXHENN_TELEM_SCOPED_TIMER("parallel.region.ns");

        Region region;
        region.fn = &fn;
        region.count = count;
        handOut(region, seats);

        const bool measure = telemetry::enabled();
        const auto begin = Clock::now();
        work(region);
        if (measure)
            telemetry::counter("parallel.worker_busy_ns")
                .add(nsSince(begin));
        {
            std::unique_lock lock(mutex_);
            // Take back the seats of helpers that have not started:
            // the caller waits only for helpers already at work.
            for (const auto &helper : helpers_) {
                if (region.handed == 0)
                    break;
                if (helper->region.load(std::memory_order_relaxed) ==
                        &region &&
                    !helper->started) {
                    helper->region.store(nullptr,
                                         std::memory_order_relaxed);
                    --region.handed;
                    release();
                }
            }
            region.done.wait(lock, [&] { return region.running == 0; });
        }
        if (measure) {
            // Queue depth = items each participant would own on
            // average; with the busy counter this tells whether a loop
            // is too fine-grained to feed the pool.
            const unsigned used = 1 + region.joined;
            telemetry::histogram("parallel.queue_depth")
                .record(count / used);
            telemetry::histogram("parallel.workers_used").record(used);
        }
        if (region.error)
            std::rethrow_exception(region.error);
    }

  private:
    Pool()
    {
        const unsigned hw = std::thread::hardware_concurrency();
        setBudget(hw == 0 ? 1 : std::min(hw, 8u));
    }

    /** Reserve up to @p limit idle budget slots for helpers. */
    unsigned
    reserve(std::size_t limit)
    {
        const int budget = static_cast<int>(budget_.load(
            std::memory_order_relaxed));
        int active = active_.load(std::memory_order_relaxed);
        for (;;) {
            const int idle = budget - active;
            if (idle <= 0 || limit == 0)
                return 0;
            const int want = static_cast<int>(std::min<std::size_t>(
                static_cast<std::size_t>(idle), limit));
            if (active_.compare_exchange_weak(active, active + want,
                                              std::memory_order_relaxed))
                return static_cast<unsigned>(want);
        }
    }

    /**
     * Hand the reserved seats to the idle helpers with the lowest
     * indices. Always the same helpers first, so a coarse loop (one
     * request per item) grows the allocator arenas and scratch
     * freelists of as few threads as possible. Seats with no idle
     * helper go back to the budget.
     */
    void
    handOut(Region &region, unsigned seats)
    {
        std::scoped_lock lock(mutex_);
        for (const auto &helper : helpers_) {
            if (region.handed == seats)
                break;
            if (helper->region.load(std::memory_order_relaxed) != nullptr)
                continue;
            helper->region.store(&region, std::memory_order_release);
            ++region.handed;
            if (helper->sleeping)
                helper->wake.notify_one();
        }
        active_.fetch_sub(static_cast<int>(seats - region.handed),
                          std::memory_order_relaxed);
    }

    /** Claim and run items until none are left. */
    void
    work(Region &region)
    {
        for (;;) {
            const std::size_t i =
                region.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= region.count)
                return;
            try {
                (*region.fn)(i);
            } catch (...) {
                std::scoped_lock lock(mutex_);
                if (!region.error)
                    region.error = std::current_exception();
            }
        }
    }

    /**
     * Poll for a hand-off for up to kSpin, but only while the budget
     * has an idle thread for every polling helper: a helper never
     * spins on a core that a counted thread may need.
     */
    void
    poll(const Helper &self)
    {
        const int idle =
            static_cast<int>(budget_.load(std::memory_order_relaxed)) -
            active_.load(std::memory_order_relaxed);
        if (static_cast<int>(spinners_.fetch_add(
                1, std::memory_order_relaxed)) < idle) {
            const auto until = Clock::now() + kSpin;
            while (self.region.load(std::memory_order_acquire) ==
                       nullptr &&
                   Clock::now() < until)
                cpuRelax();
        }
        spinners_.fetch_sub(1, std::memory_order_relaxed);
    }

    void
    helperLoop(Helper &self)
    {
        std::unique_lock lock(mutex_);
        for (;;) {
            if (self.region.load(std::memory_order_relaxed) == nullptr) {
                lock.unlock();
                poll(self);
                lock.lock();
                self.sleeping = true;
                self.wake.wait(lock, [&] {
                    return self.region.load(std::memory_order_relaxed) !=
                           nullptr;
                });
                self.sleeping = false;
            }
            Region &region = *self.region.load(std::memory_order_relaxed);
            self.started = true;
            --region.handed;
            ++region.joined;
            ++region.running;
            lock.unlock();

            // The seat reserved by the caller counts this helper.
            t_claims = 1;
            const bool measure = telemetry::enabled();
            const auto begin = Clock::now();
            work(region);
            if (measure)
                telemetry::counter("parallel.worker_busy_ns")
                    .add(nsSince(begin));
            t_claims = 0;

            lock.lock();
            release();
            self.started = false;
            self.region.store(nullptr, std::memory_order_relaxed);
            if (--region.running == 0)
                region.done.notify_one();
        }
    }

    std::atomic<unsigned> budget_{1};
    /** Threads counted now plus seats reserved for helpers. */
    std::atomic<int> active_{0};
    /** Helpers inside poll(). */
    std::atomic<unsigned> spinners_{0};

    std::mutex mutex_;
    /** Grown only (guarded); each helper uses the members above. */
    std::vector<std::unique_ptr<Helper>> helpers_;
};

} // namespace

BudgetClaim::BudgetClaim()
{
    if (t_claims++ == 0)
        Pool::instance().claim();
}

BudgetClaim::~BudgetClaim()
{
    if (--t_claims == 0)
        Pool::instance().release();
}

void
setThreadCount(unsigned count)
{
    Pool::instance().setBudget(count);
}

unsigned
threadCount()
{
    return Pool::instance().budget();
}

void
parallelFor(std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    Pool::instance().run(count, fn, 0);
}

void
parallelForWorkers(unsigned workers, std::size_t count,
                   const std::function<void(std::size_t)> &fn)
{
    Pool::instance().run(count, fn, workers);
}

} // namespace fxhenn
