#include "src/rns/workspace_pool.hpp"

#include <algorithm>
#include <utility>

#include "src/common/thread_annotations.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::rns {

namespace {

/** The per-thread state: one freelist + counters. */
struct ThreadPool
{
    std::vector<std::vector<std::uint64_t>> freeU64;
    WorkspaceStats stats;
};

/**
 * The pool state is thread-confined (thread_local), not mutex-guarded:
 * there is no capability to annotate and nothing for the thread-safety
 * analysis to check, so the accessor is explicitly excluded. Safety
 * rests on confinement alone — a ThreadPool reference must never be
 * cached and handed to another thread.
 */
ThreadPool &
threadPool() FXHENN_NO_THREAD_SAFETY_ANALYSIS
{
    static thread_local ThreadPool pool;
    return pool;
}

} // namespace

std::vector<std::uint64_t>
WorkspacePool::leaseU64(std::size_t n)
{
    ThreadPool &pool = threadPool();
    if (!pool.freeU64.empty()) {
        std::vector<std::uint64_t> buf = std::move(pool.freeU64.back());
        pool.freeU64.pop_back();
        buf.resize(n); // contents unspecified by contract
        ++pool.stats.hits;
        FXHENN_TELEM_COUNT("rns.workspace.hits", 1);
        return buf;
    }
    ++pool.stats.misses;
    FXHENN_TELEM_COUNT("rns.workspace.misses", 1);
    return std::vector<std::uint64_t>(n);
}

void
WorkspacePool::release(std::vector<std::uint64_t> &&buf)
{
    auto &freelist = threadPool().freeU64;
    if (buf.capacity() == 0 || freelist.size() >= kMaxFree)
        return; // moved-from husks and surplus buffers just deallocate
    freelist.push_back(std::move(buf));
}

WorkspaceStats
WorkspacePool::threadStats()
{
    return threadPool().stats;
}

void
WorkspacePool::resetThreadStats()
{
    threadPool().stats = WorkspaceStats{};
}

void
WorkspacePool::trimThread()
{
    threadPool().freeU64.clear();
}

PooledBuffer::PooledBuffer(std::size_t n)
    : buf_(WorkspacePool::leaseU64(n))
{
    std::fill(buf_.begin(), buf_.end(), 0);
}

PooledBuffer
PooledBuffer::uninitialized(std::size_t n)
{
    return PooledBuffer(WorkspacePool::leaseU64(n));
}

PooledBuffer::PooledBuffer(const PooledBuffer &other)
    : buf_(WorkspacePool::leaseU64(other.buf_.size()))
{
    std::copy(other.buf_.begin(), other.buf_.end(), buf_.begin());
}

PooledBuffer &
PooledBuffer::operator=(const PooledBuffer &other)
{
    if (this != &other)
        buf_.assign(other.buf_.begin(), other.buf_.end());
    return *this;
}

PooledBuffer &
PooledBuffer::operator=(PooledBuffer &&other) noexcept
{
    if (this != &other) {
        WorkspacePool::release(std::move(buf_));
        buf_ = std::move(other.buf_);
    }
    return *this;
}

PooledBuffer::~PooledBuffer()
{
    WorkspacePool::release(std::move(buf_));
}

} // namespace fxhenn::rns
