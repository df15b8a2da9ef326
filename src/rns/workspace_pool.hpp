/**
 * @file
 * Thread-local scratch-buffer pool for the RNS hot paths.
 *
 * Key switching, rescale, ModUp/ModDown and rotation all need
 * limb-sized (N x u64) scratch vectors.
 * Allocating those per operation puts the allocator on the critical
 * path of every HE op; the pool instead leases buffers from a
 * per-thread freelist and takes them back on release, so steady-state
 * inference performs no limb allocations at all.
 *
 * The freelists are thread_local: a lease never contends with other
 * threads and needs no locks (buffers may migrate between threads —
 * a buffer leased on one thread and released on another simply joins
 * the releasing thread's freelist). Each list is capped, so a burst of
 * concurrent requests cannot pin unbounded memory.
 */
#ifndef FXHENN_RNS_WORKSPACE_POOL_HPP
#define FXHENN_RNS_WORKSPACE_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fxhenn::rns {

/** Per-thread lease/release counters (for tests and diagnostics). */
struct WorkspaceStats
{
    std::uint64_t hits = 0;   ///< leases served from the freelist
    std::uint64_t misses = 0; ///< leases that had to allocate
};

/**
 * Static facade over the per-thread freelists. Leased vectors have the
 * requested size but unspecified contents — callers overwrite or zero.
 * Telemetry: every lease bumps "rns.workspace.hits" or
 * "rns.workspace.misses".
 */
class WorkspacePool
{
  public:
    /** Buffers kept per freelist; surplus releases deallocate. */
    static constexpr std::size_t kMaxFree = 64;

    /** Lease an n-element u64 buffer (contents unspecified). */
    static std::vector<std::uint64_t> leaseU64(std::size_t n);
    /** Release a buffer back to the calling thread's freelist. */
    static void release(std::vector<std::uint64_t> &&buf);

    /** Counters of the calling thread. */
    static WorkspaceStats threadStats();
    /** Zero the calling thread's counters. */
    static void resetThreadStats();
    /** Drop every buffer held by the calling thread's freelists. */
    static void trimThread();
};

/**
 * A u64 buffer leased from the WorkspacePool for its whole lifetime.
 * Value semantics (copies lease their own buffer), contiguous-range
 * interface — this is the storage type behind every RnsPoly limb, so
 * ciphertext copies and temporaries recycle instead of allocating.
 */
class PooledBuffer
{
  public:
    PooledBuffer() = default;

    /** Lease an n-element buffer, zero-filled. */
    explicit PooledBuffer(std::size_t n);

    /** Lease an n-element buffer with unspecified contents, for a
     *  caller that writes every element before it reads one. */
    static PooledBuffer uninitialized(std::size_t n);

    PooledBuffer(const PooledBuffer &other);
    PooledBuffer &operator=(const PooledBuffer &other);
    PooledBuffer(PooledBuffer &&other) noexcept = default;
    PooledBuffer &operator=(PooledBuffer &&other) noexcept;
    ~PooledBuffer();

    std::size_t size() const { return buf_.size(); }
    std::uint64_t *data() { return buf_.data(); }
    const std::uint64_t *data() const { return buf_.data(); }
    std::uint64_t *begin() { return buf_.data(); }
    std::uint64_t *end() { return buf_.data() + buf_.size(); }
    const std::uint64_t *begin() const { return buf_.data(); }
    const std::uint64_t *end() const { return buf_.data() + buf_.size(); }
    std::uint64_t &operator[](std::size_t i) { return buf_[i]; }
    const std::uint64_t &operator[](std::size_t i) const
    {
        return buf_[i];
    }

    bool
    operator==(const PooledBuffer &other) const
    {
        return buf_ == other.buf_;
    }

  private:
    explicit PooledBuffer(std::vector<std::uint64_t> &&leased)
        : buf_(std::move(leased))
    {
    }

    std::vector<std::uint64_t> buf_;
};

} // namespace fxhenn::rns

#endif // FXHENN_RNS_WORKSPACE_POOL_HPP
