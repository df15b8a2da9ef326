/**
 * @file
 * Property tests for the lazy-reduction keyswitch arithmetic: at every
 * prime a real parameter chain can produce (30..60-bit NTT primes plus
 * the wider special prime), the fused inner product — an unreduced
 * digit sum followed by a single reduction — must be bitwise identical
 * to the eager add(mul()) chain at every reachable dispatch level,
 * including at the worst-case accumulation depth the overflow budget
 * permits for the widest primes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/modarith/modulus.hpp"
#include "src/modarith/primes.hpp"
#include "src/modarith/simd_dispatch.hpp"

namespace fxhenn {
namespace {

/** Every prime width the parameter presets use, plus the extremes. */
std::vector<Modulus>
chainPrimes()
{
    std::vector<Modulus> primes;
    for (unsigned bits : {30u, 36u, 42u, 50u, 55u, 60u}) {
        for (std::uint64_t q : generateNttPrimes(bits, 4096, 2))
            primes.emplace_back(q);
    }
    return primes;
}

std::vector<simd::Level>
reachableLevels()
{
    std::vector<simd::Level> levels;
    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512})
        if (simd::available(level))
            levels.push_back(level);
    return levels;
}

/** Both outputs of the fused inner product of a[i] . b[i] (the same
 * key row on both sides) at @p level. */
std::vector<std::uint64_t>
fusedSum(simd::Level level, const std::vector<std::vector<std::uint64_t>> &a,
         const std::vector<std::vector<std::uint64_t>> &b, const Modulus &q)
{
    std::vector<const std::uint64_t *> pa, pb;
    for (std::size_t i = 0; i < a.size(); ++i) {
        pa.push_back(a[i].data());
        pb.push_back(b[i].data());
    }
    const std::size_t n = a.front().size();
    std::vector<std::uint64_t> out0(n), out1(n);
    simd::kernelsFor(level).innerProduct(out0.data(), out1.data(),
                                         pa.data(), pb.data(), pb.data(),
                                         a.size(), nullptr, n, q);
    EXPECT_EQ(out0, out1) << "the two key parts saw equal rows";
    return out0;
}

TEST(LazyReductionProperty, LazyEqualsEagerAtEveryChainPrime)
{
    Rng rng(20260805);
    const std::size_t n = 16;
    for (const Modulus &q : chainPrimes()) {
        std::vector<std::vector<std::uint64_t>> a, b;
        std::vector<std::uint64_t> eager(n, 0);
        // Depth 32 covers every level count the presets reach.
        for (int depth = 0; depth < 32; ++depth) {
            a.emplace_back(n);
            b.emplace_back(n);
            for (std::size_t k = 0; k < n; ++k) {
                a.back()[k] = rng.uniform(q.value());
                b.back()[k] = rng.uniform(q.value());
                eager[k] = q.add(eager[k], q.mul(a.back()[k], b.back()[k]));
            }
        }
        for (simd::Level level : reachableLevels())
            ASSERT_EQ(fusedSum(level, a, b, q), eager)
                << "prime " << q.value() << " @" << simd::levelName(level);
    }
}

TEST(LazyReductionProperty, WorstCaseDepthAtMaximalOperands)
{
    // Saturate the overflow budget: accumulate (q-1)^2 terms up to the
    // advertised maxLazyDepth() (capped for narrow primes where the
    // budget exceeds any feasible loop). For 60-bit primes the budget
    // is 2^8 = 256, so this runs AT the worst-case depth; the single
    // deferred reduction must still match the eager chain exactly.
    for (const Modulus &q : chainPrimes()) {
        const std::uint64_t depth =
            std::min<std::uint64_t>(q.maxLazyDepth(), 4096);
        const std::size_t n = 4;
        const std::vector<std::vector<std::uint64_t>> worst(
            depth, std::vector<std::uint64_t>(n, q.value() - 1));
        std::vector<std::uint64_t> eager(n, 0);
        for (std::uint64_t d = 0; d < depth; ++d)
            for (std::size_t k = 0; k < n; ++k)
                eager[k] = q.add(eager[k],
                                 q.mul(q.value() - 1, q.value() - 1));
        for (simd::Level level : reachableLevels())
            ASSERT_EQ(fusedSum(level, worst, worst, q), eager)
                << "prime " << q.value() << " depth " << depth << " @"
                << simd::levelName(level);
    }
}

TEST(LazyReductionProperty, ReduceWideMatchesNativeModAtChainPrimes)
{
    Rng rng(99);
    for (const Modulus &q : chainPrimes()) {
        for (int i = 0; i < 500; ++i) {
            const unsigned __int128 x =
                (static_cast<unsigned __int128>(rng.next()) << 64) |
                rng.next();
            const std::uint64_t expect = static_cast<std::uint64_t>(
                x % static_cast<unsigned __int128>(q.value()));
            ASSERT_EQ(q.reduceWide(x), expect)
                << "prime " << q.value() << " iter " << i;
        }
    }
}

TEST(LazyReductionProperty, MulShoupMatchesPlainMulAtChainPrimes)
{
    Rng rng(7);
    for (const Modulus &q : chainPrimes()) {
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t a = rng.uniform(q.value());
            const std::uint64_t b = rng.uniform(q.value());
            const std::uint64_t bShoup = q.shoupConstant(b);
            ASSERT_EQ(q.mulShoup(a, b, bShoup), q.mul(a, b))
                << "prime " << q.value();
        }
    }
}

} // namespace
} // namespace fxhenn
