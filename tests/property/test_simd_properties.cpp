/**
 * @file
 * Property tests for the SIMD modarith dispatch levels: boundary
 * coefficients (0, 1, q-1), the worst-case lazy accumulation depth
 * Modulus::maxLazyDepth() permits, the 15-digit edge of the IFMA inner
 * product and the 16-digit call that falls back past it, the centered
 * half-way point of the drop-limb sweeps, identity/reversal/Galois
 * gathers, and ragged tails (lengths that are not a multiple of any
 * vector width) must all be bitwise identical to the scalar reference
 * at every preset NTT prime x every dispatch level reachable on this
 * host. These are the edges the randomized differential matrix
 * (tests/modarith/test_simd_differential.cpp) is least likely to
 * sample.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/ckks/context.hpp"
#include "src/ckks/params.hpp"
#include "src/common/rng.hpp"
#include "src/modarith/ntt.hpp"
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

/** A vector mixing the boundary residues 0, 1 and q-1 with random
 * coefficients so every vector lane sees an edge value somewhere. */
std::vector<std::uint64_t>
boundaryResidues(Rng &rng, std::size_t n, std::uint64_t q)
{
    std::vector<std::uint64_t> v(n);
    for (std::size_t k = 0; k < n; ++k) {
        switch (k % 4) {
        case 0:
            v[k] = 0;
            break;
        case 1:
            v[k] = 1;
            break;
        case 2:
            v[k] = q - 1;
            break;
        default:
            v[k] = rng.uniform(q);
            break;
        }
    }
    return v;
}

TEST(SimdProperty, BoundaryCoefficientsAtEveryPrimeAndWidth)
{
    Rng rng(20260808);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    // One span per interesting tail class: aligned to the widest
    // vector, one short of it, one past it, sub-width, and single.
    for (const std::size_t n : {64ull, 63ull, 65ull, 7ull, 1ull}) {
        for (const Modulus &q : chainPrimes()) {
            const auto a = boundaryResidues(rng, n, q.value());
            auto b = boundaryResidues(rng, n, q.value());
            // Reverse so (0, q-1) and (q-1, 0) pairs both occur.
            std::reverse(b.begin(), b.end());
            for (simd::Level level : reachableLevels()) {
                const auto &kern = simd::kernelsFor(level);
                std::vector<std::uint64_t> want(n), got(n);
                ref.addArray(want.data(), a.data(), b.data(), n, q);
                kern.addArray(got.data(), a.data(), b.data(), n, q);
                ASSERT_EQ(want, got)
                    << "addArray n=" << n << " q=" << q.value() << " @"
                    << simd::levelName(level);
                ref.subArray(want.data(), a.data(), b.data(), n, q);
                kern.subArray(got.data(), a.data(), b.data(), n, q);
                ASSERT_EQ(want, got)
                    << "subArray n=" << n << " q=" << q.value() << " @"
                    << simd::levelName(level);
                ref.mulArray(want.data(), a.data(), b.data(), n, q);
                kern.mulArray(got.data(), a.data(), b.data(), n, q);
                ASSERT_EQ(want, got)
                    << "mulArray n=" << n << " q=" << q.value() << " @"
                    << simd::levelName(level);
                want = a;
                got = a;
                ref.fmaModArray(want.data(), b.data(), b.data(), n, q);
                kern.fmaModArray(got.data(), b.data(), b.data(), n, q);
                ASSERT_EQ(want, got)
                    << "fmaModArray n=" << n << " q=" << q.value()
                    << " @" << simd::levelName(level);
            }
        }
    }
}

TEST(SimdProperty, ReduceBoundariesIncludeBarrettEdgeInputs)
{
    // reduce()'s contract is src < 2^(2*bits); feed the extremes of
    // that range (0, 1, q-1, q, q+1, 2^(2*bits)-1) at every prime and
    // level, padded to a ragged length.
    Rng rng(31337);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    for (const Modulus &q : chainPrimes()) {
        const unsigned twob = 2 * q.bits();
        const std::uint64_t top =
            twob >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << twob) - 1;
        std::vector<std::uint64_t> src = {
            0, 1, q.value() - 1, q.value(), q.value() + 1, top};
        while (src.size() < 21)
            src.push_back(rng.next() % (top == ~std::uint64_t{0}
                                            ? top
                                            : top + 1));
        const std::size_t n = src.size();
        std::vector<std::uint64_t> want(n);
        ref.reduceArray(want.data(), src.data(), n, q);
        for (simd::Level level : reachableLevels()) {
            std::vector<std::uint64_t> got(n);
            simd::kernelsFor(level).reduceArray(got.data(), src.data(),
                                                n, q);
            ASSERT_EQ(want, got) << "reduceArray q=" << q.value()
                                 << " @" << simd::levelName(level);
        }
    }
}

/** Digit rows for the fused inner product plus their pointer tables. */
struct DigitRows
{
    std::vector<std::vector<std::uint64_t>> a, b0, b1;
    std::vector<const std::uint64_t *> pa, pb0, pb1;

    void
    add(std::vector<std::uint64_t> x, std::vector<std::uint64_t> y0,
        std::vector<std::uint64_t> y1)
    {
        a.push_back(std::move(x));
        b0.push_back(std::move(y0));
        b1.push_back(std::move(y1));
        pa.clear();
        pb0.clear();
        pb1.clear();
        for (std::size_t i = 0; i < a.size(); ++i) {
            pa.push_back(a[i].data());
            pb0.push_back(b0[i].data());
            pb1.push_back(b1[i].data());
        }
    }

    /** Both outputs at @p kern, concatenated. */
    std::vector<std::uint64_t>
    run(const simd::Kernels &kern, const std::uint32_t *perm,
        const Modulus &q) const
    {
        const std::size_t n = b0.front().size();
        std::vector<std::uint64_t> out(2 * n, 0xdeadbeef);
        kern.innerProduct(out.data(), out.data() + n, pa.data(),
                          pb0.data(), pb1.data(), a.size(), perm, n, q);
        return out;
    }
};

TEST(SimdProperty, WorstCaseLazyDepthAtEveryPrimeAndWidth)
{
    // Saturate the 128-bit overflow budget with (q-1)^2 terms at the
    // advertised maxLazyDepth() (capped for narrow primes), then
    // compare the reduced digit sums against scalar over a ragged
    // length.
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    const std::size_t n = 13;
    for (const Modulus &q : chainPrimes()) {
        const std::uint64_t depth =
            std::min<std::uint64_t>(q.maxLazyDepth(), 1024);
        const std::vector<std::uint64_t> worst(n, q.value() - 1);
        DigitRows rows;
        for (std::uint64_t d = 0; d < depth; ++d)
            rows.add(worst, worst, worst);
        const auto want = rows.run(ref, nullptr, q);
        for (simd::Level level : reachableLevels())
            ASSERT_EQ(want, rows.run(simd::kernelsFor(level), nullptr, q))
                << "inner product q=" << q.value() << " depth " << depth
                << " @" << simd::levelName(level);
    }
}

TEST(SimdProperty, InnerProductIfmaDigitBoundAtTheSpecialPrime)
{
    // The IFMA path holds at most 15 digits of residues below 2^50.
    // All-(q-1) operands at the widest 50-bit prime (the preset special
    // prime width) put the high-half sum at its maximum; a 16th digit
    // must take the avx2 fallback and still agree.
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    const Modulus p(generateNttPrimes(50, 8192, 1)[0]);
    ASSERT_LT(p.value(), std::uint64_t{1} << 50);
    for (const std::size_t n : {8ull, 21ull}) {
        const std::vector<std::uint64_t> worst(n, p.value() - 1);
        DigitRows rows;
        for (std::size_t digits = 1; digits <= 16; ++digits) {
            rows.add(worst, worst, worst);
            const auto want = rows.run(ref, nullptr, p);
            for (simd::Level level : reachableLevels())
                ASSERT_EQ(want,
                          rows.run(simd::kernelsFor(level), nullptr, p))
                    << digits << " digits n=" << n << " @"
                    << simd::levelName(level);
        }
    }
}

TEST(SimdProperty, GatherFmaRaggedTailsAndBoundaries)
{
    // Identity, reversal and real Galois gathers (rotation by one slot
    // and conjugation of an N = 64 ring), over ragged lengths for the
    // synthetic ones, with boundary residues on both sides.
    Rng rng(4242);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    const ckks::CkksContext ctx(ckks::testParams(64, 2, 30));
    std::vector<std::vector<std::uint32_t>> perms;
    for (const std::size_t n : {1ull, 7ull, 8ull, 9ull, 17ull, 33ull}) {
        std::vector<std::uint32_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0u);
        perms.push_back(perm);
        std::reverse(perm.begin(), perm.end());
        perms.push_back(perm);
        // Rotate: the Galois maps the real keyswitch feeds are
        // permutations with long cycles.
        std::iota(perm.begin(), perm.end(), 0u);
        std::rotate(perm.begin(), perm.begin() + (n / 2), perm.end());
        perms.push_back(perm);
    }
    for (const std::uint64_t elt :
         {ctx.galoisElt(1), ctx.conjugateElt()})
        perms.push_back(ctx.galoisNttTable(elt));
    for (const auto &perm : perms) {
        const std::size_t n = perm.size();
        for (const Modulus &q : chainPrimes()) {
            DigitRows rows;
            for (int d = 0; d < 3; ++d)
                rows.add(boundaryResidues(rng, n, q.value()),
                         boundaryResidues(rng, n, q.value()),
                         boundaryResidues(rng, n, q.value()));
            const auto want = rows.run(ref, perm.data(), q);
            for (simd::Level level : reachableLevels())
                ASSERT_EQ(want,
                          rows.run(simd::kernelsFor(level), perm.data(), q))
                    << "gather inner product n=" << n
                    << " q=" << q.value() << " @"
                    << simd::levelName(level);
        }
    }
}

TEST(SimdProperty, DropLimbBoundariesAroundTheCenteringPoint)
{
    // centerLimb flips sign exactly above p/2; feed 0, 1, p/2, p/2 + 1
    // and p - 1 of every dropped prime into every target prime, then
    // dropLimb with 0 / q-1 operands on both sides, over a ragged
    // length.
    Rng rng(8080);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    const auto primes = chainPrimes();
    for (const Modulus &p : primes) {
        std::vector<std::uint64_t> src = {0, 1, p.value() / 2,
                                          p.value() / 2 + 1,
                                          p.value() - 1};
        while (src.size() < 19)
            src.push_back(rng.uniform(p.value()));
        const std::size_t n = src.size();
        for (const Modulus &q : primes) {
            if (q == p)
                continue;
            const std::uint64_t inv = q.inverse(p.value() % q.value());
            const auto dst0 = boundaryResidues(rng, n, q.value());
            std::vector<std::uint64_t> wantR(n), want = dst0;
            ref.centerLimb(wantR.data(), src.data(), n, q, p);
            ref.dropLimb(want.data(), wantR.data(), n, q, inv,
                         q.shoupConstant(inv));
            for (simd::Level level : reachableLevels()) {
                const auto &kern = simd::kernelsFor(level);
                std::vector<std::uint64_t> gotR(n), got = dst0;
                kern.centerLimb(gotR.data(), src.data(), n, q, p);
                ASSERT_EQ(wantR, gotR)
                    << "centerLimb p=" << p.value() << " q=" << q.value()
                    << " @" << simd::levelName(level);
                kern.dropLimb(got.data(), gotR.data(), n, q, inv,
                              q.shoupConstant(inv));
                ASSERT_EQ(want, got)
                    << "dropLimb p=" << p.value() << " q=" << q.value()
                    << " @" << simd::levelName(level);
            }
        }
    }
}

TEST(SimdProperty, NttBoundaryVectorsAtEveryPrimeAndWidth)
{
    // Impulse, constant-max and boundary-mixed inputs through
    // forward+inverse at each level: outputs must equal scalar
    // bitwise, and the roundtrip must restore the input.
    Rng rng(606);
    const std::uint64_t n = 64;
    for (unsigned bits : {30u, 36u, 42u, 50u, 55u, 60u}) {
        const Modulus q(generateNttPrimes(bits, n, 1)[0]);
        const NttTables ntt(n, q);
        std::vector<std::vector<std::uint64_t>> inputs;
        inputs.emplace_back(n, 0);
        inputs.back()[0] = 1; // impulse
        inputs.emplace_back(n, q.value() - 1);
        inputs.push_back(boundaryResidues(rng, n, q.value()));
        for (const auto &input : inputs) {
            auto fwdRef = input;
            {
                simd::ScopedLevel pin(simd::Level::scalar);
                ntt.forward(std::span<std::uint64_t>(fwdRef));
            }
            for (simd::Level level : reachableLevels()) {
                simd::ScopedLevel pin(level);
                auto buf = input;
                ntt.forward(std::span<std::uint64_t>(buf));
                ASSERT_EQ(fwdRef, buf)
                    << "forward bits=" << bits << " @"
                    << simd::levelName(level);
                ntt.inverse(std::span<std::uint64_t>(buf));
                ASSERT_EQ(input, buf)
                    << "roundtrip bits=" << bits << " @"
                    << simd::levelName(level);
            }
        }
    }
}

} // namespace
} // namespace fxhenn
