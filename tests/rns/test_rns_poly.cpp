#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "src/ckks/context.hpp"
#include "src/ckks/params.hpp"
#include "src/common/rng.hpp"
#include "src/modarith/primes.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/rns/crt.hpp"
#include "src/rns/rns_poly.hpp"

namespace fxhenn {
namespace {

class RnsPolyTest : public ::testing::Test
{
  protected:
    RnsPolyTest()
        : basis_(256, generateNttPrimes(30, 256, 4),
                 generateNttPrimes(40, 256, 1)[0]),
          rng_(99)
    {}

    /** Build a polynomial whose every coefficient is the integer v. */
    RnsPoly
    constantPoly(std::int64_t v, std::size_t level)
    {
        RnsPoly p(basis_, level, false, PolyDomain::coeff);
        for (std::size_t i = 0; i < level; ++i) {
            for (auto &x : p.limb(i))
                x = basis_.q(i).reduceSigned(v);
        }
        return p;
    }

    /** Reconstruct coefficient k of p at its level. */
    std::int64_t
    coeffValue(const RnsPoly &p, std::size_t k)
    {
        CrtReconstructor crt(basis_, p.level());
        std::vector<std::uint64_t> residues(p.level());
        for (std::size_t i = 0; i < p.level(); ++i)
            residues[i] = p.limb(i)[k];
        return static_cast<std::int64_t>(crt.reconstructCentered(residues));
    }

    RnsBasis basis_;
    Rng rng_;
};

TEST_F(RnsPolyTest, AddSubNegateAreConsistent)
{
    RnsPoly a(basis_, 3, false, PolyDomain::coeff);
    RnsPoly b(basis_, 3, false, PolyDomain::coeff);
    a.sampleUniform(rng_);
    b.sampleUniform(rng_);

    RnsPoly sum = a;
    sum.addInplace(b);
    RnsPoly back = sum;
    back.subInplace(b);
    EXPECT_TRUE(back == a);

    RnsPoly neg = a;
    neg.negateInplace();
    neg.addInplace(a);
    EXPECT_TRUE(neg == RnsPoly(basis_, 3, false, PolyDomain::coeff));
}

TEST_F(RnsPolyTest, NttRoundTrip)
{
    RnsPoly a(basis_, 4, true, PolyDomain::coeff);
    a.sampleUniform(rng_);
    RnsPoly original = a;
    a.toNtt();
    EXPECT_EQ(a.domain(), PolyDomain::ntt);
    a.fromNtt();
    EXPECT_TRUE(a == original);
}

TEST_F(RnsPolyTest, MulMatchesIntegerSemantics)
{
    // (3)(X^0) * (5)(X^0) = 15 in every coefficient-0 position.
    RnsPoly a(basis_, 2, false, PolyDomain::coeff);
    RnsPoly b(basis_, 2, false, PolyDomain::coeff);
    for (std::size_t i = 0; i < 2; ++i) {
        a.limb(i)[0] = 3;
        b.limb(i)[0] = 5;
    }
    a.toNtt();
    b.toNtt();
    a.mulInplace(b);
    a.fromNtt();
    EXPECT_EQ(coeffValue(a, 0), 15);
    for (std::size_t k = 1; k < basis_.n(); ++k)
        EXPECT_EQ(coeffValue(a, k), 0);
}

TEST_F(RnsPolyTest, RescaleDividesAndRounds)
{
    // Poly with constant coefficient v; after rescale by q_last the
    // coefficient must be round(v / q_last) up to rounding of +-1/2.
    const std::size_t level = 3;
    const double q_last = static_cast<double>(basis_.q(level - 1).value());
    const std::int64_t v = (1ll << 58) + 12345;
    RnsPoly p = constantPoly(v, level);
    p.rescaleLastPrime();
    EXPECT_EQ(p.level(), level - 1);
    const std::int64_t got = coeffValue(p, 0);
    const double expect = static_cast<double>(v) / q_last;
    EXPECT_NEAR(static_cast<double>(got), expect, 1.0);
}

TEST_F(RnsPolyTest, ModDownSpecialDividesByP)
{
    const std::size_t level = 2;
    RnsPoly p(basis_, level, true, PolyDomain::coeff);
    const std::int64_t v = (1ll << 57) + 999;
    for (std::size_t i = 0; i < p.limbCount(); ++i) {
        const Modulus &q = p.limbModulus(i);
        for (auto &x : p.limb(i))
            x = q.reduceSigned(v);
    }
    p.modDownSpecial();
    EXPECT_FALSE(p.hasSpecial());
    const double expect =
        static_cast<double>(v) /
        static_cast<double>(basis_.specialPrime().value());
    EXPECT_NEAR(static_cast<double>(coeffValue(p, 0)), expect, 1.0);
}

TEST_F(RnsPolyTest, GaloisPermutesWithSignFlips)
{
    // p = X; galois by elt maps it to X^elt (exponent < N, no flip).
    const std::uint64_t n = basis_.n();
    RnsPoly p(basis_, 1, false, PolyDomain::coeff);
    p.limb(0)[1] = 1;
    const std::uint64_t elt = 5;
    RnsPoly g = p.galois(elt);
    EXPECT_EQ(g.limb(0)[5], 1u);
    EXPECT_EQ(g.limb(0)[1], 0u);

    // p = X^(n-1): exponent (n-1)*5 = 4n + (n-5); X^(4n) = (+1)^2, so
    // the image is +X^(n-5) with no sign flip.
    RnsPoly h(basis_, 1, false, PolyDomain::coeff);
    h.limb(0)[n - 1] = 1;
    RnsPoly gh = h.galois(elt);
    EXPECT_EQ(gh.limb(0)[n - 5], 1u);

    // p = X^((n+1)/... ): pick k with k*elt mod 2n in [n, 2n) to force a
    // flip: k = n/2 gives n/2*5 = 2n + n/2 -> exponent n/2 after one full
    // 2n wrap (even, no flip); k = n/4*3? Use direct search instead.
    std::uint64_t flip_k = 0;
    for (std::uint64_t k = 1; k < n; ++k) {
        if ((k * elt) % (2 * n) >= n) {
            flip_k = k;
            break;
        }
    }
    ASSERT_NE(flip_k, 0u);
    RnsPoly f(basis_, 1, false, PolyDomain::coeff);
    f.limb(0)[flip_k] = 1;
    RnsPoly gf = f.galois(elt);
    const std::uint64_t q0 = basis_.q(0).value();
    EXPECT_EQ(gf.limb(0)[(flip_k * elt) % (2 * n) - n], q0 - 1);
}

TEST_F(RnsPolyTest, GaloisIsRingHomomorphism)
{
    // galois(a * b) == galois(a) * galois(b)
    RnsPoly a(basis_, 2, false, PolyDomain::coeff);
    RnsPoly b(basis_, 2, false, PolyDomain::coeff);
    a.sampleUniform(rng_);
    b.sampleUniform(rng_);
    const std::uint64_t elt = 25; // 5^2

    RnsPoly prod = a;
    RnsPoly bn = b;
    prod.toNtt();
    bn.toNtt();
    prod.mulInplace(bn);
    prod.fromNtt();
    RnsPoly lhs = prod.galois(elt);

    RnsPoly ga = a.galois(elt);
    RnsPoly gb = b.galois(elt);
    ga.toNtt();
    gb.toNtt();
    ga.mulInplace(gb);
    ga.fromNtt();

    EXPECT_TRUE(lhs == ga);
}

TEST_F(RnsPolyTest, DropLastPrimeKeepsResidues)
{
    RnsPoly p(basis_, 3, false, PolyDomain::coeff);
    p.sampleUniform(rng_);
    RnsPoly copy = p;
    p.dropLastPrime();
    EXPECT_EQ(p.level(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t k = 0; k < basis_.n(); ++k)
            EXPECT_EQ(p.limb(i)[k], copy.limb(i)[k]);
    }
}

TEST(RnsPolyDomains, NttDomainModDownAndRescaleMatchCoefficientDomain)
{
    // Dividing by the dropped prime in the NTT domain (only the dropped
    // limb inverse-transformed) must give the exact bytes of the
    // coefficient-domain reference followed by a forward NTT, at every
    // level of the 30-, 36- and 50-bit chains (special primes of 50,
    // 50 and 60 bits) and every reachable dispatch level.
    Rng rng(515);
    for (unsigned bits : {30u, 36u, 50u}) {
        const ckks::CkksContext ctx(ckks::testParams(1024, 6, bits));
        const RnsBasis &basis = ctx.basis();
        for (simd::Level simdLevel :
             {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
            if (!simd::available(simdLevel))
                continue;
            simd::ScopedLevel pin(simdLevel);
            for (std::size_t level = 1; level <= basis.levels(); ++level) {
                RnsPoly ext(basis, level, /*withSpecial=*/true,
                            PolyDomain::coeff);
                ext.sampleUniform(rng);
                RnsPoly want = ext;
                want.modDownSpecial();
                want.toNtt();
                RnsPoly got = ext;
                got.toNtt();
                got.modDownSpecial();
                EXPECT_TRUE(got == want)
                    << "ModDown bits=" << bits << " level=" << level
                    << " @" << simd::levelName(simdLevel);
                // One batch over both domains gives each the bytes of
                // its own single call.
                RnsPoly batchN = ext;
                batchN.toNtt();
                RnsPoly batchC = ext;
                const std::array<RnsPoly *, 2> pair{&batchN, &batchC};
                batchModDownSpecial(pair);
                batchC.toNtt();
                EXPECT_TRUE(batchN == want && batchC == want)
                    << "batched ModDown bits=" << bits
                    << " level=" << level;
                if (level < 2)
                    continue;
                RnsPoly poly(basis, level, false, PolyDomain::coeff);
                poly.sampleUniform(rng);
                RnsPoly wantR = poly;
                wantR.rescaleLastPrime();
                wantR.toNtt();
                RnsPoly gotR = poly;
                gotR.toNtt();
                gotR.rescaleLastPrime();
                EXPECT_TRUE(gotR == wantR)
                    << "rescale bits=" << bits << " level=" << level
                    << " @" << simd::levelName(simdLevel);
                RnsPoly batchRN = poly;
                batchRN.toNtt();
                RnsPoly batchRC = poly;
                const std::array<RnsPoly *, 2> pairR{&batchRN, &batchRC};
                batchRescaleLastPrime(pairR);
                batchRC.toNtt();
                EXPECT_TRUE(batchRN == wantR && batchRC == wantR)
                    << "batched rescale bits=" << bits
                    << " level=" << level;
            }
        }
    }
}

} // namespace
} // namespace fxhenn
