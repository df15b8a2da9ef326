/**
 * @file
 * Scalar-vs-SIMD differential matrix: every kernel in the dispatch
 * table must be bitwise identical to the scalar reference
 * (simd_kernels_scalar.cpp) at every dispatch level reachable on this
 * host — first kernel by kernel over randomized residues across the
 * preset prime widths (including the >= 2^50 moduli that exercise the
 * avx512 wide-q delegation), then end to end over a full model-zoo
 * encrypted inference. Runs under the ASan and TSan presets like any
 * other fast-labeled suite; the simd-off preset shrinks the reachable
 * set to {scalar}, where the matrix degenerates to a self-check and
 * the per-level rows report as skipped.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "src/ckks/params.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/modarith/ntt.hpp"
#include "src/modarith/primes.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn {
namespace simd {

/** gtest parameter printer: levels print by name. */
void
PrintTo(Level level, std::ostream *os)
{
    *os << levelName(level);
}

} // namespace simd

namespace {

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

/** Every preset data/special prime width the stack can configure,
 * including the ones past the avx512 52-bit datapath. */
std::vector<Modulus>
presetPrimes()
{
    std::vector<Modulus> primes;
    for (unsigned bits : {30u, 36u, 42u, 50u, 55u, 60u})
        primes.emplace_back(generateNttPrimes(bits, 4096, 1)[0]);
    return primes;
}

std::vector<std::uint64_t>
randomResidues(std::mt19937_64 &rng, std::size_t n, std::uint64_t q)
{
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng() % q;
    return v;
}

void
expectArrayKernelsMatch(simd::Level level)
{
    std::mt19937_64 rng(2024);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    const auto &kern = simd::kernelsFor(level);
    // Ragged length on purpose: tails must agree too.
    const std::size_t n = 4096 + 3;
    const auto primes = presetPrimes();
    for (const Modulus &q : primes) {
        const auto a = randomResidues(rng, n, q.value());
        const auto b = randomResidues(rng, n, q.value());
        const auto dst0 = randomResidues(rng, n, q.value());
        std::vector<std::uint64_t> wide(n);
        for (auto &x : wide)
            x = rng() % (q.value() < (1ull << 32)
                             ? q.value() * q.value()
                             : ~0ull);
        std::vector<std::uint64_t> want(n), got(n);

        ref.addArray(want.data(), a.data(), b.data(), n, q);
        kern.addArray(got.data(), a.data(), b.data(), n, q);
        EXPECT_EQ(want, got) << "addArray @" << simd::levelName(level)
                             << " q=" << q.value();

        ref.subArray(want.data(), a.data(), b.data(), n, q);
        kern.subArray(got.data(), a.data(), b.data(), n, q);
        EXPECT_EQ(want, got) << "subArray @" << simd::levelName(level)
                             << " q=" << q.value();

        ref.mulArray(want.data(), a.data(), b.data(), n, q);
        kern.mulArray(got.data(), a.data(), b.data(), n, q);
        EXPECT_EQ(want, got) << "mulArray @" << simd::levelName(level)
                             << " q=" << q.value();

        want = dst0;
        got = dst0;
        ref.fmaModArray(want.data(), a.data(), b.data(), n, q);
        kern.fmaModArray(got.data(), a.data(), b.data(), n, q);
        EXPECT_EQ(want, got) << "fmaModArray @" << simd::levelName(level)
                             << " q=" << q.value();

        ref.reduceArray(want.data(), wide.data(), n, q);
        kern.reduceArray(got.data(), wide.data(), n, q);
        EXPECT_EQ(want, got) << "reduceArray @" << simd::levelName(level)
                             << " q=" << q.value();

        // Drop every other preset prime p into q: centered residues,
        // then the subtract-and-scale by p^-1.
        for (const Modulus &p : primes) {
            if (p == q)
                continue;
            const auto tail = randomResidues(rng, n, p.value());
            const std::uint64_t inv = q.inverse(p.value() % q.value());
            ref.centerLimb(want.data(), tail.data(), n, q, p);
            kern.centerLimb(got.data(), tail.data(), n, q, p);
            EXPECT_EQ(want, got)
                << "centerLimb @" << simd::levelName(level)
                << " q=" << q.value() << " p=" << p.value();
            std::vector<std::uint64_t> wantD = dst0, gotD = dst0;
            ref.dropLimb(wantD.data(), want.data(), n, q, inv,
                         q.shoupConstant(inv));
            kern.dropLimb(gotD.data(), want.data(), n, q, inv,
                          q.shoupConstant(inv));
            EXPECT_EQ(wantD, gotD)
                << "dropLimb @" << simd::levelName(level)
                << " q=" << q.value() << " p=" << p.value();
        }
    }
}

void
expectInnerProductMatches(simd::Level level)
{
    std::mt19937_64 rng(77);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    const auto &kern = simd::kernelsFor(level);
    const std::size_t n = 1024 + 5;
    for (const Modulus &q : presetPrimes()) {
        std::vector<std::uint32_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0u);
        std::shuffle(perm.begin(), perm.end(), rng);
        // 1..7 digits span the preset levels; 15 is the IFMA bound and
        // 16 takes the fallback past it.
        for (const std::size_t digits : {1ull, 3ull, 7ull, 15ull, 16ull}) {
            std::vector<std::vector<std::uint64_t>> rows;
            for (std::size_t i = 0; i < 3 * digits; ++i)
                rows.push_back(randomResidues(rng, n, q.value()));
            std::vector<const std::uint64_t *> a, b0, b1;
            for (std::size_t i = 0; i < digits; ++i) {
                a.push_back(rows[i].data());
                b0.push_back(rows[digits + i].data());
                b1.push_back(rows[2 * digits + i].data());
            }
            const std::uint32_t *noPerm = nullptr;
            const std::uint32_t *gather = perm.data();
            for (const std::uint32_t *pm : {noPerm, gather}) {
                std::vector<std::uint64_t> want0(n), want1(n), got0(n),
                    got1(n);
                ref.innerProduct(want0.data(), want1.data(), a.data(),
                                 b0.data(), b1.data(), digits, pm, n, q);
                kern.innerProduct(got0.data(), got1.data(), a.data(),
                                  b0.data(), b1.data(), digits, pm, n, q);
                EXPECT_EQ(want0, got0)
                    << "innerProduct @" << simd::levelName(level)
                    << " q=" << q.value() << " digits=" << digits
                    << (pm ? " gather" : "");
                EXPECT_EQ(want1, got1)
                    << "innerProduct (second key part) @"
                    << simd::levelName(level) << " q=" << q.value()
                    << " digits=" << digits << (pm ? " gather" : "");
            }
        }
    }
}

void
expectNttMatches(simd::Level level)
{
    std::mt19937_64 rng(55);
    for (const std::uint64_t n : {16ull, 64ull, 4096ull}) {
        for (unsigned bits : {30u, 50u, 55u, 60u}) {
            const Modulus q(generateNttPrimes(bits, n, 1)[0]);
            const NttTables ntt(n, q);
            const auto input = randomResidues(rng, n, q.value());

            auto fwdRef = input;
            auto invRef = input;
            {
                simd::ScopedLevel pin(simd::Level::scalar);
                ntt.forward(std::span<std::uint64_t>(fwdRef));
                ntt.inverse(std::span<std::uint64_t>(invRef));
            }
            simd::ScopedLevel pin(level);
            auto fwd = input;
            auto inv = input;
            ntt.forward(std::span<std::uint64_t>(fwd));
            ntt.inverse(std::span<std::uint64_t>(inv));
            EXPECT_EQ(fwdRef, fwd)
                << "forward NTT @" << simd::levelName(level) << " n=" << n
                << " bits=" << bits;
            EXPECT_EQ(invRef, inv)
                << "inverse NTT @" << simd::levelName(level) << " n=" << n
                << " bits=" << bits;
        }
    }
}

TEST(SimdDifferential, ArrayKernelsMatchScalarBitwise)
{
    for (simd::Level level : reachableLevels())
        expectArrayKernelsMatch(level);
}

TEST(SimdDifferential, LazyAccumulatorKernelsMatchScalarBitwise)
{
    // The fused inner product keeps each coefficient's digit sum
    // unreduced (in registers) and reduces once.
    for (simd::Level level : reachableLevels())
        expectInnerProductMatches(level);
}

TEST(SimdDifferential, NttMatchesScalarBitwiseAcrossPrimesAndSizes)
{
    for (simd::Level level : reachableLevels())
        expectNttMatches(level);
}

/**
 * One row per vector level: the whole kernel table against scalar.
 * A level that is compiled in but that this host cannot execute (or
 * one this build left out) reports as skipped with the reason, instead
 * of passing by omission as the cross-level loops above do.
 */
class SimdLevelDifferential : public ::testing::TestWithParam<simd::Level>
{
  protected:
    void
    SetUp() override
    {
        const simd::Level level = GetParam();
        if (!simd::compiledIn(level))
            GTEST_SKIP() << simd::levelName(level)
                         << " kernels are not compiled into this build";
        if (!simd::hostSupports(level))
            GTEST_SKIP() << "this host cannot execute the "
                         << simd::levelName(level) << " kernels ("
                         << (level == simd::Level::avx512
                                 ? "needs AVX-512 F/DQ/IFMA"
                                 : "needs AVX2")
                         << ")";
    }
};

TEST_P(SimdLevelDifferential, KernelTableMatchesScalar)
{
    expectArrayKernelsMatch(GetParam());
    expectInnerProductMatches(GetParam());
    expectNttMatches(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    VectorLevels, SimdLevelDifferential,
    ::testing::Values(simd::Level::avx2, simd::Level::avx512),
    [](const ::testing::TestParamInfo<simd::Level> &info) {
        return std::string(simd::levelName(info.param));
    });

bool
sameRegs(const std::vector<std::optional<ckks::Ciphertext>> &a,
         const std::vector<std::optional<ckks::Ciphertext>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t r = 0; r < a.size(); ++r) {
        if (a[r].has_value() != b[r].has_value())
            return false;
        if (!a[r])
            continue;
        if (a[r]->parts.size() != b[r]->parts.size())
            return false;
        for (std::size_t p = 0; p < a[r]->parts.size(); ++p)
            if (!(a[r]->parts[p] == b[r]->parts[p]))
                return false;
    }
    return true;
}

TEST(SimdDifferential, ZooInferenceIsBitwiseIdenticalAcrossLevels)
{
    // End-to-end matrix: a full encrypted inference of the zoo test
    // network under each reachable dispatch level must produce the
    // exact ciphertext bytes (and so the exact logits) of the scalar
    // build. This is the suite a new kernel cannot land without.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = hecnn::compile(net, params);
    ckks::CkksContext ctx(params);
    hecnn::ClientSession session(plan, ctx, /*seed=*/17);
    hecnn::PlaintextPool pool(plan, ctx);
    const hecnn::PlanExecutor executor(plan, ctx, session.relinKey(),
                                       session.galoisKeys(), pool);
    const auto input = nn::syntheticInput(net, 12);
    const auto encrypted = session.encryptInput({&input}, 0);

    std::optional<hecnn::ExecutionResult> ref;
    {
        simd::ScopedLevel pin(simd::Level::scalar);
        ref.emplace(executor.execute(encrypted));
    }
    ASSERT_FALSE(ref->degraded());
    const auto refLogits = session.decryptLogits(ref->regs);

    for (simd::Level level : reachableLevels()) {
        simd::ScopedLevel pin(level);
        const auto got = executor.execute(encrypted);
        ASSERT_FALSE(got.degraded());
        EXPECT_TRUE(sameRegs(ref->regs, got.regs))
            << "inference ciphertexts diverged from scalar at level "
            << simd::levelName(level);
        EXPECT_EQ(refLogits, session.decryptLogits(got.regs))
            << "logits diverged at level " << simd::levelName(level);
    }
}

} // namespace
} // namespace fxhenn
