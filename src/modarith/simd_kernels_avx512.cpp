/**
 * @file
 * AVX-512 (IFMA) modular-arithmetic kernels — 8 lanes of 64-bit
 * residues per vector op.
 *
 * The software analogue of the paper's widened modular-multiply
 * datapath: vpmadd52{lo,hi} gives eight exact 52x52->104-bit
 * multiply-adds per instruction. Three uses:
 *
 *  - NTT butterflies run the Shoup multiply on a 52-bit word
 *    (W' = floor(W*2^52/q), derived from the stored 64-bit Shoup
 *    constant by >> 12) with Harvey's lazy bounds: operands stay in
 *    [0, 4q) (forward) / [0, 2q) (inverse) and a final pass
 *    canonicalizes to [0, q).
 *  - The keyswitch inner product accumulates the lo and hi 52-bit
 *    halves of every digit product in registers, then reduces once.
 *  - mulArray, reduceArray and centerLimb split a value as
 *    hi * 2^52 + lo and reduce both halves with 52-bit Shoup
 *    multiplies (Ifma::reduce); dropLimb is one 52-bit Shoup multiply.
 *
 * Every kernel ends on the canonical residue, so the output array is
 * bitwise identical to the scalar reference
 * (tests/modarith/test_simd_differential.cpp).
 *
 * Datapath limit: the lazy bound 4q < 2^52 requires q < 2^50. CKKS
 * data primes are capped at 50 bits (CkksParams::validate), but
 * special primes may reach 60 bits; calls with q >= 2^50 (and inner
 * products of more than 15 digits) delegate to the avx2 kernel, which
 * has no width limit.
 *
 * Butterfly stages whose stride t is below the 8-lane width are
 * deinterleaved with permutex2var shuffles so they stay vector (one
 * pass covers 16 coefficients); rings below 16 coefficients run the
 * same lazy formulas in scalar code. Since every unit computes the
 * same integers, stages can mix freely.
 */
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "src/modarith/simd_kernels_internal.hpp"

// gcc's unmasked _mm512_min_epu64 passes an _mm512_undefined_epi32()
// merge source the optimizer then flags as maybe-uninitialized; the
// lanes are fully overwritten (mask = all ones), so the warning is a
// false positive.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace fxhenn::simd {
namespace {

constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;

/** q too wide for the 52-bit IFMA datapath (needs 4q < 2^52). */
inline bool
tooWide(std::uint64_t q)
{
    return q >= (std::uint64_t{1} << 50);
}

inline __m512i
loadU64(const std::uint64_t *p)
{
    return _mm512_loadu_si512(reinterpret_cast<const void *>(p));
}

inline void
storeU64(std::uint64_t *p, __m512i v)
{
    _mm512_storeu_si512(reinterpret_cast<void *>(p), v);
}

/** low/high 52 bits of the exact 104-bit product of 52-bit operands. */
inline __m512i
mul52lo(__m512i a, __m512i b)
{
    return _mm512_madd52lo_epu64(_mm512_setzero_si512(), a, b);
}

inline __m512i
mul52hi(__m512i a, __m512i b)
{
    return _mm512_madd52hi_epu64(_mm512_setzero_si512(), a, b);
}

/** x >= bound ? x - bound : x, for x < 2^63 (unsigned-min trick: the
 * subtraction underflows to a huge value exactly when x < bound). */
inline __m512i
csub(__m512i x, __m512i bound)
{
    return _mm512_min_epu64(x, _mm512_sub_epi64(x, bound));
}

/**
 * Harvey/Shoup multiply on the 52-bit word: W*X mod q in [0, 2q) for
 * any X < 2^52, W < q, Wp = floor(W*2^52/q). The masked subtraction
 * is exact because the true remainder is below 2^52.
 */
inline __m512i
shoup52(__m512i x, __m512i w, __m512i wp, __m512i q, __m512i m52)
{
    const __m512i quot = mul52hi(x, wp);
    const __m512i r =
        _mm512_sub_epi64(mul52lo(x, w), mul52lo(quot, q));
    return _mm512_and_si512(r, m52);
}

/** Scalar twin of shoup52 for tiny rings and tails. */
inline std::uint64_t
shoup52Scalar(std::uint64_t x, std::uint64_t w, std::uint64_t wp,
              std::uint64_t q)
{
    const std::uint64_t quot = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * wp) >> 52);
    return (x * w - quot * q) & kMask52;
}

/**
 * Shuffle plan for butterfly strides below the 8-lane width. Two
 * consecutive vectors (16 coefficients) are deinterleaved into an X
 * (upper-wing) and Y (lower-wing) vector, butterflied, and woven
 * back. Twiddles for the covered groups are contiguous in the table,
 * so one load + permutexvar spreads them across the lanes.
 */
struct SmallStride
{
    __m512i xIdx;   ///< permutex2var: gather upper wings from (v0,v1)
    __m512i yIdx;   ///< permutex2var: gather lower wings
    __m512i out0Idx; ///< permutex2var: weave (X', Y') into a[base..+8)
    __m512i out1Idx; ///< permutex2var: weave into a[base+8..+16)
    __m512i twIdx;  ///< permutexvar: spread loaded twiddles per lane
    std::uint64_t groups; ///< butterfly groups per 16 coefficients
};

inline SmallStride
smallStridePlan(std::uint64_t t)
{
    auto idx = [](long long a, long long b, long long c, long long d,
                  long long e, long long f, long long g, long long h) {
        return _mm512_setr_epi64(a, b, c, d, e, f, g, h);
    };
    SmallStride p;
    if (t == 4) {
        p.xIdx = idx(0, 1, 2, 3, 8, 9, 10, 11);
        p.yIdx = idx(4, 5, 6, 7, 12, 13, 14, 15);
        p.out0Idx = idx(0, 1, 2, 3, 8, 9, 10, 11);
        p.out1Idx = idx(4, 5, 6, 7, 12, 13, 14, 15);
        p.twIdx = idx(0, 0, 0, 0, 1, 1, 1, 1);
        p.groups = 2;
    } else if (t == 2) {
        p.xIdx = idx(0, 1, 4, 5, 8, 9, 12, 13);
        p.yIdx = idx(2, 3, 6, 7, 10, 11, 14, 15);
        p.out0Idx = idx(0, 1, 8, 9, 2, 3, 10, 11);
        p.out1Idx = idx(4, 5, 12, 13, 6, 7, 14, 15);
        p.twIdx = idx(0, 0, 1, 1, 2, 2, 3, 3);
        p.groups = 4;
    } else { // t == 1
        p.xIdx = idx(0, 2, 4, 6, 8, 10, 12, 14);
        p.yIdx = idx(1, 3, 5, 7, 9, 11, 13, 15);
        p.out0Idx = idx(0, 8, 1, 9, 2, 10, 3, 11);
        p.out1Idx = idx(4, 12, 5, 13, 6, 14, 7, 15);
        p.twIdx = idx(0, 1, 2, 3, 4, 5, 6, 7);
        p.groups = 8;
    }
    return p;
}

void
nttForwardAvx512(std::uint64_t *a, std::uint64_t n, const std::uint64_t *w,
                 const std::uint64_t *wShoup, std::uint64_t q)
{
    if (tooWide(q)) {
        detail::avx2Kernels().nttForward(a, n, w, wShoup, q);
        return;
    }
    const std::uint64_t q2 = 2 * q;
    const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    const __m512i q2v = _mm512_set1_epi64(static_cast<long long>(q2));
    const __m512i m52 = _mm512_set1_epi64(static_cast<long long>(kMask52));

    // Cooley-Tukey DIT, lazy Harvey butterflies: operands in [0, 4q).
    std::uint64_t t = n;
    for (std::uint64_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 8) {
            for (std::uint64_t i = 0; i < m; ++i) {
                const __m512i wv = _mm512_set1_epi64(
                    static_cast<long long>(w[m + i]));
                const __m512i wpv = _mm512_set1_epi64(
                    static_cast<long long>(wShoup[m + i] >> 12));
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; j += 8) {
                    const __m512i x = csub(loadU64(a + j), q2v);
                    const __m512i v =
                        shoup52(loadU64(a + j + t), wv, wpv, qv, m52);
                    storeU64(a + j, _mm512_add_epi64(x, v));
                    storeU64(a + j + t,
                             _mm512_add_epi64(_mm512_sub_epi64(x, v),
                                              q2v));
                }
            }
        } else if (n >= 16) {
            // Sub-width strides: one shuffled pass over the whole
            // row, 16 coefficients (p.groups butterfly groups) at a
            // time. Twiddles w[m..2m) are contiguous, so the group
            // block starting at coefficient `base` uses the p.groups
            // twiddles at w[m + base/(2t)).
            const SmallStride p = smallStridePlan(t);
            for (std::uint64_t base = 0, g = 0; base < n;
                 base += 16, g += p.groups) {
                const __m512i wv = _mm512_permutexvar_epi64(
                    p.twIdx, loadU64(w + m + g));
                const __m512i wpv = _mm512_srli_epi64(
                    _mm512_permutexvar_epi64(p.twIdx,
                                             loadU64(wShoup + m + g)),
                    12);
                const __m512i v0 = loadU64(a + base);
                const __m512i v1 = loadU64(a + base + 8);
                const __m512i x = csub(
                    _mm512_permutex2var_epi64(v0, p.xIdx, v1), q2v);
                const __m512i v = shoup52(
                    _mm512_permutex2var_epi64(v0, p.yIdx, v1), wv, wpv,
                    qv, m52);
                const __m512i xn = _mm512_add_epi64(x, v);
                const __m512i yn = _mm512_add_epi64(
                    _mm512_sub_epi64(x, v), q2v);
                storeU64(a + base,
                         _mm512_permutex2var_epi64(xn, p.out0Idx, yn));
                storeU64(a + base + 8,
                         _mm512_permutex2var_epi64(xn, p.out1Idx, yn));
            }
        } else {
            for (std::uint64_t i = 0; i < m; ++i) {
                const std::uint64_t wi = w[m + i];
                const std::uint64_t wp = wShoup[m + i] >> 12;
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; ++j) {
                    std::uint64_t x = a[j];
                    if (x >= q2)
                        x -= q2;
                    const std::uint64_t v =
                        shoup52Scalar(a[j + t], wi, wp, q);
                    a[j] = x + v;
                    a[j + t] = x - v + q2;
                }
            }
        }
    }
    // Canonicalize [0, 4q) -> [0, q); outputs now match the scalar
    // reference bitwise.
    std::uint64_t k = 0;
    for (; k + 8 <= n; k += 8)
        storeU64(a + k, csub(csub(loadU64(a + k), q2v), qv));
    for (; k < n; ++k) {
        if (a[k] >= q2)
            a[k] -= q2;
        if (a[k] >= q)
            a[k] -= q;
    }
}

void
nttInverseAvx512(std::uint64_t *a, std::uint64_t n, const std::uint64_t *w,
                 const std::uint64_t *wShoup, std::uint64_t q,
                 std::uint64_t invN, std::uint64_t invNShoup)
{
    if (tooWide(q)) {
        detail::avx2Kernels().nttInverse(a, n, w, wShoup, q, invN,
                                         invNShoup);
        return;
    }
    const std::uint64_t q2 = 2 * q;
    const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    const __m512i q2v = _mm512_set1_epi64(static_cast<long long>(q2));
    const __m512i m52 = _mm512_set1_epi64(static_cast<long long>(kMask52));

    // Gentleman-Sande DIF, lazy: operands stay in [0, 2q).
    std::uint64_t t = 1;
    for (std::uint64_t m = n; m > 1; m >>= 1) {
        const std::uint64_t h = m >> 1;
        if (t >= 8) {
            for (std::uint64_t i = 0; i < h; ++i) {
                const __m512i wv = _mm512_set1_epi64(
                    static_cast<long long>(w[h + i]));
                const __m512i wpv = _mm512_set1_epi64(
                    static_cast<long long>(wShoup[h + i] >> 12));
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; j += 8) {
                    const __m512i x = loadU64(a + j);
                    const __m512i y = loadU64(a + j + t);
                    const __m512i diff = _mm512_add_epi64(
                        _mm512_sub_epi64(x, y), q2v);
                    storeU64(a + j,
                             csub(_mm512_add_epi64(x, y), q2v));
                    storeU64(a + j + t,
                             shoup52(diff, wv, wpv, qv, m52));
                }
            }
        } else if (n >= 16) {
            const SmallStride p = smallStridePlan(t);
            for (std::uint64_t base = 0, g = 0; base < n;
                 base += 16, g += p.groups) {
                const __m512i wv = _mm512_permutexvar_epi64(
                    p.twIdx, loadU64(w + h + g));
                const __m512i wpv = _mm512_srli_epi64(
                    _mm512_permutexvar_epi64(p.twIdx,
                                             loadU64(wShoup + h + g)),
                    12);
                const __m512i v0 = loadU64(a + base);
                const __m512i v1 = loadU64(a + base + 8);
                const __m512i x =
                    _mm512_permutex2var_epi64(v0, p.xIdx, v1);
                const __m512i y =
                    _mm512_permutex2var_epi64(v0, p.yIdx, v1);
                const __m512i diff =
                    _mm512_add_epi64(_mm512_sub_epi64(x, y), q2v);
                const __m512i xn = csub(_mm512_add_epi64(x, y), q2v);
                const __m512i yn = shoup52(diff, wv, wpv, qv, m52);
                storeU64(a + base,
                         _mm512_permutex2var_epi64(xn, p.out0Idx, yn));
                storeU64(a + base + 8,
                         _mm512_permutex2var_epi64(xn, p.out1Idx, yn));
            }
        } else {
            for (std::uint64_t i = 0; i < h; ++i) {
                const std::uint64_t wi = w[h + i];
                const std::uint64_t wp = wShoup[h + i] >> 12;
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; ++j) {
                    const std::uint64_t x = a[j];
                    const std::uint64_t y = a[j + t];
                    std::uint64_t s = x + y;
                    if (s >= q2)
                        s -= q2;
                    a[j] = s;
                    a[j + t] = shoup52Scalar(x - y + q2, wi, wp, q);
                }
            }
        }
        t <<= 1;
    }
    // Merged N^-1 scaling + canonicalization: shoup52 lands in
    // [0, 2q), one conditional subtraction reaches [0, q).
    const std::uint64_t invNp = invNShoup >> 12;
    const __m512i invNv = _mm512_set1_epi64(static_cast<long long>(invN));
    const __m512i invNpv =
        _mm512_set1_epi64(static_cast<long long>(invNp));
    std::uint64_t k = 0;
    for (; k + 8 <= n; k += 8)
        storeU64(a + k,
                 csub(shoup52(loadU64(a + k), invNv, invNpv, qv, m52),
                      qv));
    for (; k < n; ++k) {
        const std::uint64_t r = shoup52Scalar(a[k], invN, invNp, q);
        a[k] = r >= q ? r - q : r;
    }
}

// --- radix-2^52 reduction and the array kernels --------------------------

/** Broadcast IFMA constants of one Modulus (q < 2^50). */
struct Ifma
{
    explicit Ifma(const Modulus &m)
        : q(_mm512_set1_epi64(static_cast<long long>(m.value()))),
          q2(_mm512_set1_epi64(static_cast<long long>(2 * m.value()))),
          m52(_mm512_set1_epi64(static_cast<long long>(kMask52))),
          radix(_mm512_set1_epi64(static_cast<long long>(m.radix52()))),
          radixShoup(_mm512_set1_epi64(
              static_cast<long long>(m.radix52Shoup()))),
          unitShoup(_mm512_set1_epi64(
              static_cast<long long>(m.unitShoup52())))
    {}

    /**
     * (hi * 2^52 + lo) mod q, canonical, for hi + (lo >> 52) < 2^52:
     * lo's bits above 52 carry into hi, then hi * (2^52 mod q) and lo
     * each take one 52-bit Shoup multiply into [0, 2q), and their sum
     * (< 4q < 2^52) takes two conditional subtractions.
     */
    __m512i
    reduce(__m512i hi, __m512i lo) const
    {
        hi = _mm512_add_epi64(hi, _mm512_srli_epi64(lo, 52));
        lo = _mm512_and_si512(lo, m52);
        const __m512i rHi = shoup52(hi, radix, radixShoup, q, m52);
        const __m512i rLo = _mm512_sub_epi64(
            lo, mul52lo(mul52hi(lo, unitShoup), q));
        return csub(csub(_mm512_add_epi64(rHi, rLo), q2), q);
    }

    __m512i q, q2, m52, radix, radixShoup, unitShoup;
};

/**
 * Digit count the IFMA inner product holds exactly: each product of
 * residues below 2^50 contributes a high half below 2^48, so 15 of
 * them (plus the low-half carries) keep the high sum below 2^52.
 */
constexpr std::size_t kMaxIfmaDigits = 15;

void
innerProductAvx512(std::uint64_t *dst0, std::uint64_t *dst1,
                   const std::uint64_t *const *a,
                   const std::uint64_t *const *b0,
                   const std::uint64_t *const *b1, std::size_t digits,
                   const std::uint32_t *perm, std::size_t n,
                   const Modulus &q)
{
    if (tooWide(q.value()) || digits > kMaxIfmaDigits) {
        detail::avx2Kernels().innerProduct(dst0, dst1, a, b0, b1, digits,
                                           perm, n, q);
        return;
    }
    const Ifma c(q);
    const __m512i zero = _mm512_setzero_si512();
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        __m256i idx = _mm256_setzero_si256();
        if (perm)
            idx = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(perm + k));
        // The digit sum as exact lo/hi 52-bit halves of each product.
        __m512i lo0 = zero, hi0 = zero, lo1 = zero, hi1 = zero;
        for (std::size_t i = 0; i < digits; ++i) {
            const __m512i x =
                perm ? _mm512_i32gather_epi64(idx, a[i], 8)
                     : loadU64(a[i] + k);
            const __m512i y0 = loadU64(b0[i] + k);
            const __m512i y1 = loadU64(b1[i] + k);
            lo0 = _mm512_madd52lo_epu64(lo0, x, y0);
            hi0 = _mm512_madd52hi_epu64(hi0, x, y0);
            lo1 = _mm512_madd52lo_epu64(lo1, x, y1);
            hi1 = _mm512_madd52hi_epu64(hi1, x, y1);
        }
        storeU64(dst0 + k, c.reduce(hi0, lo0));
        storeU64(dst1 + k, c.reduce(hi1, lo1));
    }
    detail::innerProductRange(dst0, dst1, a, b0, b1, digits, perm, k, n,
                              q);
}

void
mulArrayAvx512(std::uint64_t *dst, const std::uint64_t *a,
               const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    if (tooWide(q.value())) {
        detail::avx2Kernels().mulArray(dst, a, b, n, q);
        return;
    }
    const Ifma c(q);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i x = loadU64(a + k);
        const __m512i y = loadU64(b + k);
        storeU64(dst + k, c.reduce(mul52hi(x, y), mul52lo(x, y)));
    }
    for (; k < n; ++k)
        dst[k] = q.mul(a[k], b[k]);
}

void
reduceArrayAvx512(std::uint64_t *dst, const std::uint64_t *src,
                  std::size_t n, const Modulus &q)
{
    if (tooWide(q.value())) {
        detail::avx2Kernels().reduceArray(dst, src, n, q);
        return;
    }
    const Ifma c(q);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i x = loadU64(src + k);
        storeU64(dst + k, c.reduce(_mm512_srli_epi64(x, 52),
                                   _mm512_and_si512(x, c.m52)));
    }
    for (; k < n; ++k)
        dst[k] = q.reduce(src[k]);
}

void
centerLimbAvx512(std::uint64_t *dst, const std::uint64_t *src,
                 std::size_t n, const Modulus &q, const Modulus &p)
{
    if (tooWide(q.value())) {
        detail::avx2Kernels().centerLimb(dst, src, n, q, p);
        return;
    }
    const Ifma c(q);
    const std::uint64_t half = p.value() / 2;
    const std::uint64_t pModQ = p.value() % q.value();
    const __m512i halfv = _mm512_set1_epi64(static_cast<long long>(half));
    const __m512i shift =
        _mm512_set1_epi64(static_cast<long long>(q.value() - pModQ));
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i x = loadU64(src + k);
        const __m512i res = c.reduce(_mm512_srli_epi64(x, 52),
                                     _mm512_and_si512(x, c.m52));
        // Residues above p/2 stand for x - p: subtract p mod q.
        const __m512i neg = csub(_mm512_add_epi64(res, shift), c.q);
        storeU64(dst + k, _mm512_mask_blend_epi64(
                              _mm512_cmpgt_epu64_mask(x, halfv), res, neg));
    }
    for (; k < n; ++k) {
        const std::uint64_t res = src[k] % q.value();
        dst[k] = src[k] > half ? q.sub(res, pModQ) : res;
    }
}

void
dropLimbAvx512(std::uint64_t *dst, const std::uint64_t *r, std::size_t n,
               const Modulus &q, std::uint64_t s, std::uint64_t sShoup)
{
    if (tooWide(q.value())) {
        detail::avx2Kernels().dropLimb(dst, r, n, q, s, sShoup);
        return;
    }
    const Ifma c(q);
    const __m512i sv = _mm512_set1_epi64(static_cast<long long>(s));
    const __m512i spv =
        _mm512_set1_epi64(static_cast<long long>(sShoup >> 12));
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i d = csub(
            _mm512_add_epi64(
                _mm512_sub_epi64(loadU64(dst + k), loadU64(r + k)), c.q),
            c.q);
        storeU64(dst + k, csub(shoup52(d, sv, spv, c.q, c.m52), c.q));
    }
    for (; k < n; ++k)
        dst[k] = q.mulShoup(q.sub(dst[k], r[k]), s, sShoup);
}

} // namespace

namespace detail {

const Kernels &
avx512Kernels()
{
    // The multiplying kernels run on the IFMA datapath; add, sub and
    // the fused multiply-add reuse the avx2 implementations.
    static const Kernels table = [] {
        Kernels k = avx2Kernels();
        k.level = Level::avx512;
        k.width = laneWidth(Level::avx512);
        k.nttForward = &nttForwardAvx512;
        k.nttInverse = &nttInverseAvx512;
        k.mulArray = &mulArrayAvx512;
        k.reduceArray = &reduceArrayAvx512;
        k.innerProduct = &innerProductAvx512;
        k.centerLimb = &centerLimbAvx512;
        k.dropLimb = &dropLimbAvx512;
        return k;
    }();
    return table;
}

} // namespace detail
} // namespace fxhenn::simd
