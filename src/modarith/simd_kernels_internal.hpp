/**
 * @file
 * Internal linkage between the dispatcher and the per-ISA kernel
 * translation units. Each TU defines its table accessor; a definition
 * exists only when CMake compiled that TU (FXHENN_HAVE_AVX2_TU /
 * FXHENN_HAVE_AVX512_TU), so callers must guard uses with those
 * macros. The avx512 TU also reuses avx2 kernels for the entries it
 * does not re-implement, and delegates wide-modulus calls (q >= 2^50,
 * outside the 52-bit IFMA datapath) to the avx2 table.
 */
#ifndef FXHENN_MODARITH_SIMD_KERNELS_INTERNAL_HPP
#define FXHENN_MODARITH_SIMD_KERNELS_INTERNAL_HPP

#include "src/modarith/simd_dispatch.hpp"

namespace fxhenn::simd::detail {

const Kernels &scalarKernels();
const Kernels &avx2Kernels();   // defined iff FXHENN_HAVE_AVX2_TU
const Kernels &avx512Kernels(); // defined iff FXHENN_HAVE_AVX512_TU

/**
 * Kernels::innerProduct over coefficients [from, n) with 128-bit sums
 * and Modulus::reduceWide: the scalar kernel (from = 0) and the ragged
 * tail of every vector one.
 */
inline void
innerProductRange(std::uint64_t *dst0, std::uint64_t *dst1,
                  const std::uint64_t *const *a,
                  const std::uint64_t *const *b0,
                  const std::uint64_t *const *b1, std::size_t digits,
                  const std::uint32_t *perm, std::size_t from,
                  std::size_t n, const Modulus &q)
{
    for (std::size_t k = from; k < n; ++k) {
        const std::size_t src = perm ? perm[k] : k;
        unsigned __int128 s0 = 0;
        unsigned __int128 s1 = 0;
        for (std::size_t i = 0; i < digits; ++i) {
            const unsigned __int128 x = a[i][src];
            s0 += x * b0[i][k];
            s1 += x * b1[i][k];
        }
        dst0[k] = q.reduceWide(s0);
        dst1[k] = q.reduceWide(s1);
    }
}

} // namespace fxhenn::simd::detail

#endif // FXHENN_MODARITH_SIMD_KERNELS_INTERNAL_HPP
