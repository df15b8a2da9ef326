/**
 * @file
 * Polynomials in RNS (double-CRT) representation.
 *
 * An RnsPoly is an element of R_Q = Z_Q[X]/(X^N + 1) stored as one limb
 * of N residues per active data prime, plus an optional extra limb for
 * the key-switching special prime. Each limb is independently in either
 * coefficient or NTT (evaluation) domain; the whole polynomial carries a
 * single domain tag, matching the per-RNS-polynomial processing the
 * paper's HE operation modules pipeline over (Sec. V-B).
 */
#ifndef FXHENN_RNS_RNS_POLY_HPP
#define FXHENN_RNS_RNS_POLY_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/rns/rns_basis.hpp"
#include "src/rns/workspace_pool.hpp"

namespace fxhenn {

/** Representation domain of an RnsPoly. */
enum class PolyDomain { coeff, ntt };

/** An element of R_{Q_level} (optionally extended by the special prime). */
class RnsPoly
{
  public:
    RnsPoly() = default;

    /**
     * Construct the zero polynomial.
     *
     * @param basis       the RNS basis (must outlive the polynomial)
     * @param level       number of active data primes (1..basis.levels())
     * @param withSpecial also allocate the special-prime limb
     * @param domain      initial domain tag
     */
    RnsPoly(const RnsBasis &basis, std::size_t level,
            bool withSpecial = false, PolyDomain domain = PolyDomain::ntt);

    /**
     * A polynomial of the same shape with unspecified limb contents,
     * for a caller that writes every limb before it reads one (it
     * skips the constructor's zero fill, which on the keyswitch path
     * is serial work on the request's thread).
     */
    static RnsPoly uninitialized(const RnsBasis &basis, std::size_t level,
                                 bool withSpecial, PolyDomain domain);

    const RnsBasis &basis() const { return *basis_; }
    std::size_t level() const { return level_; }
    bool hasSpecial() const { return hasSpecial_; }
    PolyDomain domain() const { return domain_; }
    void setDomain(PolyDomain d) { domain_ = d; }
    std::uint64_t n() const { return basis_->n(); }

    /** Number of limbs including the special limb when present. */
    std::size_t limbCount() const { return limbs_.size(); }

    /** Mutable access to data limb @p i (special limb = index level()). */
    std::span<std::uint64_t> limb(std::size_t i);
    std::span<const std::uint64_t> limb(std::size_t i) const;

    /** Modulus of limb @p i (the special prime for i == level()). */
    const Modulus &limbModulus(std::size_t i) const;

    /** NTT tables of limb @p i. */
    const NttTables &limbNtt(std::size_t i) const;

    // --- element-wise arithmetic (operands must share basis/level/domain)

    /** this += other */
    void addInplace(const RnsPoly &other);
    /** this -= other */
    void subInplace(const RnsPoly &other);
    /** this = -this */
    void negateInplace();
    /** this *= other, element-wise; both must be in NTT domain. */
    void mulInplace(const RnsPoly &other);
    /** this += a * b, element-wise; all in NTT domain. */
    void addProduct(const RnsPoly &a, const RnsPoly &b);
    /** Multiply every limb j by scalar[j] (one scalar per limb). */
    void mulScalarPerLimb(std::span<const std::uint64_t> scalars);

    // --- domain conversion

    /** Convert all limbs coefficient -> NTT domain. */
    void toNtt();
    /** Convert all limbs NTT -> coefficient domain. */
    void fromNtt();

    // --- level management

    /**
     * Drop the last data prime with scaling: the RNS-CKKS Rescale core.
     * For each remaining limb j:
     *     c_j <- (c_j - [c_last]) * q_last^-1  (mod q_j)
     * where [c_last] is the centered residue. Works in either domain
     * (bitwise the same result); the polynomial must have no special
     * limb. Decreases level() by one.
     */
    void rescaleLastPrime();

    /**
     * Exact divide-and-round by the special prime (hybrid key-switch
     * ModDown). Works in either domain; requires a special limb and
     * removes it.
     */
    void modDownSpecial();

    /** Drop the last data prime without scaling (ModSwitch). */
    void dropLastPrime();

    /**
     * Set every limb to the residues of @p coeffs (one signed value
     * per coefficient, n() of them), in the NTT domain. One limb loop
     * reduces and transforms each limb.
     */
    void assignSigned(std::span<const std::int64_t> coeffs);

    // --- sampling

    /** Fill with uniform residues (independent per limb); coefficient
     *  domain. */
    void sampleUniform(Rng &rng);
    /** Fill with a shared ternary secret across all limbs, drawn once
     *  per coefficient; NTT domain (see assignSigned). */
    void sampleTernary(Rng &rng);
    /** Fill with a shared centered Gaussian error across all limbs,
     *  drawn once per coefficient; NTT domain. */
    void sampleGaussian(Rng &rng, double sigma);

    /**
     * Apply the Galois automorphism X -> X^galoisElt to a coefficient
     * domain polynomial. @p galoisElt must be odd.
     */
    RnsPoly galois(std::uint64_t galoisElt) const;

    /**
     * Apply a Galois automorphism to an NTT-domain polynomial as a
     * pure permutation of every limb: out.limb(i)[t] =
     * limb(i)[perm[t]]. The table comes from the context's Galois
     * cache (the automorphism permutes the odd 2N-th roots, so in
     * evaluation form it is a gather with no negations and no domain
     * round trip).
     */
    RnsPoly permuteNtt(std::span<const std::uint32_t> perm) const;

    bool operator==(const RnsPoly &other) const;

  private:
    friend void batchRescaleLastPrime(std::span<RnsPoly *const> polys);
    friend void batchModDownSpecial(std::span<RnsPoly *const> polys);

    /** The public constructor's shape; zero-fills the limbs when
     *  @p zeroFill is set. */
    RnsPoly(const RnsBasis &basis, std::size_t level, bool withSpecial,
            PolyDomain domain, bool zeroFill);

    void checkCompatible(const RnsPoly &other) const;

    /**
     * The divide-and-round both rescale and ModDown share: c_j <- (c_j
     * - [c_last]) * p^-1 mod q_j for every remaining limb j of every
     * polynomial, where p is the prime of its last limb (the special
     * prime when present), then drop that limb. In the NTT domain only
     * the dropped limbs are inverse-transformed. Two limb loops serve
     * all of @p polys: the dropped limbs, one job each, then every
     * (polynomial, remaining limb) pair.
     */
    static void divideByLastLimb(std::span<RnsPoly *const> polys);

    const RnsBasis *basis_ = nullptr;
    std::size_t level_ = 0;
    bool hasSpecial_ = false;
    PolyDomain domain_ = PolyDomain::ntt;
    /** Pooled storage: limb buffers recycle through the WorkspacePool. */
    std::vector<rns::PooledBuffer> limbs_;
};

/**
 * Convert several polynomials NTT -> coefficient domain with ONE
 * parallelFor over every (polynomial, limb) job — the batched form the
 * keyswitch core uses so limb-level parallelism spans all its
 * polynomials instead of synchronizing per polynomial.
 */
void batchFromNtt(std::span<RnsPoly *const> polys);

/** Batched counterpart of toNtt() (coefficient -> NTT domain). */
void batchToNtt(std::span<RnsPoly *const> polys);

/**
 * rescaleLastPrime() on several polynomials (the parts of one
 * ciphertext) with two limb loops between them instead of two each.
 */
void batchRescaleLastPrime(std::span<RnsPoly *const> polys);

/** modDownSpecial() on several polynomials, batched the same way. */
void batchModDownSpecial(std::span<RnsPoly *const> polys);

} // namespace fxhenn

#endif // FXHENN_RNS_RNS_POLY_HPP
