#include "src/rns/rns_poly.hpp"

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn {

RnsPoly::RnsPoly(const RnsBasis &basis, std::size_t level, bool withSpecial,
                 PolyDomain domain)
    : RnsPoly(basis, level, withSpecial, domain, /*zeroFill=*/true)
{
}

RnsPoly::RnsPoly(const RnsBasis &basis, std::size_t level, bool withSpecial,
                 PolyDomain domain, bool zeroFill)
    : basis_(&basis), level_(level), hasSpecial_(withSpecial),
      domain_(domain)
{
    FXHENN_FATAL_IF(level == 0 || level > basis.levels(),
                    "invalid polynomial level");
    const std::size_t count = level + (withSpecial ? 1 : 0);
    limbs_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        limbs_.push_back(zeroFill
                             ? rns::PooledBuffer(basis.n())
                             : rns::PooledBuffer::uninitialized(basis.n()));
}

RnsPoly
RnsPoly::uninitialized(const RnsBasis &basis, std::size_t level,
                       bool withSpecial, PolyDomain domain)
{
    return RnsPoly(basis, level, withSpecial, domain, /*zeroFill=*/false);
}

std::span<std::uint64_t>
RnsPoly::limb(std::size_t i)
{
    FXHENN_ASSERT(i < limbs_.size(), "limb index out of range");
    return limbs_[i];
}

std::span<const std::uint64_t>
RnsPoly::limb(std::size_t i) const
{
    FXHENN_ASSERT(i < limbs_.size(), "limb index out of range");
    return limbs_[i];
}

const Modulus &
RnsPoly::limbModulus(std::size_t i) const
{
    FXHENN_ASSERT(i < limbs_.size(), "limb index out of range");
    return i < level_ ? basis_->q(i) : basis_->specialPrime();
}

const NttTables &
RnsPoly::limbNtt(std::size_t i) const
{
    FXHENN_ASSERT(i < limbs_.size(), "limb index out of range");
    return i < level_ ? basis_->ntt(i) : basis_->nttSpecial();
}

void
RnsPoly::checkCompatible(const RnsPoly &other) const
{
    FXHENN_ASSERT(basis_ == other.basis_, "operands from different bases");
    FXHENN_ASSERT(level_ == other.level_, "operand level mismatch");
    FXHENN_ASSERT(hasSpecial_ == other.hasSpecial_,
                  "special-limb mismatch");
    FXHENN_ASSERT(domain_ == other.domain_, "operand domain mismatch");
}

void
RnsPoly::addInplace(const RnsPoly &other)
{
    checkCompatible(other);
    const auto &kern = simd::kernels();
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        auto &dst = limbs_[i];
        kern.addArray(dst.data(), dst.data(), other.limbs_[i].data(),
                      dst.size(), limbModulus(i));
    }
}

void
RnsPoly::subInplace(const RnsPoly &other)
{
    checkCompatible(other);
    const auto &kern = simd::kernels();
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        auto &dst = limbs_[i];
        kern.subArray(dst.data(), dst.data(), other.limbs_[i].data(),
                      dst.size(), limbModulus(i));
    }
}

void
RnsPoly::negateInplace()
{
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const Modulus &q = limbModulus(i);
        for (auto &x : limbs_[i])
            x = q.negate(x);
    }
}

void
RnsPoly::mulInplace(const RnsPoly &other)
{
    checkCompatible(other);
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "element-wise multiply requires NTT domain");
    const auto &kern = simd::kernels();
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        auto &dst = limbs_[i];
        kern.mulArray(dst.data(), dst.data(), other.limbs_[i].data(),
                      dst.size(), limbModulus(i));
    }
}

void
RnsPoly::addProduct(const RnsPoly &a, const RnsPoly &b)
{
    checkCompatible(a);
    checkCompatible(b);
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "addProduct requires NTT domain");
    const auto &kern = simd::kernels();
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        auto &dst = limbs_[i];
        kern.fmaModArray(dst.data(), a.limbs_[i].data(),
                         b.limbs_[i].data(), dst.size(), limbModulus(i));
    }
}

void
RnsPoly::mulScalarPerLimb(std::span<const std::uint64_t> scalars)
{
    FXHENN_ASSERT(scalars.size() == limbs_.size(),
                  "one scalar per limb required");
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const Modulus &q = limbModulus(i);
        const std::uint64_t s = scalars[i];
        for (auto &x : limbs_[i])
            x = q.mul(x, s);
    }
}

void
RnsPoly::toNtt()
{
    FXHENN_ASSERT(domain_ == PolyDomain::coeff, "already in NTT domain");
    // Limbs are independent polynomials mod distinct primes — the same
    // parallelism the FPGA design's P_intra knob exploits (Sec. V-B).
    parallelFor(limbs_.size(), [this](std::size_t i) {
        limbNtt(i).forward(limbs_[i]);
    });
    domain_ = PolyDomain::ntt;
}

void
RnsPoly::fromNtt()
{
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "already in coefficient domain");
    parallelFor(limbs_.size(), [this](std::size_t i) {
        limbNtt(i).inverse(limbs_[i]);
    });
    domain_ = PolyDomain::coeff;
}

void
RnsPoly::divideByLastLimb(std::span<RnsPoly *const> polys)
{
    // Only the dropped limb leaves the NTT domain: its centered
    // residues are transformed under each remaining prime, where the
    // subtraction and scaling happen. The NTT is linear mod q_j, so
    // this is bitwise the coefficient-domain result.
    std::vector<RnsPoly *> ntt;
    for (RnsPoly *p : polys)
        if (p->domain_ == PolyDomain::ntt)
            ntt.push_back(p);
    parallelFor(ntt.size(), [&](std::size_t k) {
        const std::size_t last = ntt[k]->limbs_.size() - 1;
        ntt[k]->limbNtt(last).inverse(ntt[k]->limbs_[last]);
    });
    // Remaining limbs are written disjointly (all read only the tail).
    std::vector<std::pair<RnsPoly *, std::size_t>> jobs;
    for (RnsPoly *p : polys)
        for (std::size_t j = 0; j + 1 < p->limbs_.size(); ++j)
            jobs.emplace_back(p, j);
    const auto &kern = simd::kernels();
    parallelFor(jobs.size(), [&](std::size_t job) {
        auto [poly, j] = jobs[job];
        const RnsPoly &p = *poly;
        const std::size_t last = p.limbs_.size() - 1;
        const auto &tail = p.limbs_[last];
        const Modulus &q = p.basis_->q(j);
        const std::uint64_t inv =
            p.hasSpecial_ ? p.basis_->invSpecial(j)
                          : p.basis_->invLastPrime(p.level_, j);
        auto r = rns::WorkspacePool::leaseU64(tail.size());
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 2);
        kern.centerLimb(r.data(), tail.data(), r.size(), q,
                        p.limbModulus(last));
        if (p.domain_ == PolyDomain::ntt)
            p.basis_->ntt(j).forward(r);
        kern.dropLimb(poly->limbs_[j].data(), r.data(), r.size(), q, inv,
                      q.shoupConstant(inv));
        rns::WorkspacePool::release(std::move(r));
    });
    for (RnsPoly *p : polys)
        p->limbs_.pop_back();
}

void
RnsPoly::rescaleLastPrime()
{
    RnsPoly *self = this;
    batchRescaleLastPrime({&self, 1});
}

void
RnsPoly::modDownSpecial()
{
    RnsPoly *self = this;
    batchModDownSpecial({&self, 1});
}

void
RnsPoly::dropLastPrime()
{
    FXHENN_ASSERT(!hasSpecial_, "drop with special limb present");
    FXHENN_ASSERT(level_ >= 2, "cannot drop below level 1");
    limbs_.pop_back();
    --level_;
}

void
RnsPoly::sampleUniform(Rng &rng)
{
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const Modulus &q = limbModulus(i);
        for (auto &x : limbs_[i])
            x = rng.uniform(q.value());
    }
    domain_ = PolyDomain::coeff;
}

void
RnsPoly::assignSigned(std::span<const std::int64_t> coeffs)
{
    FXHENN_ASSERT(coeffs.size() == basis_->n(),
                  "one signed value per coefficient required");
    parallelFor(limbs_.size(), [&](std::size_t i) {
        const Modulus &q = limbModulus(i);
        auto &dst = limbs_[i];
        for (std::size_t k = 0; k < coeffs.size(); ++k)
            dst[k] = q.reduceSigned(coeffs[k]);
        limbNtt(i).forward(dst);
    });
    domain_ = PolyDomain::ntt;
}

void
RnsPoly::sampleTernary(Rng &rng)
{
    std::vector<std::int64_t> secret(basis_->n());
    for (auto &s : secret)
        s = rng.ternary();
    assignSigned(secret);
}

void
RnsPoly::sampleGaussian(Rng &rng, double sigma)
{
    std::vector<std::int64_t> err(basis_->n());
    for (auto &e : err)
        e = rng.gaussian(sigma);
    assignSigned(err);
}

RnsPoly
RnsPoly::galois(std::uint64_t galoisElt) const
{
    FXHENN_ASSERT(domain_ == PolyDomain::coeff,
                  "galois requires coefficient domain");
    FXHENN_ASSERT(galoisElt % 2 == 1, "galois element must be odd");

    const std::uint64_t n = basis_->n();
    RnsPoly out(*basis_, level_, hasSpecial_, PolyDomain::coeff);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const Modulus &q = limbModulus(i);
        const auto &src = limbs_[i];
        auto dst = out.limb(i);
        for (std::uint64_t k = 0; k < n; ++k) {
            // X^k -> X^(k * elt mod 2N), with sign flip when the image
            // exponent wraps past N (negacyclic ring).
            const std::uint64_t idx = (k * galoisElt) % (2 * n);
            if (idx < n) {
                dst[idx] = src[k];
            } else {
                dst[idx - n] = q.negate(src[k]);
            }
        }
    }
    return out;
}

RnsPoly
RnsPoly::permuteNtt(std::span<const std::uint32_t> perm) const
{
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "permuteNtt requires NTT domain");
    FXHENN_ASSERT(perm.size() == basis_->n(),
                  "permutation table size mismatch");
    RnsPoly out = uninitialized(*basis_, level_, hasSpecial_,
                                PolyDomain::ntt);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const auto &src = limbs_[i];
        auto dst = out.limb(i);
        for (std::size_t t = 0; t < dst.size(); ++t)
            dst[t] = src[perm[t]];
    }
    return out;
}

bool
RnsPoly::operator==(const RnsPoly &other) const
{
    return basis_ == other.basis_ && level_ == other.level_ &&
           hasSpecial_ == other.hasSpecial_ && domain_ == other.domain_ &&
           limbs_ == other.limbs_;
}

namespace {

/** Flatten (poly, limb) pairs so one parallelFor spans all of them. */
std::vector<std::pair<RnsPoly *, std::size_t>>
limbJobs(std::span<RnsPoly *const> polys)
{
    std::vector<std::pair<RnsPoly *, std::size_t>> jobs;
    std::size_t total = 0;
    for (RnsPoly *p : polys)
        total += p->limbCount();
    jobs.reserve(total);
    for (RnsPoly *p : polys)
        for (std::size_t i = 0; i < p->limbCount(); ++i)
            jobs.emplace_back(p, i);
    return jobs;
}

} // namespace

void
batchFromNtt(std::span<RnsPoly *const> polys)
{
    for (RnsPoly *p : polys)
        FXHENN_ASSERT(p->domain() == PolyDomain::ntt,
                      "batchFromNtt operand already in coeff domain");
    const auto jobs = limbJobs(polys);
    parallelFor(jobs.size(), [&jobs](std::size_t j) {
        auto [p, i] = jobs[j];
        p->limbNtt(i).inverse(p->limb(i));
    });
    for (RnsPoly *p : polys)
        p->setDomain(PolyDomain::coeff);
}

void
batchToNtt(std::span<RnsPoly *const> polys)
{
    for (RnsPoly *p : polys)
        FXHENN_ASSERT(p->domain() == PolyDomain::coeff,
                      "batchToNtt operand already in NTT domain");
    const auto jobs = limbJobs(polys);
    parallelFor(jobs.size(), [&jobs](std::size_t j) {
        auto [p, i] = jobs[j];
        p->limbNtt(i).forward(p->limb(i));
    });
    for (RnsPoly *p : polys)
        p->setDomain(PolyDomain::ntt);
}

void
batchRescaleLastPrime(std::span<RnsPoly *const> polys)
{
    for (const RnsPoly *p : polys) {
        FXHENN_ASSERT(!p->hasSpecial_,
                      "rescale with special limb present");
        FXHENN_ASSERT(p->level_ >= 2,
                      "cannot rescale a level-1 polynomial");
    }
    RnsPoly::divideByLastLimb(polys);
    for (RnsPoly *p : polys)
        --p->level_;
}

void
batchModDownSpecial(std::span<RnsPoly *const> polys)
{
    for (const RnsPoly *p : polys)
        FXHENN_ASSERT(p->hasSpecial_, "no special limb to remove");
    RnsPoly::divideByLastLimb(polys);
    for (RnsPoly *p : polys)
        p->hasSpecial_ = false;
}

} // namespace fxhenn
