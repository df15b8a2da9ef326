#include "src/ckks/keygen.hpp"

#include "src/common/assert.hpp"

namespace fxhenn::ckks {

KeyGenerator::KeyGenerator(const CkksContext &context, Rng &rng)
    : context_(context), rng_(rng)
{
    RnsPoly s(context.basis(), context.maxLevel(), /*withSpecial=*/true,
              PolyDomain::ntt);
    s.sampleTernary(rng_);
    secretKey_ = SecretKey{std::move(s)};
}

PublicKey
KeyGenerator::makePublicKey()
{
    const RnsBasis &basis = context_.basis();
    const std::size_t level = context_.maxLevel();

    // pk over Q only: drop the special limb of s by rebuilding.
    RnsPoly a(basis, level, false, PolyDomain::coeff);
    a.sampleUniform(rng_);
    a.toNtt();

    RnsPoly e(basis, level, false, PolyDomain::ntt);
    e.sampleGaussian(rng_, context_.params().sigma);

    // s restricted to the data primes.
    RnsPoly s_data(basis, level, false, PolyDomain::ntt);
    for (std::size_t i = 0; i < level; ++i) {
        auto dst = s_data.limb(i);
        auto src = secretKey_.s.limb(i);
        std::copy(src.begin(), src.end(), dst.begin());
    }

    RnsPoly pk0 = e;       // e
    RnsPoly as = a;        // a
    as.mulInplace(s_data); // a*s
    pk0.addInplace(as);    // a*s + e
    pk0.negateInplace();   // -(a*s + e)

    return PublicKey{std::move(pk0), std::move(a)};
}

KswKey
KeyGenerator::makeKswKey(const RnsPoly &s_from)
{
    FXHENN_ASSERT(s_from.domain() == PolyDomain::ntt,
                  "source secret must be in NTT domain");
    FXHENN_ASSERT(s_from.hasSpecial(),
                  "source secret must include the special limb");

    const RnsBasis &basis = context_.basis();
    const std::size_t level = context_.maxLevel();
    const std::uint64_t p_mod = basis.specialPrime().value();

    KswKey ksw;
    ksw.pairs.reserve(level);
    for (std::size_t i = 0; i < level; ++i) {
        RnsPoly a(basis, level, true, PolyDomain::coeff);
        a.sampleUniform(rng_);
        a.toNtt();

        RnsPoly e(basis, level, true, PolyDomain::ntt);
        e.sampleGaussian(rng_, context_.params().sigma);

        RnsPoly k0 = e;
        RnsPoly as = a;
        as.mulInplace(secretKey_.s);
        k0.addInplace(as);
        k0.negateInplace(); // -(a*s + e)

        // Add p * T_i * s', which in RNS is s' scaled by (p mod q_i) in
        // limb i and zero in every other limb (including the special).
        const Modulus &qi = basis.q(i);
        const std::uint64_t p_mod_qi = p_mod % qi.value();
        auto dst = k0.limb(i);
        auto src = s_from.limb(i);
        for (std::size_t j = 0; j < dst.size(); ++j)
            dst[j] = qi.add(dst[j], qi.mul(src[j], p_mod_qi));

        ksw.pairs.emplace_back(std::move(k0), std::move(a));
    }
    return ksw;
}

RelinKey
KeyGenerator::makeRelinKey()
{
    RnsPoly s2 = secretKey_.s;
    s2.mulInplace(secretKey_.s);
    return RelinKey{makeKswKey(s2)};
}

GaloisKeys
KeyGenerator::makeGaloisKeys(const std::vector<int> &steps)
{
    GaloisKeys keys;
    for (int step : steps)
        addGaloisKey(keys, step);
    return keys;
}

void
KeyGenerator::addGaloisKey(GaloisKeys &keys, int steps)
{
    const std::uint64_t elt = context_.galoisElt(steps);
    if (keys.has(elt))
        return;
    // s(X^elt) in NTT domain: apply the automorphism in coeff domain.
    RnsPoly s_coeff = secretKey_.s;
    s_coeff.fromNtt();
    RnsPoly s_rot = s_coeff.galois(elt);
    s_rot.toNtt();
    keys.keys.emplace(elt, makeKswKey(s_rot));
}

void
KeyGenerator::addConjugateKey(GaloisKeys &keys)
{
    const std::uint64_t elt = context_.conjugateElt();
    if (keys.has(elt))
        return;
    RnsPoly s_coeff = secretKey_.s;
    s_coeff.fromNtt();
    RnsPoly s_rot = s_coeff.galois(elt);
    s_rot.toNtt();
    keys.keys.emplace(elt, makeKswKey(s_rot));
}

} // namespace fxhenn::ckks
