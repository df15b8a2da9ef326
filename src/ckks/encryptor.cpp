#include "src/ckks/encryptor.hpp"

#include "src/common/assert.hpp"

namespace fxhenn::ckks {

Encryptor::Encryptor(const CkksContext &context, PublicKey publicKey,
                     Rng &rng)
    : context_(context), publicKey_(std::move(publicKey)), rng_(rng)
{}

Ciphertext
Encryptor::encrypt(const Plaintext &plain)
{
    return encrypt(plain, rng_);
}

Ciphertext
Encryptor::encrypt(const Plaintext &plain, Rng &rng) const
{
    const RnsBasis &basis = context_.basis();
    const std::size_t level = plain.level();
    const std::size_t max_level = context_.maxLevel();

    // Sampling writes every limb.
    const auto fresh = [&] {
        return RnsPoly::uninitialized(basis, max_level, false,
                                      PolyDomain::ntt);
    };
    RnsPoly u = fresh();
    u.sampleTernary(rng);

    RnsPoly e0 = fresh();
    e0.sampleGaussian(rng, context_.params().sigma);
    RnsPoly e1 = fresh();
    e1.sampleGaussian(rng, context_.params().sigma);

    RnsPoly c0 = publicKey_.pk0;
    c0.mulInplace(u);
    c0.addInplace(e0);

    RnsPoly c1 = publicKey_.pk1;
    c1.mulInplace(u);
    c1.addInplace(e1);

    // Truncate to the plaintext's level and add the message.
    while (c0.level() > level) {
        c0.dropLastPrime();
        c1.dropLastPrime();
    }
    c0.addInplace(plain.poly);

    Ciphertext ct;
    ct.parts.push_back(std::move(c0));
    ct.parts.push_back(std::move(c1));
    ct.scale = plain.scale;
    return ct;
}

} // namespace fxhenn::ckks
