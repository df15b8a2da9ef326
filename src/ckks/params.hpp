/**
 * @file
 * RNS-CKKS parameter sets.
 *
 * The paper (Sec. VII-A) selects L = 7 data primes for multiplication
 * depth 5, with N = 8192 / 30-bit q_i for FxHENN-MNIST (log Q = 210,
 * labelled lambda = 128) and N = 16384 / 36-bit q_i for FxHENN-CIFAR10
 * (log Q = 252, labelled lambda = 192), following the LoLa parameter
 * choices and the homomorphic-encryption security tables [1], [8].
 * The paper assesses log Q only; evaluation keys live mod Q*p, so
 * securityLevel() assesses log QP, and the paper's figure is kept
 * apart as lambdaLabel. With its 50-bit special prime, the MNIST set
 * has log QP = 260, above the 218 bits N = 8192 allows at lambda = 128.
 */
#ifndef FXHENN_CKKS_PARAMS_HPP
#define FXHENN_CKKS_PARAMS_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace fxhenn::ckks {

/** User-facing CKKS parameter choice. */
struct CkksParams
{
    std::uint64_t n = 8192;     ///< ring degree N (power of two)
    unsigned qBits = 30;        ///< bit width of each data prime q_i
    std::size_t levels = 7;     ///< number of data primes L
    unsigned specialBits = 50;  ///< bit width of the key-switch prime p
    double scale = double(1 << 30); ///< encoding scale Delta
    double sigma = 3.2;         ///< error standard deviation
    /** The lambda the source paper labels this set with (0: none).
     * A label only — securityLevel() is the computed value. */
    unsigned lambdaLabel = 0;

    /** Validate ranges; throws ConfigError on nonsense. */
    void validate() const;

    /** log2(Q) = levels * qBits (approximately; primes are just below). */
    double logQ() const { return double(levels) * qBits; }

    /** log2(Q * p): the modulus the evaluation keys live under. */
    double logQP() const { return logQ() + specialBits; }

    /**
     * Conservative security level estimate from the HE-standard table
     * (ternary secret): returns the largest lambda in {128, 192, 256}
     * supported by (N, logQP()), or 0 when even 128 is not met.
     */
    unsigned securityLevel() const;

    /** The HE-standard bound on log QP for lambda = 128 at this N (0
     * for degrees outside the table). */
    double maxLogQP128() const;

    /** Human-readable one-line description. */
    std::string describe() const;
};

/** Paper parameter set for FxHENN-MNIST: N = 8192, 30-bit q_i, L = 7. */
CkksParams mnistParams();

/** Paper parameter set for FxHENN-CIFAR10: N = 16384, 36-bit, L = 7. */
CkksParams cifar10Params();

/** Small parameters for fast unit tests (NOT secure). */
CkksParams testParams(std::uint64_t n = 1024, std::size_t levels = 4,
                      unsigned qBits = 30);

} // namespace fxhenn::ckks

#endif // FXHENN_CKKS_PARAMS_HPP
