#include "src/ckks/params.hpp"

#include <cmath>
#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/math_util.hpp"

namespace fxhenn::ckks {

void
CkksParams::validate() const
{
    FXHENN_FATAL_IF(!isPowerOfTwo(n) || n < 16 || n > (1u << 17),
                    "ring degree must be a power of two in [16, 2^17]");
    FXHENN_FATAL_IF(qBits < 20 || qBits > 50,
                    "data prime width must be in [20, 50] bits");
    FXHENN_FATAL_IF(levels < 1 || levels > 20,
                    "level count must be in [1, 20]");
    FXHENN_FATAL_IF(specialBits < qBits,
                    "special prime must be at least as wide as q_i");
    FXHENN_FATAL_IF(scale <= 1.0, "scale must exceed 1");
    FXHENN_FATAL_IF(sigma <= 0.0, "sigma must be positive");
}

namespace {

/** Max log2(Q*P) per the homomorphic encryption standard table
 * (ternary secret, classical attacks), per ring degree. */
struct SecurityRow
{
    std::uint64_t n;
    double l128, l192, l256;
};

constexpr SecurityRow kSecurityTable[] = {
    {1024, 27, 19, 14},     {2048, 54, 37, 29},
    {4096, 109, 75, 58},    {8192, 218, 152, 118},
    {16384, 438, 305, 237}, {32768, 881, 611, 476},
};

const SecurityRow *
securityRow(std::uint64_t n)
{
    for (const auto &row : kSecurityTable)
        if (row.n == n)
            return &row;
    return nullptr;
}

} // namespace

unsigned
CkksParams::securityLevel() const
{
    const SecurityRow *row = securityRow(n);
    if (!row)
        return 0; // degrees outside the table: report unknown/insecure
    const double log_qp = logQP();
    if (log_qp <= row->l256)
        return 256;
    if (log_qp <= row->l192)
        return 192;
    if (log_qp <= row->l128)
        return 128;
    return 0;
}

double
CkksParams::maxLogQP128() const
{
    const SecurityRow *row = securityRow(n);
    return row ? row->l128 : 0.0;
}

std::string
CkksParams::describe() const
{
    std::ostringstream oss;
    oss << "CKKS(N=" << n << ", L=" << levels << ", q=" << qBits
        << "b, p=" << specialBits << "b, logQ=" << logQ()
        << ", logQP=" << logQP() << ", lambda=" << securityLevel();
    if (lambdaLabel != 0)
        oss << ", paper label lambda=" << lambdaLabel;
    oss << ")";
    return oss.str();
}

CkksParams
mnistParams()
{
    CkksParams p;
    p.n = 8192;
    p.qBits = 30;
    p.levels = 7;
    p.specialBits = 50;
    p.scale = double(1 << 30);
    p.lambdaLabel = 128;
    return p;
}

CkksParams
cifar10Params()
{
    CkksParams p;
    p.n = 16384;
    p.qBits = 36;
    p.levels = 7;
    p.specialBits = 50;
    p.scale = 68719476736.0; // 2^36
    p.lambdaLabel = 192;
    return p;
}

CkksParams
testParams(std::uint64_t n, std::size_t levels, unsigned qBits)
{
    CkksParams p;
    p.n = n;
    p.qBits = qBits;
    p.levels = levels;
    p.specialBits = qBits + 10 <= 50 ? 50 : qBits + 10;
    p.scale = std::pow(2.0, qBits);
    return p;
}

} // namespace fxhenn::ckks
