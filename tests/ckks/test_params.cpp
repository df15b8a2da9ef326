#include <gtest/gtest.h>

#include "src/ckks/params.hpp"
#include "src/common/assert.hpp"

namespace fxhenn::ckks {
namespace {

TEST(CkksParams, PaperMnistSetMatchesSectionVIIA)
{
    const CkksParams p = mnistParams();
    EXPECT_EQ(p.n, 8192u);
    EXPECT_EQ(p.qBits, 30u);
    EXPECT_EQ(p.levels, 7u);
    EXPECT_DOUBLE_EQ(p.logQ(), 210.0);
    EXPECT_EQ(p.lambdaLabel, 128u) << "paper claims lambda = 128";
    // The keys live mod QP: 210 + 50 bits is above the 218-bit bound
    // for lambda = 128 at N = 8192, so the computed level is below 128.
    EXPECT_DOUBLE_EQ(p.logQP(), 260.0);
    EXPECT_DOUBLE_EQ(p.maxLogQP128(), 218.0);
    EXPECT_EQ(p.securityLevel(), 0u);
    p.validate();
}

TEST(CkksParams, PaperCifar10SetMatchesSectionVIIA)
{
    const CkksParams p = cifar10Params();
    EXPECT_EQ(p.n, 16384u);
    EXPECT_EQ(p.qBits, 36u);
    EXPECT_DOUBLE_EQ(p.logQ(), 252.0);
    EXPECT_EQ(p.lambdaLabel, 192u) << "paper claims lambda = 192";
    // log QP = 302 is within the 305-bit lambda = 192 bound at N = 16384.
    EXPECT_DOUBLE_EQ(p.logQP(), 302.0);
    EXPECT_EQ(p.securityLevel(), 192u);
    p.validate();
}

TEST(CkksParams, ValidationCatchesNonsense)
{
    CkksParams p = mnistParams();
    p.n = 1000; // not a power of two
    EXPECT_THROW(p.validate(), ConfigError);

    p = mnistParams();
    p.qBits = 10;
    EXPECT_THROW(p.validate(), ConfigError);

    p = mnistParams();
    p.specialBits = 20; // narrower than qBits
    EXPECT_THROW(p.validate(), ConfigError);

    p = mnistParams();
    p.scale = 0.5;
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(CkksParams, SecurityDegradesWithWiderQ)
{
    CkksParams p = cifar10Params();
    const unsigned base = p.securityLevel();
    p.levels = 14; // logQ doubles
    EXPECT_LT(p.securityLevel(), base);
}

TEST(CkksParams, DescribeMentionsKeyNumbers)
{
    const std::string d = mnistParams().describe();
    EXPECT_NE(d.find("8192"), std::string::npos);
    EXPECT_NE(d.find("210"), std::string::npos);
    EXPECT_NE(d.find("logQP=260"), std::string::npos);
    EXPECT_NE(d.find("paper label lambda=128"), std::string::npos);
}

} // namespace
} // namespace fxhenn::ckks
