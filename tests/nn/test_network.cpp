#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/model_zoo.hpp"
#include "src/nn/network.hpp"

namespace fxhenn::nn {
namespace {

TEST(Network, MnistTopologyMatchesTableVI)
{
    const Network net = buildMnistNetwork();
    ASSERT_EQ(net.layerCount(), 5u);
    EXPECT_EQ(net.layer(0).name(), "Cnv1");
    EXPECT_EQ(net.layer(1).name(), "Act1");
    EXPECT_EQ(net.layer(2).name(), "Fc1");
    EXPECT_EQ(net.layer(3).name(), "Act2");
    EXPECT_EQ(net.layer(4).name(), "Fc2");
    EXPECT_EQ(net.layer(0).outputSize(), 845u);
    EXPECT_EQ(net.layer(2).outputSize(), 100u);
    EXPECT_EQ(net.layer(4).outputSize(), 10u);
}

TEST(Network, Cifar10TopologyMatchesTableVI)
{
    const Network net = buildCifar10Network();
    ASSERT_EQ(net.layerCount(), 5u);
    EXPECT_EQ(net.layer(0).name(), "Cnv1");
    EXPECT_EQ(net.layer(2).name(), "Cnv2");
    EXPECT_EQ(net.layer(0).outputSize(), 83u * 13u * 13u);
    EXPECT_EQ(net.layer(2).outputSize(), 112u * 4u * 4u);
    EXPECT_EQ(net.layer(4).outputSize(), 10u);
}

TEST(Network, ForwardProducesFiniteLogits)
{
    const Network net = buildMnistNetwork();
    const Tensor input = syntheticInput(net, 7);
    const Tensor out = net.forward(input);
    ASSERT_EQ(out.size(), 10u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(std::isfinite(out[i]));
        // Magnitudes must stay inside CKKS level-1 headroom.
        EXPECT_LT(std::abs(out[i]), 0.45) << "logit " << i;
    }
}

TEST(Network, ForwardTraceShapesChain)
{
    const Network net = buildTestNetwork();
    const Tensor input = syntheticInput(net, 3);
    const auto trace = net.forwardTrace(input);
    ASSERT_EQ(trace.size(), 5u);
    EXPECT_EQ(trace[0].size(), 72u);
    EXPECT_EQ(trace[1].size(), 72u);
    EXPECT_EQ(trace[2].size(), 8u);
    EXPECT_EQ(trace[3].size(), 8u);
    EXPECT_EQ(trace[4].size(), 3u);
}

TEST(Network, Cifar10ForwardTraceKeepsShapeThroughSquare)
{
    // Cnv1 -> Act1 -> Cnv2: the second convolution needs the square's
    // output in its 3-d shape.
    const Network net = buildCifar10Network();
    const auto trace = net.forwardTrace(syntheticInput(net, 5));
    ASSERT_EQ(trace.size(), net.layerCount());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].size(), net.layer(i).outputSize())
            << net.layer(i).name();
}

TEST(Network, MacsRatioMatchesTableIV)
{
    // Table IV: plain-CNN MAC ratio Fc1 / Cnv1 = 4X for LoLa-MNIST.
    const Network net = buildMnistNetwork();
    const double ratio = double(net.layer(2).macs()) /
                         double(net.layer(0).macs());
    EXPECT_NEAR(ratio, 4.0, 0.01);
}

TEST(Network, SyntheticInputIsDeterministic)
{
    const Network net = buildTestNetwork();
    const Tensor a = syntheticInput(net, 11);
    const Tensor b = syntheticInput(net, 11);
    const Tensor c = syntheticInput(net, 12);
    EXPECT_EQ(a.data(), b.data());
    EXPECT_NE(a.data(), c.data());
}

} // namespace
} // namespace fxhenn::nn
