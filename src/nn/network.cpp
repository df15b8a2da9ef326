#include "src/nn/network.hpp"

#include "src/common/assert.hpp"

namespace fxhenn::nn {

Network::Network(std::string name, std::size_t inCh, std::size_t inH,
                 std::size_t inW)
    : name_(std::move(name)), inCh_(inCh), inH_(inH), inW_(inW)
{}

void
Network::addLayer(std::unique_ptr<Layer> layer)
{
    FXHENN_FATAL_IF(layer == nullptr, "null layer");
    layers_.push_back(std::move(layer));
}

namespace {

/**
 * Runs @p layers in order on @p input, appending each layer's output to
 * @p trace when it is non-null. Only a dense layer sees its input
 * flattened; a square keeps the shape, so a convolution may follow it.
 */
Tensor
run(const std::vector<std::unique_ptr<Layer>> &layers, const Tensor &input,
    std::vector<Tensor> *trace)
{
    Tensor current = input;
    for (const auto &layer : layers) {
        current = layer->kind() == LayerKind::dense
                      ? layer->forward(current.flattened())
                      : layer->forward(current);
        if (trace != nullptr)
            trace->push_back(current);
    }
    return current;
}

} // namespace

Tensor
Network::forward(const Tensor &input) const
{
    return run(layers_, input, nullptr);
}

std::vector<Tensor>
Network::forwardTrace(const Tensor &input) const
{
    std::vector<Tensor> trace;
    run(layers_, input, &trace);
    return trace;
}

std::uint64_t
Network::totalMacs() const
{
    std::uint64_t total = 0;
    for (const auto &layer : layers_)
        total += layer->macs();
    return total;
}

} // namespace fxhenn::nn
