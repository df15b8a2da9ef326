/**
 * @file
 * Layer- and network-level performance/resource evaluation.
 *
 * Combines the op-module model with a compiled plan's per-layer
 * operation counts to produce the quantities the DSE optimizes
 * (Eq. 10): per-layer latency, DSP usage, and BRAM demand with the
 * intra-layer buffer reuse of Fig. 5/6. Network totals distinguish
 *   - physical usage: shared module instances (FxHENN inter-layer
 *     reuse) or per-layer dedicated instances (the Table IX baseline);
 *   - aggregated usage: summed per-layer usage, which exceeds 100 %
 *     exactly when reuse is effective (Table IX).
 */
#ifndef FXHENN_FPGA_LAYER_MODEL_HPP
#define FXHENN_FPGA_LAYER_MODEL_HPP

#include <array>
#include <vector>

#include "src/fpga/device.hpp"
#include "src/fpga/op_model.hpp"
#include "src/hecnn/plan.hpp"

namespace fxhenn::fpga {

/** One allocation per HE operation module class. */
struct ModuleAllocation
{
    std::array<OpAllocation, kOpModuleCount> ops{};

    OpAllocation &
    operator[](HeOpModule op)
    {
        return ops[static_cast<std::size_t>(op)];
    }
    const OpAllocation &
    operator[](HeOpModule op) const
    {
        return ops[static_cast<std::size_t>(op)];
    }
};

/** Per-layer evaluation result. */
struct LayerPerf
{
    std::string name;
    double cycles = 0.0;
    unsigned dsp = 0;        ///< DSP slices touched by this layer
    unsigned lut = 0;        ///< LUT estimate touched by this layer
    double bramBlocks = 0.0; ///< buffer demand with intra-layer reuse
    HeOpModule bottleneck = HeOpModule::ccAdd;
};

/** Network evaluation result. */
struct NetworkPerf
{
    std::vector<LayerPerf> layers;
    double totalCycles = 0.0;
    unsigned dspPhysical = 0;   ///< instantiated slices
    unsigned lutPhysical = 0;   ///< instantiated LUT estimate
    double bramPhysical = 0.0;  ///< max (reuse) or sum (no reuse)
    unsigned dspAggregate = 0;  ///< sum of per-layer usage
    double bramAggregate = 0.0; ///< sum of per-layer demand
};

/**
 * Evaluate one layer under @p alloc.
 *
 * @param layer     compiled layer plan (op counts, level, N_in)
 * @param n         ring degree
 * @param alloc     module allocation visible to this layer
 * @param bramLimit on-chip blocks available to this layer: negative
 *                  means unlimited; smaller than the demand means the
 *                  spilled fraction pays the off-chip penalty
 *                  (Table III: 0 models an all-DRAM layer)
 * @param peakLiveRegs peak number of simultaneously live ciphertext
 *                  registers inside this layer (from
 *                  hecnn::computeLiveness); 0 means unknown. When
 *                  known, the Eq. 8-9 intra-layer ciphertext-buffer
 *                  replication is capped by it — a layer that never
 *                  holds more than k live ciphertexts cannot need
 *                  more than k resident stream buffers — which only
 *                  ever lowers the BRAM demand.
 */
LayerPerf evaluateLayer(const hecnn::HeLayerPlan &layer, std::uint64_t n,
                        const ModuleAllocation &alloc,
                        double bramLimit = -1.0,
                        unsigned peakLiveRegs = 0);

/**
 * Evaluate the whole network with a single shared module allocation
 * (FxHENN inter-layer module + buffer reuse).
 *
 * @param peakLive optional per-layer peak live-register counts (one
 *                 entry per layer) used to tighten each layer's
 *                 buffer demand; nullptr reproduces the plain Eq. 8-9
 *                 bound.
 */
NetworkPerf evaluateNetworkShared(
    const hecnn::HeNetworkPlan &plan, const ModuleAllocation &alloc,
    const std::vector<unsigned> *peakLive = nullptr);

/**
 * Evaluate the network with dedicated per-layer allocations and no
 * cross-layer reuse (the Table IX baseline).
 *
 * @param bramLimits optional per-layer on-chip budget (spill applies)
 */
NetworkPerf evaluateNetworkDedicated(
    const hecnn::HeNetworkPlan &plan,
    const std::vector<ModuleAllocation> &perLayer,
    const std::vector<double> *bramLimits = nullptr);

/** Which module classes a layer actually invokes. */
std::array<bool, kOpModuleCount> modulesUsed(
    const hecnn::HeLayerPlan &layer);

/** Operation count of @p layer for module class @p op. */
std::uint64_t opCount(const hecnn::HeLayerPlan &layer, HeOpModule op);

/** Total modular multiplications of a layer ("MACs of HOPs"). */
double layerModMuls(const hecnn::HeLayerPlan &layer, std::uint64_t n);

} // namespace fxhenn::fpga

#endif // FXHENN_FPGA_LAYER_MODEL_HPP
