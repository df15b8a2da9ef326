#include "src/fpga/layer_model.hpp"

#include <algorithm>

#include "src/common/assert.hpp"

namespace fxhenn::fpga {

std::array<bool, kOpModuleCount>
modulesUsed(const hecnn::HeLayerPlan &layer)
{
    std::array<bool, kOpModuleCount> used{};
    for (std::size_t i = 0; i < kOpModuleCount; ++i)
        used[i] = opCount(layer, static_cast<HeOpModule>(i)) > 0;
    return used;
}

std::uint64_t
opCount(const hecnn::HeLayerPlan &layer, HeOpModule op)
{
    return layer.moduleCount(static_cast<std::size_t>(op) + 1);
}

double
layerModMuls(const hecnn::HeLayerPlan &layer, std::uint64_t n)
{
    const RingView ring{n, layer.levelIn};
    double total = 0.0;
    for (std::size_t i = 0; i < kOpModuleCount; ++i) {
        const auto op = static_cast<HeOpModule>(i);
        total += static_cast<double>(opCount(layer, op)) *
                 opModMuls(op, ring);
    }
    return total;
}

LayerPerf
evaluateLayer(const hecnn::HeLayerPlan &layer, std::uint64_t n,
              const ModuleAllocation &alloc, double bramLimit,
              unsigned peakLiveRegs)
{
    const RingView ring{n, layer.levelIn};
    LayerPerf perf;
    perf.name = layer.name;

    // Buffer spilling (when a BRAM limit applies) is priority-aware: a
    // sane design keeps the randomly-accessed KeySwitch extension
    // buffers ("critical") on-chip first and spills the burst-friendly
    // ciphertext stream buffers, which DDR serves ~16X slower, before
    // ever spilling critical data (~140X, Table III).
    double stream_spill = 0.0;   // ct/rescale buffers evicted fraction
    double critical_spill = 0.0; // KeySwitch buffers evicted fraction

    auto op_slowdown = [&](HeOpModule op) {
        if (op == HeOpModule::keySwitch) {
            // Full spill of both pools reproduces Table III's ~140X.
            return 1.0 + 131.0 * critical_spill + 8.0 * stream_spill;
        }
        // Elementwise and Rescale pipelines stream; full spill ~16X.
        return 1.0 + 15.0 * stream_spill;
    };

    // Latency: the pipelined layer is bound by its slowest module class
    // (Eqs. 1-3 generalized to measured op counts), plus one fill.
    // A layer occupies only as many parallel instances of a module as
    // it has operations of that class (Fig. 8: Act layers use one of
    // the two shared KeySwitch modules); this effective inter degree
    // governs its latency divisor, used-DSP and buffer footprint.
    auto effective_inter = [&](HeOpModule op, std::uint64_t count) {
        return std::min<std::uint64_t>(alloc[op].pInter,
                                       std::max<std::uint64_t>(count,
                                                               1));
    };

    // Standard pipeline makespan: the first input pays every stage
    // once (fill), the remaining nIn - 1 inputs stream at the
    // bottleneck stage's interval (Eqs. 1-2 with the interval of
    // Eq. 3); P_inter parallel instances divide the bottleneck.
    const double items =
        static_cast<double>(std::max<std::size_t>(layer.nIn, 1));
    auto latency_pass = [&]() {
        perf.dsp = 0;
        perf.lut = 0;
        double fill = 0.0;
        double bottleneck_rate = 0.0;
        for (std::size_t i = 0; i < kOpModuleCount; ++i) {
            const auto op = static_cast<HeOpModule>(i);
            const std::uint64_t count = opCount(layer, op);
            if (count == 0)
                continue;
            const OpAllocation &oa = alloc[op];
            const std::uint64_t inter = effective_inter(op, count);
            double interval = pipelineIntervalCycles(op, ring, oa);
            interval *= op_slowdown(op);
            const double per_item =
                static_cast<double>(count) / items;
            fill += per_item * interval;
            const double rate = per_item * interval /
                                static_cast<double>(inter);
            if (rate > bottleneck_rate) {
                bottleneck_rate = rate;
                perf.bottleneck = op;
            }
            perf.dsp += static_cast<unsigned>(inter) * oa.pIntra *
                        dspConst(op, oa.ncNtt);
            perf.lut += static_cast<unsigned>(inter) * oa.pIntra *
                        lutConst(op, oa.ncNtt);
        }
        perf.cycles = fill + (items - 1.0) * bottleneck_rate;
    };
    latency_pass();

    // BRAM demand with intra-layer buffer reuse (Fig. 5/6):
    //  - one input ciphertext buffer (Bb) feeds the layer pipeline;
    //  - one shared working/output ciphertext buffer is reused by the
    //    elementwise ops, Rescale and the KeySwitch output (its size
    //    and partitioning follow the most demanding op present);
    //  - Rescale adds one working pair per extra intra copy and
    //    KeySwitch adds its extension/decomposition buffers.
    const auto used = modulesUsed(layer);
    const double l = static_cast<double>(ring.level);
    auto is_used = [&](HeOpModule op) {
        return used[static_cast<std::size_t>(op)];
    };

    double work_units = 0.0;
    unsigned work_inter = 1;
    unsigned work_nc = 2;
    bool any_ew = false;
    for (HeOpModule op :
         {HeOpModule::ccAdd, HeOpModule::pcMult, HeOpModule::ccMult,
          HeOpModule::rescale, HeOpModule::keySwitch}) {
        if (!is_used(op))
            continue;
        const OpAllocation &oa = alloc[op];
        const double ct_units =
            (op == HeOpModule::ccMult) ? 3.0 * l : 2.0 * l;
        work_units = std::max(work_units, ct_units);
        work_inter = std::max(
            work_inter, static_cast<unsigned>(effective_inter(
                            op, opCount(layer, op))));
        work_nc = std::max(work_nc, oa.ncNtt);
        any_ew = any_ew || op == HeOpModule::ccAdd ||
                 op == HeOpModule::pcMult || op == HeOpModule::ccMult;
    }

    // Liveness-informed tightening: the stream buffers are replicated
    // once per inter-parallel pipeline, but a pipeline copy only needs
    // a resident ciphertext when a live value occupies it. Capping the
    // replication by the layer's peak live-register count never
    // increases the demand, so every design feasible under the plain
    // bound stays feasible.
    const unsigned buf_inter =
        peakLiveRegs > 0 ? std::min(work_inter, peakLiveRegs)
                         : work_inter;

    double stream_blocks = 0.0;
    double critical_blocks = 0.0;
    if (work_units > 0.0) {
        // Input ciphertext buffer (plain Bb partitioning).
        stream_blocks += 2.0 * l * buf_inter * limbBufferBlocks(n, 2);
        // Shared working/output buffer.
        stream_blocks +=
            work_units * buf_inter * limbBufferBlocks(n, work_nc);
    }
    if (is_used(HeOpModule::rescale)) {
        const OpAllocation &oa = alloc[HeOpModule::rescale];
        stream_blocks += 2.0 * (oa.pIntra - 1) * oa.pInter *
                         limbBufferBlocks(n, oa.ncNtt);
    }
    if (is_used(HeOpModule::keySwitch)) {
        const OpAllocation &oa = alloc[HeOpModule::keySwitch];
        const auto inter = effective_inter(
            HeOpModule::keySwitch,
            opCount(layer, HeOpModule::keySwitch));
        // Extension working buffers per parallel pipeline, plus one
        // decomposition staging buffer shared by the inter-parallel
        // instances (the ciphertext in/out part is the shared buffer
        // above).
        const double extra = (2.0 * l + 2.0) * oa.pIntra *
                                 static_cast<double>(inter) +
                             (l + 1.0);
        critical_blocks += extra * limbBufferBlocks(n, oa.ncNtt);
    }
    (void)any_ew;
    const double blocks = stream_blocks + critical_blocks;
    perf.bramBlocks = blocks;

    // Apply the BRAM limit with critical-first placement.
    if (bramLimit >= 0.0 && blocks > bramLimit) {
        const double crit_fit = std::min(critical_blocks, bramLimit);
        const double stream_fit =
            std::min(stream_blocks, bramLimit - crit_fit);
        if (critical_blocks > 0.0)
            critical_spill = 1.0 - crit_fit / critical_blocks;
        if (stream_blocks > 0.0)
            stream_spill = 1.0 - stream_fit / stream_blocks;
        perf.bramBlocks = bramLimit;
        latency_pass();
    }
    return perf;
}

namespace {

/** Sum the DSP slices of a module allocation over the used classes. */
unsigned
allocatedDsp(const ModuleAllocation &alloc,
             const std::array<bool, kOpModuleCount> &used)
{
    unsigned dsp = 0;
    for (std::size_t i = 0; i < kOpModuleCount; ++i) {
        if (used[i])
            dsp += dspUsage(static_cast<HeOpModule>(i),
                            alloc.ops[i]);
    }
    return dsp;
}

/** Sum the LUT estimate of a module allocation over the used classes. */
unsigned
allocatedLut(const ModuleAllocation &alloc,
             const std::array<bool, kOpModuleCount> &used)
{
    unsigned lut = 0;
    for (std::size_t i = 0; i < kOpModuleCount; ++i) {
        if (used[i])
            lut += lutUsage(static_cast<HeOpModule>(i),
                            alloc.ops[i]);
    }
    return lut;
}

} // namespace

NetworkPerf
evaluateNetworkShared(const hecnn::HeNetworkPlan &plan,
                      const ModuleAllocation &alloc,
                      const std::vector<unsigned> *peakLive)
{
    FXHENN_FATAL_IF(peakLive != nullptr &&
                        peakLive->size() != plan.layers.size(),
                    "one peak-live count per layer required");
    NetworkPerf perf;
    std::array<bool, kOpModuleCount> any_used{};
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        const auto &layer = plan.layers[i];
        const unsigned peak = peakLive ? (*peakLive)[i] : 0;
        LayerPerf lp = evaluateLayer(layer, plan.params.n, alloc,
                                     -1.0, peak);
        perf.totalCycles += lp.cycles;
        perf.dspAggregate += lp.dsp;
        perf.bramAggregate += lp.bramBlocks;
        perf.bramPhysical = std::max(perf.bramPhysical, lp.bramBlocks);
        const auto used = modulesUsed(layer);
        for (std::size_t i = 0; i < kOpModuleCount; ++i)
            any_used[i] = any_used[i] || used[i];
        perf.layers.push_back(std::move(lp));
    }
    perf.dspPhysical = allocatedDsp(alloc, any_used);
    perf.lutPhysical = allocatedLut(alloc, any_used);
    return perf;
}

NetworkPerf
evaluateNetworkDedicated(const hecnn::HeNetworkPlan &plan,
                         const std::vector<ModuleAllocation> &perLayer,
                         const std::vector<double> *bramLimits)
{
    FXHENN_FATAL_IF(perLayer.size() != plan.layers.size(),
                    "one allocation per layer required");
    FXHENN_FATAL_IF(bramLimits != nullptr &&
                        bramLimits->size() != plan.layers.size(),
                    "one BRAM limit per layer required");
    NetworkPerf perf;
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        const double limit =
            bramLimits ? (*bramLimits)[i] : -1.0;
        LayerPerf lp = evaluateLayer(plan.layers[i], plan.params.n,
                                     perLayer[i], limit);
        perf.totalCycles += lp.cycles;
        perf.dspAggregate += lp.dsp;
        perf.bramAggregate += lp.bramBlocks;
        // No reuse: every layer's modules and buffers coexist.
        perf.dspPhysical += lp.dsp;
        perf.lutPhysical += lp.lut;
        perf.bramPhysical += lp.bramBlocks;
        perf.layers.push_back(std::move(lp));
    }
    return perf;
}

} // namespace fxhenn::fpga
