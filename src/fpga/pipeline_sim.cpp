#include "src/fpga/pipeline_sim.hpp"

#include <algorithm>

#include "src/common/assert.hpp"

namespace fxhenn::fpga {

double
simulatePipeline(std::size_t items, const std::vector<SimStage> &stages)
{
    if (items == 0 || stages.empty())
        return 0.0;

    // server_free[s][k]: when server k of stage s next becomes free.
    std::vector<std::vector<double>> server_free;
    server_free.reserve(stages.size());
    for (const auto &stage : stages) {
        FXHENN_FATAL_IF(stage.servers == 0,
                        "stage must have at least one server");
        server_free.emplace_back(stage.servers, 0.0);
    }

    double makespan = 0.0;
    for (std::size_t item = 0; item < items; ++item) {
        double ready = 0.0; // when this item leaves the previous stage
        for (std::size_t s = 0; s < stages.size(); ++s) {
            auto &free_at = server_free[s];
            auto earliest =
                std::min_element(free_at.begin(), free_at.end());
            const double start = std::max(ready, *earliest);
            const double finish = start + stages[s].serviceCycles;
            *earliest = finish;
            ready = finish;
        }
        makespan = std::max(makespan, ready);
    }
    return makespan;
}

double
simulateSerial(std::size_t items, const std::vector<SimStage> &stages)
{
    double per_item = 0.0;
    for (const auto &stage : stages)
        per_item += stage.serviceCycles;
    return per_item * static_cast<double>(items);
}

std::vector<SimStage>
layerStages(const hecnn::HeLayerPlan &layer, std::uint64_t n,
            const ModuleAllocation &alloc)
{
    const RingView ring{n, layer.levelIn};
    const std::size_t items = std::max<std::size_t>(layer.nIn, 1);

    // Module classes in first-appearance (program) order.
    std::vector<HeOpModule> order;
    std::array<std::uint64_t, kOpModuleCount> counts{};
    for (const auto &instr : layer.instrs) {
        if (hecnn::opInfo(instr.kind).module == 0)
            continue; // bookkeeping (copy): no hardware module
        const HeOpModule op = moduleOf(instr.kind);
        if (counts[static_cast<std::size_t>(op)] == 0)
            order.push_back(op);
        ++counts[static_cast<std::size_t>(op)];
    }

    std::vector<SimStage> stages;
    stages.reserve(order.size());
    for (HeOpModule op : order) {
        const OpAllocation &oa = alloc[op];
        const double per_item =
            static_cast<double>(counts[static_cast<std::size_t>(op)]) /
            static_cast<double>(items);
        SimStage stage;
        stage.serviceCycles =
            pipelineIntervalCycles(op, ring, oa) * per_item;
        stage.servers = oa.pInter;
        stages.push_back(stage);
    }
    return stages;
}

double
simulateLayer(const hecnn::HeLayerPlan &layer, std::uint64_t n,
              const ModuleAllocation &alloc)
{
    const std::size_t items = std::max<std::size_t>(layer.nIn, 1);
    return simulatePipeline(items, layerStages(layer, n, alloc));
}

} // namespace fxhenn::fpga
