#include "src/hecnn/liveness.hpp"

#include <algorithm>

namespace fxhenn::hecnn {

LivenessInfo
computeLiveness(const HeNetworkPlan &plan)
{
    LivenessInfo info;
    const std::size_t layer_count = plan.layers.size();
    info.peakLive.assign(layer_count, 0);
    info.liveOut.resize(layer_count);
    const std::int32_t reg_count = std::max(plan.regCount, 0);

    std::vector<char> live(static_cast<std::size_t>(reg_count), 0);
    unsigned live_size = 0;
    auto set_live = [&](std::int32_t reg) {
        if (reg < 0 || reg >= reg_count)
            return;
        if (!live[static_cast<std::size_t>(reg)]) {
            live[static_cast<std::size_t>(reg)] = 1;
            ++live_size;
        }
    };
    auto kill = [&](std::int32_t reg) {
        if (reg < 0 || reg >= reg_count)
            return;
        if (live[static_cast<std::size_t>(reg)]) {
            live[static_cast<std::size_t>(reg)] = 0;
            --live_size;
        }
    };

    // Live-out: exactly what the client decrypts.
    for (const auto &[reg, slot] : plan.outputLayout.pos) {
        (void)slot;
        set_live(reg);
    }
    for (std::int32_t reg : plan.outputLayout.regs)
        set_live(reg);

    for (std::size_t li = layer_count; li-- > 0;) {
        const HeLayerPlan &layer = plan.layers[li];
        for (std::int32_t reg = 0; reg < reg_count; ++reg) {
            if (live[static_cast<std::size_t>(reg)])
                info.liveOut[li].push_back(reg);
        }
        unsigned peak = live_size;
        for (std::size_t ii = layer.instrs.size(); ii-- > 0;) {
            const HeInstr &instr = layer.instrs[ii];
            const bool result_used =
                instr.dst >= 0 && instr.dst < reg_count &&
                live[static_cast<std::size_t>(instr.dst)];
            if (!result_used)
                info.deadInstrs.push_back(DeadInstr{li, ii});
            // Treat dead instructions as executed (the runtime does):
            // their operands stay live and they still occupy a slot in
            // the peak, so the DSE bound remains sound.
            kill(instr.dst);
            set_live(instr.src);
            if (opInfo(instr.kind).readsDst)
                set_live(instr.dst); // dst += src reads dst too
            peak = std::max(peak, live_size);
        }
        info.peakLive[li] = std::max(peak, 1u);
        info.peakLiveOverall =
            std::max(info.peakLiveOverall, info.peakLive[li]);
    }
    // Restore source order: the sweep collected dead instrs backwards.
    std::reverse(info.deadInstrs.begin(), info.deadInstrs.end());
    return info;
}

} // namespace fxhenn::hecnn
