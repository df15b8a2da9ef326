#include "src/hecnn/plan.hpp"

#include "src/common/assert.hpp"

namespace fxhenn::hecnn {

const char *
opModuleLabel(HeOpKind kind)
{
    static constexpr const char *kLabels[] = {"-",   "OP1", "OP2",
                                              "OP3", "OP4", "OP5"};
    return kLabels[opInfo(kind).module];
}

bool
SlotLayout::isContiguousSingleReg() const
{
    if (regs.size() != 1)
        return false;
    for (std::size_t e = 0; e < pos.size(); ++e) {
        if (pos[e].first != regs[0] ||
            pos[e].second != static_cast<std::int32_t>(e)) {
            return false;
        }
    }
    return true;
}

std::uint64_t
HeLayerPlan::kindCount(HeOpKind kind) const
{
    if (counted_)
        return kindCounts_[static_cast<std::size_t>(kind)];
    // A plan built by hand (or mutated) without calling classify():
    // recount instead of reporting zeros, but into a local — writing
    // the member here would data-race once two executors share the
    // plan. cls stays untouched on this path by design.
    std::uint64_t n = 0;
    for (const auto &instr : instrs) {
        if (instr.kind == kind)
            ++n;
    }
    return n;
}

std::uint64_t
HeLayerPlan::moduleCount(std::size_t module) const
{
    std::uint64_t n = 0;
    for (const HeOpInfo &info : kHeOps) {
        if (info.module == module)
            n += kindCount(info.kind);
    }
    return n;
}

HeOpCounts
HeLayerPlan::counts() const
{
    HeOpCounts c;
    c.ccAdd = moduleCount(1);
    c.pcMult = moduleCount(2);
    c.ccMult = moduleCount(3);
    c.rescale = moduleCount(4);
    c.relin = kindCount(HeOpKind::relinearize);
    c.rotate = kindCount(HeOpKind::rotate);
    return c;
}

void
HeLayerPlan::classify()
{
    kindCounts_ = {};
    for (const auto &instr : instrs)
        ++kindCounts_[static_cast<std::size_t>(instr.kind)];
    counted_ = true;
    cls = counts().keySwitch() > 0 ? LayerClass::ks : LayerClass::nks;
}

HeOpCounts
HeNetworkPlan::totalCounts() const
{
    HeOpCounts total;
    for (const auto &layer : layers) {
        const HeOpCounts c = layer.counts();
        total.ccAdd += c.ccAdd;
        total.pcMult += c.pcMult;
        total.ccMult += c.ccMult;
        total.rescale += c.rescale;
        total.relin += c.relin;
        total.rotate += c.rotate;
    }
    return total;
}

std::set<std::int32_t>
HeNetworkPlan::rotationSteps() const
{
    std::set<std::int32_t> steps;
    for (const auto &layer : layers) {
        for (const auto &instr : layer.instrs) {
            if (instr.kind == HeOpKind::rotate && instr.step != 0)
                steps.insert(instr.step);
        }
    }
    return steps;
}

std::size_t
HeNetworkPlan::depth() const
{
    FXHENN_ASSERT(!layers.empty(), "empty plan");
    return layers.front().levelIn - layers.back().levelOut;
}

} // namespace fxhenn::hecnn
