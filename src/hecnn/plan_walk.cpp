#include "src/hecnn/plan_walk.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/table_printer.hpp"
#include "src/modarith/primes.hpp"

namespace fxhenn::hecnn {

namespace {

std::string
regName(std::int32_t reg)
{
    return "r" + std::to_string(reg);
}

bool
scaleMismatch(double a, double b)
{
    if (!(a > 0.0) || !(b > 0.0))
        return true;
    const double ratio = a / b;
    return ratio < 0.99 || ratio > 1.01;
}

/** The evaluator's checkScaleFits: +2 bits of drift allowance. */
void
checkScaleFits(double productScale, std::size_t level,
               const ShapeChain &chain, std::vector<ShapeFinding> &out)
{
    if (level == 0 || level >= chain.logQ.size())
        return; // level chain errors are reported elsewhere
    if (std::log2(productScale) > chain.logQ[level] + 2.0) {
        out.push_back({true,
                       "product scale 2^" +
                           fmtBits(std::log2(productScale)) +
                           " exceeds the modulus at level " +
                           std::to_string(level) + " (log Q = " +
                           fmtBits(chain.logQ[level]) + ")",
                       "rescale before multiplying again"});
    }
}

void
checkParts(const HeInstr &in, const RegShape &src, const char *op,
           const char *hint, std::vector<ShapeFinding> &out)
{
    const std::size_t want = opInfo(in.kind).partsIn;
    if (src.parts != want) {
        out.push_back({true,
                       std::string(op) + " expects a " +
                           std::to_string(want) + "-part operand, " +
                           regName(in.src) + " has " +
                           std::to_string(src.parts),
                       hint});
    }
}

} // namespace

ShapeChain::ShapeChain(double schemeScale,
                       std::span<const std::uint64_t> moduli)
    : scale(schemeScale)
{
    primes.reserve(moduli.size());
    logQ.assign(moduli.size() + 1, 0.0);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
        primes.push_back(static_cast<double>(moduli[i]));
        logQ[i + 1] = logQ[i] + std::log2(primes[i]);
    }
}

std::vector<RegShape>
inputShapes(const HeNetworkPlan &plan, const ShapeChain &chain)
{
    std::vector<RegShape> regs(static_cast<std::size_t>(
        std::max(plan.regCount, std::int32_t{0})));
    for (std::size_t i = 0; i < plan.inputGather.size() && i < regs.size();
         ++i)
        regs[i] = {true, chain.levels(), chain.scale, 2};
    return regs;
}

ShapeChain
ShapeChain::ofParams(const ckks::CkksParams &params)
{
    params.validate();
    return ShapeChain(params.scale,
                      generateNttPrimes(params.qBits, params.n,
                                        params.levels));
}

void
checkShape(const HeInstr &in, const RegShape &src, const RegShape &dst,
           const ShapeChain &chain, std::span<const PlanPlaintext> pool,
           std::vector<ShapeFinding> &findings)
{
    const bool ptOk =
        in.pt >= 0 && static_cast<std::size_t>(in.pt) < pool.size();
    switch (in.kind) {
      case HeOpKind::pcMult: {
        if (!ptOk)
            break;
        const PlanPlaintext &pt = pool[static_cast<std::size_t>(in.pt)];
        if (pt.level != src.level) {
            findings.push_back(
                {true,
                 "pcMult plaintext " + std::to_string(in.pt) +
                     " is encoded at level " + std::to_string(pt.level) +
                     " but operand " + regName(in.src) +
                     " is at level " + std::to_string(src.level),
                 "re-encode the plaintext at level " +
                     std::to_string(src.level)});
        }
        checkScaleFits(src.scale * chain.scale, src.level, chain,
                       findings);
        break;
      }
      case HeOpKind::pcAdd: {
        if (!ptOk)
            break;
        const PlanPlaintext &pt = pool[static_cast<std::size_t>(in.pt)];
        if (pt.level != src.level) {
            findings.push_back(
                {false,
                 "pcAdd plaintext " + std::to_string(in.pt) +
                     " carries stale level metadata (" +
                     std::to_string(pt.level) + " vs operand " +
                     std::to_string(src.level) + ")",
                 "the runtime re-encodes bias adds at the ciphertext "
                 "level; fix the pool level anyway"});
        }
        break;
      }
      case HeOpKind::ccAdd:
        if (!dst.written)
            break; // an operand fault, not a shape finding
        if (dst.level != src.level) {
            findings.push_back(
                {true,
                 "ccAdd level mismatch: " + regName(in.dst) +
                     " at level " + std::to_string(dst.level) + ", " +
                     regName(in.src) + " at level " +
                     std::to_string(src.level),
                 "rescale or mod-switch the higher operand first"});
        } else if (dst.parts != src.parts) {
            findings.push_back(
                {true,
                 "ccAdd part-count mismatch: " + regName(in.dst) +
                     " has " + std::to_string(dst.parts) + " parts, " +
                     regName(in.src) + " has " +
                     std::to_string(src.parts),
                 "relinearize the 3-part operand first"});
        } else if (scaleMismatch(dst.scale, src.scale)) {
            findings.push_back(
                {true,
                 "ccAdd scale mismatch: " + regName(in.dst) + " at 2^" +
                     fmtBits(std::log2(dst.scale)) + ", " +
                     regName(in.src) + " at 2^" +
                     fmtBits(std::log2(src.scale)),
                 "the sum of mis-scaled operands decrypts to garbage; "
                 "align the rescale chains"});
        }
        break;
      case HeOpKind::ccMult:
        checkParts(in, src, "ccMult", "relinearize before multiplying",
                   findings);
        checkScaleFits(src.scale * src.scale, src.level, chain,
                       findings);
        break;
      case HeOpKind::relinearize:
        checkParts(in, src, "relinearize", "", findings);
        break;
      case HeOpKind::rescale:
        if (src.level < 2) {
            findings.push_back(
                {true,
                 "level underflow: rescale at level " +
                     std::to_string(src.level) +
                     " has no prime left to drop",
                 "deepen the parameter set or shorten the network"});
        } else if (src.scale < chain.scale * 2.0) {
            findings.push_back(
                {true,
                 "double rescale: " + regName(in.src) +
                     " is already at scale 2^" +
                     fmtBits(std::log2(src.scale)) +
                     " (at or below the scheme scale)",
                 "a rescale without a preceding multiply divides the "
                 "message away"});
        }
        break;
      case HeOpKind::rotate:
        checkParts(in, src, "rotate", "relinearize before rotating",
                   findings);
        break;
      case HeOpKind::copy:
        break;
    }
}

std::vector<std::int32_t>
layerOutputs(const HeLayerPlan &layer, std::span<const RegShape> regs)
{
    std::vector<std::int32_t> outputs = layer.outputLayout.regs;
    if (outputs.empty()) {
        for (std::size_t i = 0; i < regs.size(); ++i) {
            if (regs[i].written)
                outputs.push_back(static_cast<std::int32_t>(i));
        }
    }
    return outputs;
}

std::optional<ShapeFinding>
checkLayerExit(const HeLayerPlan &layer,
               std::span<const std::int32_t> outputs,
               std::span<const RegShape> regs)
{
    for (const std::int32_t reg : outputs) {
        if (reg < 0 || static_cast<std::size_t>(reg) >= regs.size())
            continue; // a layout finding, not a shape one
        const RegShape &state = regs[static_cast<std::size_t>(reg)];
        if (state.written && state.level != layer.levelOut) {
            return ShapeFinding{
                true,
                "levelOut metadata disagrees with the instruction "
                "stream: " +
                    regName(reg) + " ends at level " +
                    std::to_string(state.level) + " but the plan says " +
                    std::to_string(layer.levelOut),
                "recompute levelIn/levelOut from the lowered stream"};
        }
    }
    return std::nullopt;
}

std::optional<std::string>
operandFault(const HeInstr &in, const RegShape *src, const RegShape *dst,
             std::size_t poolSize)
{
    if (src == nullptr || dst == nullptr)
        return "instruction register out of range (dst " +
               regName(in.dst) + ", src " + regName(in.src) + ")";
    if (!src->written)
        return "read of unwritten register " + regName(in.src);
    const HeOpInfo &info = opInfo(in.kind);
    if (info.readsDst && !dst->written)
        return "read of unwritten register " + regName(in.dst);
    if (info.readsPlaintext &&
        (in.pt < 0 || static_cast<std::size_t>(in.pt) >= poolSize))
        return "plaintext index out of range (pt " +
               std::to_string(in.pt) + ")";
    return std::nullopt;
}

} // namespace fxhenn::hecnn
