#include "src/hecnn/rescale_rewriter.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "src/hecnn/liveness.hpp"
#include "src/hecnn/plan_check.hpp"
#include "src/hecnn/plan_walk.hpp"

namespace fxhenn::hecnn {

namespace {

bool
scalesMatch(double a, double b)
{
    const double ratio = a / b;
    return ratio > 0.99 && ratio < 1.01;
}

/** The sinking pass itself; produces a rewritten copy of the plan. */
struct Sinker
{
    ShapeChain chain;
    std::vector<RegShape> sim; ///< shapes over the *emitted* stream
    std::vector<bool> pending; ///< register owes one deferred rescale
    std::vector<HeInstr> *out = nullptr;

    explicit Sinker(const HeNetworkPlan &p)
        : chain(ShapeChain::ofParams(p.params)),
          sim(inputShapes(p, chain)), pending(sim.size(), false)
    {
    }

    bool
    inRange(std::int32_t r) const
    {
        return r >= 0 && r < static_cast<std::int32_t>(sim.size());
    }

    void
    emit(const HeInstr &in)
    {
        out->push_back(in);
        applyShape(in, chain, sim[static_cast<std::size_t>(in.src)],
                   sim[static_cast<std::size_t>(in.dst)]);
    }

    /** Discharge the deferred rescale on @p r (emits `rescale r,r`). */
    void
    flush(std::int32_t r)
    {
        if (!inRange(r) || !pending[static_cast<std::size_t>(r)])
            return;
        pending[static_cast<std::size_t>(r)] = false;
        emit({HeOpKind::rescale, r, r, -1, 0});
    }

    /** Rewrite one layer; false = bail out (malformed instruction). */
    bool
    rewriteLayer(const HeLayerPlan &layer,
                 const std::vector<std::int32_t> &liveOut,
                 std::vector<HeInstr> &rewritten)
    {
        out = &rewritten;
        for (const HeInstr &in : layer.instrs) {
            if (!inRange(in.dst) || !inRange(in.src))
                return false;
            const auto dst = static_cast<std::size_t>(in.dst);
            const auto src = static_cast<std::size_t>(in.src);

            if (in.kind == HeOpKind::rescale && in.dst == in.src) {
                // Defer. A register already owing a rescale discharges
                // it first so at most one is ever outstanding.
                if (pending[src])
                    flush(in.src);
                pending[src] = true;
                continue;
            }
            if (in.kind == HeOpKind::ccAdd) {
                if (pending[dst] && pending[src] &&
                    sim[dst].written && sim[src].written &&
                    sim[dst].level == sim[src].level &&
                    scalesMatch(sim[dst].scale, sim[src].scale)) {
                    // Both operands ride at the same pre-rescale
                    // state: add first, rescale the sum once later.
                    // This is the elimination that turns K rescales
                    // per accumulation into one.
                    emit(in);
                    continue;
                }
                flush(in.dst);
                flush(in.src);
                emit(in);
                continue;
            }
            if (in.kind == HeOpKind::rescale) {
                // rescale r_a, r_b with a != b: not a sinkable form;
                // pass it through against the flushed source.
                flush(in.src);
                pending[dst] = false; // dst overwritten
                emit(in);
                continue;
            }

            // Every other opcode reads src at its original state —
            // including rotate/relinearize, where deferral would run
            // the keyswitch at the higher level for no savings.
            flush(in.src);
            if (in.dst != in.src)
                pending[dst] = false; // pure overwrite kills the debt
            emit(in);
        }

        // Layer boundary: discharge what later layers or the guard's
        // layer-end checks observe (the layer's outputs — every written
        // register when it declares none — and the live-out set); drop
        // debts on dead registers — their rescale is the one we
        // eliminated.
        const std::vector<std::int32_t> outputs = layerOutputs(layer, sim);
        std::vector<bool> keep(pending.size(), false);
        for (const auto *regs : {&outputs, &liveOut}) {
            for (const std::int32_t r : *regs) {
                if (inRange(r))
                    keep[static_cast<std::size_t>(r)] = true;
            }
        }
        for (std::size_t r = 0; r < pending.size(); ++r) {
            if (pending[r] && keep[r])
                flush(static_cast<std::int32_t>(r));
            else
                pending[r] = false;
        }
        out = nullptr;
        return true;
    }
};

} // namespace

std::string
RewriteSummary::describe() const
{
    std::ostringstream oss;
    oss.precision(4);
    if (applied) {
        oss << "rescale rewrite applied: " << rescalesBefore << " -> "
            << rescalesAfter << " rescales, certified min headroom "
            << minHeadroomBefore << " -> " << minHeadroomAfter
            << " bits";
    } else {
        oss << "rescale rewrite not applied (" << reason
            << "); plan unchanged";
    }
    return oss.str();
}

RewriteSummary
rewriteRescales(HeNetworkPlan &plan, const CertifyOptions &copts)
{
    RewriteSummary summary;
    summary.rescalesBefore = plan.totalCounts().rescale;
    summary.rescalesAfter = summary.rescalesBefore;

    const NoiseCertificate before = certifyPlan(plan, copts);
    summary.minHeadroomBefore = before.minHeadroomBits;
    summary.minHeadroomAfter = before.minHeadroomBits;
    if (!before.valid) {
        summary.reason =
            "original plan did not certify: " + before.invalidReason;
        return summary;
    }

    HeNetworkPlan rewritten = plan;
    try {
        Sinker sinker(plan);
        const auto liveOut = computeLiveness(plan).liveOut;
        for (std::size_t i = 0; i < plan.layers.size(); ++i) {
            std::vector<HeInstr> instrs;
            instrs.reserve(plan.layers[i].instrs.size());
            if (!sinker.rewriteLayer(plan.layers[i], liveOut[i],
                                     instrs)) {
                summary.reason = "malformed instruction in layer " +
                                 plan.layers[i].name;
                return summary;
            }
            rewritten.layers[i].instrs = std::move(instrs);
            rewritten.layers[i].classify();
        }
    } catch (const std::exception &e) {
        summary.reason = e.what();
        return summary;
    }

    summary.rescalesAfter = rewritten.totalCounts().rescale;
    if (summary.rescalesAfter >= summary.rescalesBefore) {
        summary.reason = "no rescale could be eliminated";
        summary.rescalesAfter = summary.rescalesBefore;
        return summary;
    }

    const NoiseCertificate after = certifyPlan(rewritten, copts);
    summary.minHeadroomAfter = after.minHeadroomBits;
    if (!after.valid) {
        summary.reason =
            "rewritten plan did not certify: " + after.invalidReason;
        summary.rescalesAfter = summary.rescalesBefore;
        summary.minHeadroomAfter = summary.minHeadroomBefore;
        return summary;
    }
    if (after.minHeadroomBits < before.minHeadroomBits - 1e-9) {
        std::ostringstream oss;
        oss.precision(4);
        oss << "certified headroom would drop "
            << before.minHeadroomBits << " -> "
            << after.minHeadroomBits << " bits";
        summary.reason = oss.str();
        summary.rescalesAfter = summary.rescalesBefore;
        return summary;
    }
    if (planVerifierInstalled()) {
        try {
            runPlanVerifier(rewritten, "rescale-rewrite");
        } catch (const std::exception &e) {
            summary.reason =
                std::string("plan verifier rejected the rewrite: ") +
                e.what();
            summary.rescalesAfter = summary.rescalesBefore;
            summary.minHeadroomAfter = summary.minHeadroomBefore;
            return summary;
        }
    }

    plan = std::move(rewritten);
    summary.applied = true;
    return summary;
}

} // namespace fxhenn::hecnn
