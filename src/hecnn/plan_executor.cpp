#include "src/hecnn/plan_executor.hpp"

#include <iostream>

#include "src/common/assert.hpp"
#include "src/common/timer.hpp"
#include "src/hecnn/backend.hpp"
#include "src/hecnn/rotation_groups.hpp"
#include "src/robustness/fault_injection.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::hecnn {

namespace {

/**
 * Internal control-flow signal for GuardPolicy::degrade: thrown by
 * guardViolation(), caught in execute(), never escapes.
 */
struct DegradeSignal
{
    robustness::FailureReport report;
};

} // namespace

PlanExecutor::PlanExecutor(const HeNetworkPlan &plan,
                           const ckks::CkksContext &context,
                           const ckks::RelinKey &relin,
                           const ckks::GaloisKeys &galois,
                           const PlaintextPool &pool,
                           robustness::GuardOptions guard,
                           ExecOptions exec)
    : plan_(plan), context_(context), relin_(relin), galois_(galois),
      pool_(pool), encoder_(context), guardOptions_(guard),
      execOptions_(exec), backendName_(resolveBackendName(exec.backend)),
      kswMode_(backendName_ == "cpu-ref" ? ckks::KswMode::eager
                                         : ckks::KswMode::lazy),
      prediction_(plan, context, guard)
{
    FXHENN_FATAL_IF(plan.valuesElided,
                    "plan was compiled with elideValues=true and "
                    "cannot be executed");
}

void
PlanExecutor::guardViolation(Run &run, const std::string &layer,
                             const char *op,
                             const std::string &reason) const
{
    FXHENN_TELEM_COUNT("robustness.guard.violations", 1);
    switch (guardOptions_.policy) {
      case robustness::GuardPolicy::strict:
        FXHENN_PANIC_IF(true, "guard: " + reason + " (layer " + layer +
                                  ", op " + std::string(op) + ")");
        break;
      case robustness::GuardPolicy::warn: {
        // One formatted write: concurrent requests each emit a whole
        // line instead of interleaving operator<< fragments.
        FXHENN_TELEM_COUNT("robustness.guard.warnings", 1);
        std::string line = "fxhenn guard warning: " + reason +
                           " (layer " + layer + ", op " + op + ")\n";
        std::cerr << line;
        break;
      }
      case robustness::GuardPolicy::degrade:
        throw DegradeSignal{failure(run, layer, op, reason)};
    }
}

std::vector<robustness::BudgetSample>
PlanExecutor::trajectory(const Run &run) const
{
    const auto &all = prediction_.trajectory();
    return {all.begin(),
            all.begin() + static_cast<std::ptrdiff_t>(run.layersChecked)};
}

robustness::FailureReport
PlanExecutor::failure(const Run &run, const std::string &layer,
                      const char *op, const std::string &reason) const
{
    return {layer, op, reason, trajectory(run)};
}

void
PlanExecutor::executeLayer(Run &run, std::size_t layerIndex) const
{
    const HeLayerPlan &layer = plan_.layers[layerIndex];
    // Instructions the prediction rejected go through guardViolation
    // at their turn, so every guard policy sees them in stream order.
    const auto &rejected = prediction_.rejections(layerIndex);
    std::size_t nextRejected = 0;
    const auto check = [&](std::size_t idx) {
        while (nextRejected < rejected.size() &&
               rejected[nextRejected].instr < idx)
            ++nextRejected;
        if (nextRejected < rejected.size() &&
            rejected[nextRejected].instr == idx)
            guardViolation(run, layer.name,
                           opName(layer.instrs[idx].kind),
                           rejected[nextRejected].reason);
    };
    auto &regs = run.regs;
    auto reg = [&](std::int32_t id) -> ckks::Ciphertext & {
        auto &slot = regs[static_cast<std::size_t>(id)];
        FXHENN_ASSERT(slot.has_value(), "read of unwritten register");
        return *slot;
    };

    // Consecutive same-source rotations dispatch as one hoisted group
    // (shared digit decomposition). The groups are recomputed per call
    // from the immutable plan, so the executor stays stateless.
    std::vector<RotationGroup> groups;
    std::size_t next_group = 0;
    if (execOptions_.hoistRotations)
        groups = findRotationGroups(layer.instrs);

    for (std::size_t idx = 0; idx < layer.instrs.size(); ++idx) {
        const auto &instr = layer.instrs[idx];
        while (next_group < groups.size() &&
               groups[next_group].begin < idx)
            ++next_group;
        if (next_group < groups.size() &&
            groups[next_group].begin == idx &&
            groups[next_group].hoistable()) {
            // The guard checks every member up front; no member
            // (except a trailing dst == src) writes the shared source,
            // so this ordering is equivalent to the serial one.
            const RotationGroup &group = groups[next_group];
            std::vector<int> steps;
            std::vector<std::int32_t> dsts;
            steps.reserve(group.count);
            dsts.reserve(group.count);
            for (std::size_t m = 0; m < group.count; ++m) {
                const auto &member = layer.instrs[group.begin + m];
                check(group.begin + m);
                steps.push_back(member.step);
                dsts.push_back(member.dst);
            }
            auto rotated = run.eval.rotateHoisted(reg(instr.src),
                                                  steps, galois_);
            for (std::size_t m = 0; m < group.count; ++m)
                regs[static_cast<std::size_t>(dsts[m])] =
                    std::move(rotated[m]);
            idx = group.begin + group.count - 1;
            continue;
        }
        check(idx);
        switch (instr.kind) {
          case HeOpKind::pcMult: {
            const auto &pt = pool_.at(instr.pt);
            regs[static_cast<std::size_t>(instr.dst)] =
                run.eval.mulPlain(reg(instr.src), pt);
            break;
          }
          case HeOpKind::pcAdd: {
            // Bias adds encode at the ciphertext's current scale.
            const PlanPlaintext &pool =
                plan_.plaintexts[static_cast<std::size_t>(instr.pt)];
            ckks::Ciphertext &target = reg(instr.src);
            const auto encoded = encoder_.encode(
                std::span<const double>(pool.values), target.scale,
                target.level());
            regs[static_cast<std::size_t>(instr.dst)] =
                run.eval.addPlain(target, encoded);
            break;
          }
          case HeOpKind::ccAdd:
            run.eval.addInplace(reg(instr.dst), reg(instr.src));
            break;
          case HeOpKind::ccMult: {
            const ckks::Ciphertext &src = reg(instr.src);
            regs[static_cast<std::size_t>(instr.dst)] =
                run.eval.mulNoRelin(src, src);
            break;
          }
          case HeOpKind::relinearize:
            regs[static_cast<std::size_t>(instr.dst)] =
                run.eval.relinearize(reg(instr.src), relin_);
            break;
          case HeOpKind::rescale:
            if (instr.dst == instr.src) {
                run.eval.rescaleInplace(reg(instr.dst));
            } else {
                regs[static_cast<std::size_t>(instr.dst)] =
                    run.eval.rescale(reg(instr.src));
            }
            break;
          case HeOpKind::rotate:
            regs[static_cast<std::size_t>(instr.dst)] =
                run.eval.rotate(reg(instr.src), instr.step, galois_);
            break;
          case HeOpKind::copy:
            regs[static_cast<std::size_t>(instr.dst)] = reg(instr.src);
            break;
        }
    }
}

ExecutionResult
PlanExecutor::execute(std::vector<ckks::Ciphertext> inputs,
                      const RunControl &control) const
{
    FXHENN_FATAL_IF(inputs.size() != plan_.inputCiphertexts(),
                    "plan expects " +
                        std::to_string(plan_.inputCiphertexts()) +
                        " input ciphertexts, got " +
                        std::to_string(inputs.size()));
    FXHENN_TELEM_SCOPED_TIMER("hecnn.infer.ns");
    FXHENN_TELEM_COUNT("hecnn.inferences", 1);

    Run run{ckks::Evaluator(context_, kswMode_), {}, {}, 0};
    run.regs.resize(static_cast<std::size_t>(plan_.regCount));
    run.layerStats.reserve(plan_.layers.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
        run.regs[i] = std::move(inputs[i]);

    ExecutionResult out;
    const bool degrade =
        guardOptions_.policy == robustness::GuardPolicy::degrade;
    for (std::size_t li = 0; li < plan_.layers.size(); ++li) {
        const HeLayerPlan &layer = plan_.layers[li];
        // Cooperative between-layer deadline checkpoint: a request
        // that blew its latency budget degrades here instead of
        // burning worker time on layers nobody will wait for. This is
        // independent of the guard policy — lateness is not an
        // invariant violation.
        if (control.deadline &&
            std::chrono::steady_clock::now() > *control.deadline) {
            out.failure = failure(run, layer.name, "deadline",
                                  "request deadline exceeded before "
                                  "layer '" +
                                      layer.name +
                                      "' (cooperative abort)");
            break;
        }
        try {
            if (auto fault = robustness::fireFault("ciphertext.limb")) {
                for (auto &slot : run.regs) {
                    if (slot.has_value() && !slot->parts.empty()) {
                        robustness::corruptResidues(slot->parts[0],
                                                    fault->seed);
                        break;
                    }
                }
            }
            const ckks::OpCounts before = run.eval.counts();
            Timer timer;
            executeLayer(run, li);
            MeasuredLayerStats row;
            row.name = layer.name;
            row.seconds = timer.elapsedSeconds();
            const ckks::OpCounts &after = run.eval.counts();
            row.executed.ccAdd = after.ccAdd - before.ccAdd;
            row.executed.pcAdd = after.pcAdd - before.pcAdd;
            row.executed.pcMult = after.pcMult - before.pcMult;
            row.executed.ccMult = after.ccMult - before.ccMult;
            row.executed.rescale = after.rescale - before.rescale;
            row.executed.relinearize =
                after.relinearize - before.relinearize;
            row.executed.rotate = after.rotate - before.rotate;
            if (telemetry::enabled()) {
                telemetry::histogram("hecnn.layer." + layer.name +
                                     ".ns")
                    .record(static_cast<std::uint64_t>(row.seconds *
                                                       1e9));
            }
            run.layerStats.push_back(std::move(row));
            if (control.layerProbe)
                control.layerProbe(li, run.regs);
            ++run.layersChecked;
            if (auto reason = prediction_.checkLayerEnd(li, run.regs))
                guardViolation(run, layer.name, "layer-end", *reason);
        } catch (DegradeSignal &sig) {
            out.failure = std::move(sig.report);
        } catch (const ConfigError &e) {
            if (!degrade)
                throw;
            out.failure = failure(run, layer.name, "exception", e.what());
        } catch (const InternalError &e) {
            if (!degrade)
                throw;
            out.failure = failure(run, layer.name, "exception", e.what());
        }
        if (out.failure)
            break;
    }
    out.budget = trajectory(run);
    out.executed = run.eval.counts();
    out.backendName = backendName_;
    out.layerStats = std::move(run.layerStats);
    out.regs = std::move(run.regs);
    if (out.failure)
        FXHENN_TELEM_COUNT("robustness.guard.degraded_runs", 1);
    return out;
}

} // namespace fxhenn::hecnn
