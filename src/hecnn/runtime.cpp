#include "src/hecnn/runtime.hpp"

#include "src/common/assert.hpp"

namespace fxhenn::hecnn {

Runtime::Runtime(const HeNetworkPlan &plan,
                 const ckks::CkksContext &context, std::uint64_t seed,
                 robustness::GuardOptions guard, ExecOptions exec)
    : session_(plan, context, seed), pool_(plan, context),
      executor_(plan, context, session_.relinKey(),
                session_.galoisKeys(), pool_, guard, exec)
{}

InferOutcome
runOutcome(const ExecutionResult &result)
{
    InferOutcome out;
    out.failure = result.failure;
    out.budget = result.budget;
    out.backendName = result.backendName;
    out.opsExecuted = result.executed.total();
    return out;
}

InferOutcome
Runtime::inferGuarded(const nn::Tensor &input)
{
    last_ = executor_.execute(
        session_.encryptInput({&input}, nextRequest_++));
    InferOutcome out = runOutcome(last_);
    if (!out.failure) // degraded: no decryption, no garbage logits
        out.logits = session_.decryptLogits(last_.regs).front();
    return out;
}

std::vector<double>
Runtime::infer(const nn::Tensor &input)
{
    auto out = inferGuarded(input);
    if (out.failure)
        FXHENN_PANIC_IF(true, "encrypted inference degraded at layer " +
                                  out.failure->layer + ": " +
                                  out.failure->reason);
    return std::move(out.logits);
}

double
Runtime::outputHeadroomBits() const
{
    return session_.outputHeadroomBits(last_.regs);
}

} // namespace fxhenn::hecnn
