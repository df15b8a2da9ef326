/**
 * @file
 * The execution-backend names of the plan interpreter.
 *
 * One PlanExecutor runs every plan through a per-run ckks::Evaluator;
 * the backend name only picks how:
 *
 *  - "cpu": the reference path — lazy keyswitching under whatever SIMD
 *    level FXHENN_SIMD resolved. Every other name must decrypt
 *    bitwise identical to it.
 *  - "cpu-ref": differential-debugging path — eager keyswitching under
 *    the same SIMD level as "cpu". The scalar kernels are a separate
 *    axis: FXHENN_SIMD=scalar selects them for the whole process.
 *  - "fpga-sim": the cpu arithmetic. Its per-layer latency is the DSE
 *    replay of the plan (dse::ExploreOptions::replaySim), which the
 *    CLI prints for verify, batch and design.
 *
 * Selection contract (mirrors FXHENN_SIMD): an explicit name (CLI
 * --backend / ExecOptions::backend) wins; otherwise the FXHENN_BACKEND
 * environment variable; otherwise "cpu". An unknown name throws
 * ConfigError (CLI exit code 3) listing the three names.
 */
#ifndef FXHENN_HECNN_BACKEND_HPP
#define FXHENN_HECNN_BACKEND_HPP

#include <string>

namespace fxhenn::hecnn {

/**
 * The selection rule shared by the CLI, the executor and the benches:
 * @p requested (non-empty) wins, else the FXHENN_BACKEND environment
 * variable, else "cpu". The resolved name must be one of "cpu",
 * "cpu-ref" and "fpga-sim" — an unknown name throws ConfigError (CLI
 * exit code 3), so resolve once up front, before any work runs.
 */
std::string resolveBackendName(const std::string &requested = "");

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_BACKEND_HPP
