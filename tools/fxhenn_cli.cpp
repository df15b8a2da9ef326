/**
 * @file
 * fxhenn — command-line frontend for the FxHENN framework.
 *
 *   fxhenn info    --model mnist|cifar10
 *   fxhenn plan    --model mnist|cifar10 [--layer N]
 *   fxhenn design  --model mnist|cifar10 --device acu9eg|acu15eg
 *                  [--out DIR] [--liveness 1]
 *   fxhenn sweep   --model mnist|cifar10 [--min B] [--max B] [--step B]
 *   fxhenn verify  [--seed S] [--guard strict|warn|degrade]
 *   fxhenn batch   --model mnist|test [--requests N] [--workers W]
 *                  [--queue C] [--seed S] [--guard P] [--check M]
 *                  [--deadline-ms D] [--admission block|shed|degrade]
 *                  [--retries R] [--batch-size B]
 *   fxhenn lint    --model mnist|cifar10 | --load FILE
 *                  [--format text|json] [--list-passes 1]
 *                  [--noise-cert FILE] [--rewrite 1]
 *
 * `verify` runs a fast encrypted-vs-plaintext inference on the
 * test-scale network; `batch` serves N encrypted inferences
 * concurrently through engine::InferenceEngine and (by default)
 * cross-checks the logits bitwise against serial Runtime::infer()
 * calls; `design` runs the full DSE and writes the HLS artifacts;
 * `lint` runs the static plan verifier (src/analysis) and renders
 * every diagnostic.
 *
 * Exit codes:
 *   0  success / verify PASS / lint clean
 *   1  verify FAIL (logits diverged)
 *   2  usage error (no or unknown command)
 *   3  configuration error (bad flag, bad value, corrupt input)
 *   4  internal error / lint found error-severity diagnostics (a plan
 *      that fails to load is itself an error-severity finding)
 *   5  verify DEGRADED (guarded run aborted with a failure report)
 *   6  batch SHED (most requests were rejected at admission or expired
 *      before execution — the SLO, not the crypto, failed)
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "src/analysis/pass_manager.hpp"
#include "src/analysis/verifier.hpp"
#include "src/common/assert.hpp"
#include "src/dse/explorer.hpp"
#include "src/hecnn/backend.hpp"
#include "src/engine/inference_engine.hpp"
#include "src/telemetry/telemetry.hpp"
#include "src/fxhenn/codegen.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/fxhenn/report.hpp"
#include "src/common/crc32.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan_check.hpp"
#include "src/hecnn/plan_io.hpp"
#include "src/hecnn/rescale_rewriter.hpp"
#include "src/hecnn/plan_printer.hpp"
#include "src/hecnn/runtime.hpp"
#include "src/hecnn/stats.hpp"
#include "src/hecnn/verify.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/robustness/fault_injection.hpp"
#include "src/robustness/guard.hpp"

using namespace fxhenn;

namespace {

struct Args
{
    std::string command;
    std::map<std::string, std::string> options;

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }
};

/** Flags each command accepts; anything else is a ConfigError. */
const std::map<std::string, std::set<std::string>> kCommandFlags = {
    {"info", {"model"}},
    {"plan", {"model", "save", "load", "layer"}},
    {"design",
     {"model", "device", "out", "report", "liveness", "certify",
      "backend"}},
    {"sweep", {"model", "min", "max", "step"}},
    {"verify", {"seed", "guard", "backend"}},
    {"batch",
     {"model", "requests", "workers", "queue", "seed", "guard",
      "check", "deadline-ms", "admission", "retries", "backend",
      "batch-size"}},
    {"lint",
     {"model", "load", "format", "list-passes", "noise-cert",
      "rewrite"}},
};

/** Flags accepted by every command. */
const std::set<std::string> kGlobalFlags = {"telemetry-json", "fault",
                                            "verify-plan"};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc >= 2)
        args.command = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        FXHENN_FATAL_IF(flag.rfind("--", 0) != 0,
                        "malformed argument '" + flag +
                            "' (expected --flag value)");
        FXHENN_FATAL_IF(i + 1 >= argc,
                        "flag '" + flag + "' is missing its value");
        args.options[flag.substr(2)] = argv[i + 1];
    }
    const auto allowed = kCommandFlags.find(args.command);
    if (allowed != kCommandFlags.end()) {
        for (const auto &[key, value] : args.options) {
            (void)value;
            FXHENN_FATAL_IF(allowed->second.count(key) == 0 &&
                                kGlobalFlags.count(key) == 0,
                            "unknown flag '--" + key +
                                "' for command '" + args.command + "'");
        }
    }
    return args;
}

std::uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    std::uint64_t value = 0;
    std::size_t pos = 0;
    bool ok = !text.empty() && text[0] != '-';
    if (ok) {
        try {
            value = std::stoull(text, &pos);
        } catch (const std::exception &) {
            ok = false;
        }
    }
    FXHENN_FATAL_IF(!ok || pos != text.size(),
                    "flag --" + flag +
                        " expects an unsigned integer, got '" + text +
                        "'");
    return value;
}

double
parseDouble(const std::string &flag, const std::string &text)
{
    double value = 0.0;
    std::size_t pos = 0;
    bool ok = !text.empty();
    if (ok) {
        try {
            value = std::stod(text, &pos);
        } catch (const std::exception &) {
            ok = false;
        }
    }
    FXHENN_FATAL_IF(!ok || pos != text.size(),
                    "flag --" + flag + " expects a number, got '" +
                        text + "'");
    return value;
}

int
usage()
{
    std::cout <<
        "fxhenn — FPGA acceleration framework for HE-CNN inference\n"
        "\n"
        "Commands:\n"
        "  info   --model mnist|cifar10          network + HE stats\n"
        "  plan   --model mnist|cifar10          per-layer HE plan\n"
        "         [--save FILE] [--load FILE]     plan deployment\n"
        "         [--layer N]                    disassemble layer N\n"
        "  design --model mnist|cifar10          run DSE, emit HLS\n"
        "         --device acu9eg|acu15eg\n"
        "         [--out DIR] [--report 1]\n"
        "         [--liveness 1]                 tighten the BRAM\n"
        "                          bound with register liveness and\n"
        "                          print the before/after delta\n"
        "         [--certify 1]                  gate DSE on the noise\n"
        "                          certificate and report how many\n"
        "                          prime-chain levels it can prune\n"
        "         [--backend fpga-sim]           replay the winning\n"
        "                          design point through the pipeline\n"
        "                          simulator and report the per-layer\n"
        "                          prediction error\n"
        "  sweep  --model mnist|cifar10          Fig. 9 budget sweep\n"
        "         [--min 350] [--max 1500] [--step 100]\n"
        "  verify [--seed 1]                     encrypted-vs-plain "
        "check\n"
        "         [--guard strict|warn|degrade]  guard policy\n"
        "         [--backend cpu|cpu-ref|fpga-sim]\n"
        "                          execution backend; fpga-sim also\n"
        "                          prints the per-layer predicted-vs-\n"
        "                          measured latency table\n"
        "  batch  --model mnist|test             concurrent batched\n"
        "         [--requests 8] [--workers 4]   encrypted inference\n"
        "         [--queue 2*workers] [--seed 1]\n"
        "         [--guard strict|warn|degrade]\n"
        "         [--check serial|none]          bitwise cross-check\n"
        "                          against serial Runtime::infer()\n"
        "         [--deadline-ms D]              per-request SLO; late\n"
        "                          requests are shed, never executed\n"
        "         [--admission block|shed|degrade]\n"
        "         [--retries R]                  deterministic re-runs\n"
        "                          of transient failures (max 16)\n"
        "         [--backend cpu|cpu-ref|fpga-sim]\n"
        "                          execution backend of the workers\n"
        "                          (--check serial stays on cpu, so\n"
        "                          the bitwise cross-check spans\n"
        "                          backends)\n"
        "         [--batch-size B]               pack B requests into\n"
        "                          shared ciphertext slots (B must\n"
        "                          divide N/2; with B > 1 --check\n"
        "                          serial compares numerically, not\n"
        "                          bitwise — see ARCHITECTURE.md 15)\n"
        "  lint   --model mnist|cifar10          static plan verifier\n"
        "         | --load FILE                  lint a saved plan\n"
        "         [--format text|json]           report rendering\n"
        "         [--list-passes 1]              show the pipeline\n"
        "         [--noise-cert FILE]            write the static\n"
        "                          noise certificate as JSON\n"
        "         [--rewrite 1]                  apply the certified\n"
        "                          waterline rescale rewrite and print\n"
        "                          the certificate diff\n"
        "\n"
        "Global options (any command):\n"
        "  --telemetry-json FILE   record counters/timers while the\n"
        "                          command runs and write them as JSON\n"
        "  --fault SITE:KIND[:TRIGGER[:SEED]]\n"
        "                          arm a fault-injection site (only in\n"
        "                          FXHENN_FAULTINJECT builds)\n"
        "  --verify-plan 1         run the static verifier over every\n"
        "                          plan loaded from disk (ConfigError\n"
        "                          on error-severity findings)\n"
        "\n"
        "Environment: FXHENN_BACKEND=cpu|cpu-ref|fpga-sim selects the\n"
        "execution backend when --backend is absent (like FXHENN_SIMD\n"
        "for the kernel level); unknown values exit 3.\n"
        "\n"
        "Exit codes: 0 ok/PASS/lint clean, 1 verify FAIL, 2 usage,\n"
        "3 config error, 4 internal error or lint errors, 5 verify\n"
        "DEGRADED, 6 batch SHED (most requests missed their SLO)\n";
    return 2;
}

struct ModelChoice
{
    nn::Network net;
    ckks::CkksParams params;
    bool elide;
};

/** Warn on stderr when a preset is below lambda = 128 on log QP, the
 * modulus its evaluation keys live under. */
void
warnIfInsecure(const std::string &name, const ckks::CkksParams &params)
{
    if (params.securityLevel() >= 128)
        return;
    std::cerr << "warning: preset '" << name
              << "' is below lambda=128: log QP = " << params.logQP()
              << " bits, N=" << params.n << " allows "
              << params.maxLogQP128();
    if (params.lambdaLabel != 0)
        std::cerr << " (the paper labels it lambda="
                  << params.lambdaLabel << ")";
    std::cerr << "\n";
}

ModelChoice
pickModel(const std::string &name)
{
    if (name == "mnist") {
        warnIfInsecure(name, ckks::mnistParams());
        return {nn::buildMnistNetwork(), ckks::mnistParams(), false};
    }
    if (name == "cifar10") {
        warnIfInsecure(name, ckks::cifar10Params());
        return {nn::buildCifar10Network(), ckks::cifar10Params(), true};
    }
    throw ConfigError("unknown model '" + name +
                      "' (expected mnist or cifar10)");
}

fpga::DeviceSpec
pickDevice(const std::string &name)
{
    if (name == "acu9eg")
        return fpga::acu9eg();
    if (name == "acu15eg")
        return fpga::acu15eg();
    throw ConfigError("unknown device '" + name +
                      "' (expected acu9eg or acu15eg)");
}

/**
 * The per-layer fpga-sim latency of @p plan: the DSE winner on
 * @p device (ACU9EG for `verify` and `batch`) under default
 * ExploreOptions, replayed through the event-driven pipeline schedule.
 * It depends only on the plan, so one replay serves every request.
 */
std::vector<dse::ReplayRow>
fpgaSimReplay(const hecnn::HeNetworkPlan &plan,
              const fpga::DeviceSpec &device)
{
    dse::ExploreOptions options;
    options.replaySim = true;
    return dse::explore(plan, device, options).simReplay;
}

int
cmdInfo(const Args &args)
{
    auto model = pickModel(args.get("model", "mnist"));
    hecnn::CompileOptions opts;
    opts.elideValues = model.elide;
    const auto plan = hecnn::compile(model.net, model.params, opts);
    const auto size = hecnn::modelSize(plan);

    std::cout << "Model: " << model.net.name() << "\n"
              << "Parameters: " << model.params.describe() << "\n"
              << "Plain MACs: " << model.net.totalMacs() << "\n"
              << "HOPs: " << plan.totalCounts().total()
              << " (KeySwitch " << plan.totalCounts().keySwitch()
              << ")\n"
              << "Depth: " << plan.depth() << " levels of "
              << model.params.levels << "\n"
              << "Input ciphertexts: " << plan.inputCiphertexts()
              << "\n"
              << "Packed weights: "
              << double(size.weightPlaintexts) / (1 << 20) << " MiB, "
              << "keys: "
              << double(size.relinKey + size.galoisKeys) / (1 << 20)
              << " MiB\n";
    return 0;
}

int
cmdPlan(const Args &args)
{
    const std::string load = args.get("load", "");
    hecnn::HeNetworkPlan plan;
    if (!load.empty()) {
        std::ifstream in(load, std::ios::binary);
        FXHENN_FATAL_IF(!in, "cannot open plan file " + load);
        plan = hecnn::loadPlan(in);
    } else {
        auto model = pickModel(args.get("model", "mnist"));
        hecnn::CompileOptions opts;
        opts.elideValues = model.elide;
        plan = hecnn::compile(model.net, model.params, opts);
    }
    hecnn::summarize(plan, std::cout);
    const std::string layer = args.get("layer", "");
    if (!layer.empty()) {
        std::cout << "\n";
        hecnn::disassemble(
            plan, static_cast<std::size_t>(parseU64("layer", layer)),
            std::cout, 64);
    }
    const std::string save = args.get("save", "");
    if (!save.empty()) {
        std::ofstream out(save, std::ios::binary);
        FXHENN_FATAL_IF(!out, "cannot write plan file " + save);
        hecnn::savePlan(plan, out);
        std::cout << "\nSaved plan to " << save << "\n";
    }
    return 0;
}

int
cmdDesign(const Args &args)
{
    // Resolve the device first: a bad --device should fail before the
    // (much slower) model build + compile.
    const auto device = pickDevice(args.get("device", "acu9eg"));
    auto model = pickModel(args.get("model", "mnist"));
    const std::string liveness = args.get("liveness", "");
    const std::string certify = args.get("certify", "");
    FxhennOptions opts;
    opts.elideValues = model.elide;
    opts.explore.livenessBuffers =
        liveness == "1" || liveness == "true";
    opts.explore.certifyNoise =
        certify == "1" || certify == "true";
    // --backend fpga-sim closes the loop: the winning point is
    // replayed through the event-driven schedule, and the prediction
    // error is reported.
    const std::string backend =
        hecnn::resolveBackendName(args.get("backend", ""));
    opts.explore.replaySim = backend == "fpga-sim";
    const auto sol =
        Fxhenn::generate(model.net, model.params, device, opts);

    std::cout << "Design for " << sol.modelName << " on "
              << sol.deviceName << "\n"
              << "  latency  " << sol.latencySeconds() << " s\n"
              << "  energy   " << sol.energyJoules(device) << " J\n"
              << "  DSP      " << 100.0 * sol.design.dspFraction
              << " %\n"
              << "  BRAM     " << 100.0 * sol.design.bramFraction
              << " %\n"
              << "  DSE      " << sol.dsePointsEvaluated
              << " feasible / " << sol.dsePointsPruned << " pruned\n";
    if (opts.explore.certifyNoise && sol.certifiedLevels > 0) {
        std::cout << "  noise    certified min headroom "
                  << (sol.certifiedMinHeadroomBits >= 0.0 ? "+" : "")
                  << sol.certifiedMinHeadroomBits
                  << " bits; min feasible chain "
                  << sol.minFeasibleLevels << " of "
                  << sol.certifiedLevels << " primes ("
                  << sol.levelChoicesPruned
                  << " level choice(s) pruned)\n";
    }
    for (std::size_t m = 0; m < fpga::kOpModuleCount; ++m) {
        const auto op = static_cast<fpga::HeOpModule>(m);
        const auto &a = sol.design.alloc[op];
        std::cout << "  " << fpga::moduleName(op) << ": nc="
                  << a.ncNtt << " intra=" << a.pIntra << " inter="
                  << a.pInter << "\n";
    }

    if (!sol.simReplay.empty())
        std::cout << dse::renderReplayCycles(sol.simReplay);

    const std::string out = args.get("out", "");
    if (!out.empty()) {
        const auto [tcl, hdr] = writeAccelerator(sol, out);
        std::cout << "Wrote " << tcl << " and " << hdr << "\n";
    }
    if (args.get("report", "") == "1" ||
        args.get("report", "") == "true") {
        std::cout << "\n" << renderDesignReport(sol, device);
    }
    if (opts.explore.livenessBuffers) {
        // Re-run with the plain Eq. 8-9 bound for the before/after
        // comparison the flag promises.
        FxhennOptions plain = opts;
        plain.explore.livenessBuffers = false;
        const auto base =
            Fxhenn::generate(model.net, model.params, device, plain);
        std::cout << "\n" << renderLivenessDelta(base, sol, device);
    }
    return 0;
}

int
cmdLint(const Args &args)
{
    const std::string format = args.get("format", "text");
    FXHENN_FATAL_IF(format != "text" && format != "json",
                    "flag --format expects text or json, got '" +
                        format + "'");
    const std::string list = args.get("list-passes", "");
    if (list == "1" || list == "true") {
        const auto pm = analysis::PassManager::standard();
        for (const auto &pass : pm.passes()) {
            std::cout << pass->name() << ": " << pass->description()
                      << "\n";
        }
        return 0;
    }

    analysis::AnalysisReport report;
    std::optional<hecnn::HeNetworkPlan> plan;
    const std::string load = args.get("load", "");
    bool has_artifact = false;
    std::uint32_t artifact_crc = 0;
    if (!load.empty()) {
        // A plan that cannot be loaded is itself an error-severity
        // finding (exit 4), not a config error: lint's contract is to
        // judge the plan, and an unreadable plan fails that judgment.
        std::ifstream in(load, std::ios::binary);
        if (!in) {
            report.addNetwork(analysis::Severity::error, "plan-load",
                              "cannot open plan file " + load,
                              "check the path");
        } else {
            try {
                // Slurp the bytes once so the report can carry the
                // CRC-32 of the exact artifact it judged.
                std::string bytes{
                    std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
                artifact_crc = crc32(bytes.data(), bytes.size());
                has_artifact = true;
                std::istringstream is(std::move(bytes));
                plan = hecnn::loadPlan(is);
            } catch (const std::exception &e) {
                report.addNetwork(
                    analysis::Severity::error, "plan-load",
                    std::string("plan failed to load: ") + e.what(),
                    "the stream is truncated, corrupt, or not an "
                    "FxHENN plan");
            }
        }
    } else {
        auto model = pickModel(args.get("model", "mnist"));
        hecnn::CompileOptions copts;
        copts.elideValues = model.elide;
        // Lint renders the full report itself; the compiler
        // self-check would turn findings into a bare ConfigError.
        copts.selfCheck = false;
        copts.certifyNoise = false;
        plan = hecnn::compile(model.net, model.params, copts);
    }

    if (plan) {
        const std::string rewrite = args.get("rewrite", "");
        if (rewrite == "1" || rewrite == "true") {
            const auto before = hecnn::certifyPlan(*plan);
            const auto summary = hecnn::rewriteRescales(*plan);
            std::cout << summary.describe() << "\n";
            if (summary.applied && format == "text") {
                // Certificate diff: the acceptance proof, spelled out.
                std::cout << "certificate before rewrite:\n"
                          << before.renderText()
                          << "certificate after rewrite:\n"
                          << hecnn::certifyPlan(*plan).renderText()
                          << "\n";
            }
        }
        report = analysis::verifyPlan(*plan);
        if (has_artifact)
            report.setArtifact(load, artifact_crc);

        const std::string cert_out = args.get("noise-cert", "");
        if (!cert_out.empty()) {
            auto cert = hecnn::certifyPlan(*plan);
            if (has_artifact) {
                cert.hasArtifact = true;
                cert.artifactPath = load;
                cert.artifactCrc32 = artifact_crc;
            }
            std::ofstream out(cert_out);
            FXHENN_FATAL_IF(!out, "cannot write noise certificate " +
                                      cert_out);
            out << cert.renderJson();
            if (format == "text")
                std::cout << "wrote noise certificate to " << cert_out
                          << "\n";
        }
    }

    if (format == "json")
        std::cout << report.toJson();
    else
        std::cout << report.toText();
    return report.errorCount() > 0 ? 4 : 0;
}

int
cmdSweep(const Args &args)
{
    auto model = pickModel(args.get("model", "mnist"));
    const double lo = parseDouble("min", args.get("min", "350"));
    const double hi = parseDouble("max", args.get("max", "1500"));
    const double step = parseDouble("step", args.get("step", "100"));
    FXHENN_FATAL_IF(step <= 0.0,
                    "flag --step must be positive (the sweep would "
                    "never terminate)");

    hecnn::CompileOptions copts;
    copts.elideValues = model.elide;
    const auto plan = hecnn::compile(model.net, model.params, copts);
    const auto device = fpga::acu9eg();

    std::cout << "budget_blocks,feasible,best_latency_s\n";
    for (double budget = lo; budget <= hi; budget += step) {
        dse::ExploreOptions opts;
        opts.bramBudgetBlocks = budget;
        opts.allowInfeasible = true; // infeasible budgets are data here
        const auto result = dse::explore(plan, device, opts);
        std::cout << budget << "," << result.evaluated << ",";
        if (result.best) {
            std::cout << result.best->latencySeconds;
        } else {
            std::cout << "inf";
        }
        std::cout << "\n";
    }
    return 0;
}

int
cmdVerify(const Args &args)
{
    const auto seed = parseU64("seed", args.get("seed", "1"));
    hecnn::VerifyOptions options;
    options.inputSeed = seed;
    options.keySeed = seed;
    options.guard.policy =
        robustness::parseGuardPolicy(args.get("guard", "degrade"));
    options.backend = args.get("backend", "");
    const auto params = ckks::testParams(2048, 7, 30);
    warnIfInsecure("test", params);
    const auto net = nn::buildTestNetwork();
    const auto result =
        hecnn::verifyAgainstPlaintext(net, params, options);
    if (result.failure) {
        std::cout << "encrypted inference DEGRADED\n\n"
                  << result.renderDiagnosis() << "\nDEGRADED\n";
        return 5;
    }
    std::cout << "encrypted-vs-plaintext max |err| = "
              << result.maxAbsError << " over "
              << result.encryptedLogits.size() << " logits, "
              << result.hopsExecuted << " HE ops executed (backend "
              << result.backendName << ")\n"
              << (result.argmaxMatches ? "argmax matches\n"
                                       : "argmax DIFFERS\n")
              << "\n"
              << hecnn::renderMeasuredStats(result.layers) << "\n";
    std::string latencyWarning;
    if (result.backendName == "fpga-sim") {
        // The predicted-vs-measured latency loop: per-layer DSE
        // prediction against the event-driven simulated cost. A
        // divergent layer is a warning, never a FAIL.
        const auto device = fpga::acu9eg();
        const auto replay =
            fpgaSimReplay(hecnn::compile(net, params), device);
        std::cout << dse::renderReplayLatency(replay, device) << "\n";
        if (const auto warning = dse::replayWarning(replay))
            latencyWarning = "warning (non-fatal):\n" + warning->render();
    }
    std::cout << result.renderDiagnosis() << latencyWarning;
    const bool pass = result.passed();
    std::cout << (pass ? "PASS" : "FAIL") << "\n";
    return pass ? 0 : 1;
}

int
cmdBatch(const Args &args)
{
    const std::string modelName = args.get("model", "test");
    auto [net, params] =
        [&]() -> std::pair<nn::Network, ckks::CkksParams> {
        if (modelName == "test") {
            const auto testParams = ckks::testParams(2048, 7, 30);
            warnIfInsecure(modelName, testParams);
            return {nn::buildTestNetwork(), testParams};
        }
        auto model = pickModel(modelName);
        FXHENN_FATAL_IF(model.elide,
                        "model '" + modelName +
                            "' compiles values-elided (stats only) "
                            "and cannot be executed; use mnist or "
                            "test");
        return {std::move(model.net), model.params};
    }();

    const auto requests = parseU64("requests", args.get("requests", "8"));
    FXHENN_FATAL_IF(requests == 0, "flag --requests must be positive");
    const auto workers = parseU64("workers", args.get("workers", "4"));
    FXHENN_FATAL_IF(workers == 0, "flag --workers must be positive");
    const auto seed = parseU64("seed", args.get("seed", "1"));
    const std::string check = args.get("check", "serial");
    FXHENN_FATAL_IF(check != "serial" && check != "none",
                    "flag --check expects serial or none, got '" +
                        check + "'");
    const auto deadlineMs =
        parseU64("deadline-ms", args.get("deadline-ms", "0"));
    FXHENN_FATAL_IF(args.options.count("deadline-ms") != 0 &&
                        deadlineMs == 0,
                    "flag --deadline-ms must be >= 1 (omit the flag "
                    "to serve without a deadline)");
    const auto retries = parseU64("retries", args.get("retries", "0"));
    FXHENN_FATAL_IF(retries > 16,
                    "flag --retries must be <= 16, got " +
                        std::to_string(retries));
    const auto batchSize =
        parseU64("batch-size", args.get("batch-size", "1"));
    FXHENN_FATAL_IF(batchSize == 0,
                    "flag --batch-size must be positive (use 1 to "
                    "serve unbatched)");

    engine::EngineOptions opts;
    opts.workers = static_cast<unsigned>(workers);
    opts.queueCapacity = parseU64(
        "queue", args.get("queue", std::to_string(2 * workers)));
    opts.keySeed = seed;
    opts.guard.policy =
        robustness::parseGuardPolicy(args.get("guard", "degrade"));
    opts.admission =
        engine::parseAdmissionPolicy(args.get("admission", "block"));
    opts.deadlineSeconds = double(deadlineMs) / 1000.0;
    opts.retry.maxRetries = static_cast<std::uint32_t>(retries);
    opts.exec.backend = args.get("backend", "");

    hecnn::CompileOptions compileOpts;
    compileOpts.batchLanes = batchSize;
    const auto plan = hecnn::compile(net, params, compileOpts);
    ckks::CkksContext ctx(params);
    engine::InferenceEngine engine(plan, ctx, opts);

    std::vector<nn::Tensor> inputs;
    inputs.reserve(requests);
    for (std::uint64_t r = 0; r < requests; ++r)
        inputs.push_back(nn::syntheticInput(net, seed + r));

    std::cout << "Serving " << requests << " encrypted inferences of "
              << net.name() << " on " << workers << " workers (queue "
              << opts.queueCapacity << ", guard "
              << robustness::guardPolicyName(opts.guard.policy)
              << ", admission "
              << engine::admissionPolicyName(opts.admission)
              << ", backend " << engine.executor().backendName();
    if (deadlineMs > 0)
        std::cout << ", deadline " << deadlineMs << " ms";
    if (retries > 0)
        std::cout << ", retries " << retries;
    if (batchSize > 1)
        std::cout << ", batch-size " << batchSize;
    std::cout << ")\n";
    const auto outcomes = engine.runBatch(inputs);
    const auto stats = engine.stats();

    // Never-executed rejections (admission sheds, queue/entry deadline
    // expiries) versus runs that executed and degraded: the exit code
    // distinguishes an SLO collapse (6) from a crypto failure (5).
    std::size_t shed = 0;
    std::size_t degraded = 0;
    for (const auto &outcome : outcomes) {
        if (!outcome.failure)
            continue;
        if (outcome.failure->layer == "admission")
            ++shed;
        else
            ++degraded;
    }
    std::cout << "  wall time   " << stats.lastBatchSeconds << " s\n"
              << "  throughput  " << stats.lastBatchRequestsPerSecond
              << " requests/s\n"
              << "  latency     mean " << stats.meanLatencySeconds
              << " s, min " << stats.minLatencySeconds << " s, max "
              << stats.maxLatencySeconds << " s\n"
              << "  percentiles p50 " << stats.p50LatencySeconds
              << " s, p95 " << stats.p95LatencySeconds << " s, p99 "
              << stats.p99LatencySeconds << " s\n"
              << "  degraded    " << degraded << " of " << requests
              << "\n"
              << "  shed        " << shed << " of " << requests
              << " (deadline expired: " << stats.deadlineExpired
              << ", retries: " << stats.retries << ", breaker "
              << engine::breakerStateName(stats.breakerState) << ")\n"
              << (batchSize > 1
                      ? "  batches     " +
                            std::to_string(stats.batchesExecuted) +
                            " executed, mean occupancy " +
                            std::to_string(stats.meanBatchOccupancy) +
                            " of " + std::to_string(batchSize) +
                            " lanes\n"
                      : "")
              << "  pool        " << engine.plaintextPool().size()
              << " plaintexts, "
              << double(engine.plaintextPool().bytes()) / (1 << 20)
              << " MiB shared\n";
    {
        // Backend identity line: which backend ran the batch, how many
        // HE ops it dispatched, and — under fpga-sim, once a request
        // reached the executor — the simulated hardware latency of one
        // request: the plan's replay, the same for every request.
        std::uint64_t dispatched = 0;
        for (const auto &outcome : outcomes)
            dispatched += outcome.opsExecuted;
        const std::string &backend = engine.executor().backendName();
        std::cout << "  backend     " << backend << ", " << dispatched
                  << " HE ops dispatched";
        if (backend == "fpga-sim" && shed < requests) {
            const auto device = fpga::acu9eg();
            double simSeconds = 0.0;
            for (const auto &row : fpgaSimReplay(plan, device))
                simSeconds += device.seconds(row.simulatedCycles);
            std::cout << ", mean simulated latency " << simSeconds
                      << " s/request";
        }
        std::cout << "\n";
    }
    if (2 * shed > requests) {
        for (const auto &outcome : outcomes) {
            if (outcome.failure &&
                outcome.failure->layer == "admission") {
                std::cout << "\n" << outcome.failure->render();
                break;
            }
        }
        std::cout << "SHED\n";
        return 6;
    }
    if (degraded > 0) {
        for (const auto &outcome : outcomes) {
            if (outcome.failure &&
                outcome.failure->layer != "admission") {
                std::cout << "\n" << outcome.failure->render();
                break;
            }
        }
        std::cout << "DEGRADED\n";
        return 5;
    }

    if (check == "serial" && batchSize == 1) {
        // The engine's determinism contract: request r must produce
        // bitwise the same logits as the r-th serial infer() on a
        // fresh Runtime with the same key seed. Shed requests consumed
        // their index without encrypting, so the serial runtime still
        // runs every index and only the survivors are compared. The
        // serial reference is pinned to the "cpu" backend, so with
        // --backend fpga-sim/cpu-ref this check is a bitwise
        // cross-backend comparison, not a self-comparison.
        hecnn::ExecOptions serialExec;
        serialExec.backend = "cpu";
        hecnn::Runtime runtime(plan, ctx, seed, opts.guard,
                               serialExec);
        bool identical = true;
        for (std::uint64_t r = 0; r < requests && identical; ++r) {
            const auto serial = runtime.infer(inputs[r]);
            if (outcomes[r].failure)
                continue;
            identical = serial.size() == outcomes[r].logits.size();
            for (std::size_t i = 0; identical && i < serial.size();
                 ++i)
                identical = serial[i] == outcomes[r].logits[i];
            if (!identical)
                std::cout << "request " << r
                          << ": batched logits DIVERGE from serial\n";
        }
        std::cout << (identical
                          ? "batched logits identical to serial "
                            "inference\nPASS\n"
                          : "FAIL\n");
        return identical ? 0 : 1;
    }
    if (check == "serial") {
        // Slot-batched lanes cannot be bitwise-identical to serial
        // runs (the CKKS encoder rounds over all slots jointly — see
        // docs/ARCHITECTURE.md section 15), so the B > 1 check is the
        // repo-wide numeric criterion instead: every surviving request
        // must agree with an unbatched serial reference within the
        // 1e-2 logit tolerance and on the argmax.
        hecnn::ExecOptions serialExec;
        serialExec.backend = "cpu";
        const auto serialPlan = hecnn::compile(net, params);
        hecnn::Runtime runtime(serialPlan, ctx, seed, opts.guard,
                               serialExec);
        constexpr double kTolerance = 1e-2;
        double maxErr = 0.0;
        bool equivalent = true;
        for (std::uint64_t r = 0; r < requests && equivalent; ++r) {
            const auto serial = runtime.infer(inputs[r]);
            if (outcomes[r].failure)
                continue;
            const auto &batched = outcomes[r].logits;
            equivalent = serial.size() == batched.size();
            std::size_t argmaxSerial = 0;
            std::size_t argmaxBatched = 0;
            for (std::size_t i = 0; equivalent && i < serial.size();
                 ++i) {
                maxErr = std::max(maxErr,
                                  std::abs(serial[i] - batched[i]));
                if (serial[i] > serial[argmaxSerial])
                    argmaxSerial = i;
                if (batched[i] > batched[argmaxBatched])
                    argmaxBatched = i;
            }
            equivalent = equivalent && maxErr < kTolerance &&
                         argmaxSerial == argmaxBatched;
            if (!equivalent)
                std::cout << "request " << r
                          << ": batched logits DIVERGE from serial "
                             "(max |err| "
                          << maxErr << ")\n";
        }
        std::cout << "batched-vs-serial max |err| = " << maxErr
                  << " (tolerance " << kTolerance << ", argmax "
                  << (equivalent ? "matches" : "DIFFERS") << ")\n"
                  << (equivalent ? "PASS\n" : "FAIL\n");
        return equivalent ? 0 : 1;
    }
    std::cout << "OK\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        // Resolve the SIMD dispatch level up front so a bad
        // FXHENN_SIMD value is a ConfigError (exit 3) before any work
        // runs, not a surprise deep inside the first kernel call.
        simd::activeLevel();
        // The CLI always links the analysis library, so the compiler's
        // debug-mode self-check and --verify-plan loads have a
        // verifier to call.
        analysis::installPlanVerifier();
        // Resolve the requested backend up front so a bad --backend /
        // FXHENN_BACKEND value is a ConfigError (exit 3) before any
        // work runs — same contract as FXHENN_SIMD.
        hecnn::resolveBackendName(args.get("backend", ""));
        const std::string verifyPlanFlag = args.get("verify-plan", "");
        if (verifyPlanFlag == "1" || verifyPlanFlag == "true")
            hecnn::setLoadVerification(true);
        const std::string faultSpec = args.get("fault", "");
        if (!faultSpec.empty())
            robustness::armFault(
                robustness::parseFaultSpec(faultSpec));
        const std::string telemetryPath =
            args.get("telemetry-json", "");
        if (!telemetryPath.empty())
            telemetry::setEnabled(true);

        int rc;
        if (args.command == "info")
            rc = cmdInfo(args);
        else if (args.command == "plan")
            rc = cmdPlan(args);
        else if (args.command == "design")
            rc = cmdDesign(args);
        else if (args.command == "sweep")
            rc = cmdSweep(args);
        else if (args.command == "verify")
            rc = cmdVerify(args);
        else if (args.command == "batch")
            rc = cmdBatch(args);
        else if (args.command == "lint")
            rc = cmdLint(args);
        else
            return usage();

        if (!telemetryPath.empty()) {
            FXHENN_FATAL_IF(!telemetry::writeJsonFile(telemetryPath),
                            "cannot write telemetry file " +
                                telemetryPath);
            std::cerr << "telemetry written to " << telemetryPath
                      << "\n";
        }
        return rc;
    } catch (const ConfigError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 3;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 4;
    }
}
