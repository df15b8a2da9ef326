/**
 * @file
 * End-to-end encrypted inference of the FxHENN-MNIST network under the
 * paper's parameter set (N = 8192, L = 7, 30-bit primes; the paper
 * labels it lambda = 128, which holds on log Q = 210 but not on the
 * log QP = 260 the evaluation keys use):
 *
 *   1. compile the CNN to an HE plan (LoLa-style packing),
 *   2. encrypt a synthetic input image as 25 tap ciphertexts,
 *   3. run every layer homomorphically on the CPU reference evaluator,
 *   4. decrypt the logits and compare against plaintext inference,
 *   5. report what the generated FPGA accelerator would achieve.
 *
 * Step 3 prints its own time as "CPU software inference": 0.33-0.39 s
 * over three runs on a 4-vCPU Intel Xeon with AVX-512 (RelWithDebInfo
 * build). This is the CPU cost the paper's FPGA accelerator removes.
 */
#include <cmath>
#include <iostream>

#include "src/common/timer.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/runtime.hpp"
#include "src/hecnn/stats.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

int
main()
{
    const auto net = nn::buildMnistNetwork();
    const auto params = ckks::mnistParams();
    std::cout << "Network: " << net.name() << " ("
              << params.describe() << ")\n";

    const auto plan = hecnn::compile(net, params);
    const auto counts = plan.totalCounts();
    std::cout << "Compiled plan: " << hecnn::layerSummary(plan) << "\n"
              << "  HOPs " << counts.total() << ", KeySwitch "
              << counts.keySwitch() << ", input ciphertexts "
              << plan.inputCiphertexts() << ", depth " << plan.depth()
              << " levels\n";

    ckks::CkksContext ctx(params);
    Timer setup;
    hecnn::Runtime runtime(plan, ctx, /*seed=*/2023);
    std::cout << "Key generation (relin + "
              << runtime.galoisKeyCount() << " Galois keys): "
              << setup.elapsedSeconds() << " s\n";

    const nn::Tensor input = nn::syntheticInput(net, 7);
    const nn::Tensor expected = net.forward(input);

    Timer infer;
    const auto logits = runtime.infer(input);
    const double cpu_seconds = infer.elapsedSeconds();

    double max_err = 0.0;
    std::size_t argmax_he = 0, argmax_pt = 0;
    std::cout << "\nlogit  encrypted    plaintext\n";
    for (std::size_t i = 0; i < logits.size(); ++i) {
        std::cout << "  " << i << "    " << logits[i] << "    "
                  << expected[i] << "\n";
        max_err = std::max(max_err, std::abs(logits[i] - expected[i]));
        if (logits[i] > logits[argmax_he])
            argmax_he = i;
        if (expected[i] > expected[argmax_pt])
            argmax_pt = i;
    }
    std::cout << "max |err| = " << max_err << ", argmax "
              << (argmax_he == argmax_pt ? "MATCHES" : "DIFFERS")
              << " (class " << argmax_he << ")\n";

    std::cout << "\nCPU software inference: " << cpu_seconds << " s\n";
    for (const auto &device : {fpga::acu9eg(), fpga::acu15eg()}) {
        const auto sol = Fxhenn::generate(net, params, device);
        std::cout << "FxHENN accelerator on " << device.name << ": "
                  << sol.latencySeconds() << " s predicted ("
                  << cpu_seconds / sol.latencySeconds()
                  << "X over this CPU run; paper reports 0.24/0.19 s)\n";
    }
    return 0;
}
