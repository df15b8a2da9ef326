#include "src/hecnn/noise_cert.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "src/ckks/noise.hpp"
#include "src/common/assert.hpp"
#include "src/common/table_printer.hpp"
#include "src/hecnn/plan_walk.hpp"
#include "src/modarith/primes.hpp"

namespace fxhenn::hecnn {

namespace {

void
jsonEscapeInto(std::ostringstream &oss, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
          case '"': oss << "\\\""; break;
          case '\\': oss << "\\\\"; break;
          case '\n': oss << "\\n"; break;
          case '\t': oss << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                oss << buf;
            } else {
                oss << c;
            }
        }
    }
}

/** log2 bound on a plaintext's scaled slot values. */
double
ptSlotBits(const PlanPlaintext &pt, double ciphertextScale,
           double schemeScale)
{
    // The compiler records maxAbs even for elided plans (v3 streams);
    // a plan without it (legacy v2 elided stream) falls back to the
    // |v| <= 1.0 bound the zoo's normalized weights satisfy.
    double max_abs = pt.maxAbs;
    if (max_abs == 0.0) {
        if (!pt.values.empty())
            return -1074.0; // genuinely all-zero plaintext
        max_abs = 1.0;
    }
    const double enc_scale = pt.atSchemeScale ? schemeScale
                                              : ciphertextScale;
    return std::log2(enc_scale * max_abs);
}

/**
 * The certifier's share of the plan walk: the log2 worst-case noise of
 * every register beside the shared shape, and one bound per layer end.
 * Stops contributing at the first instruction that cannot run.
 */
struct NoiseWalk
{
    const HeNetworkPlan &plan;
    const CertifyOptions &opts;
    const ckks::NoiseModel &model;
    NoiseCertificate &cert;
    std::vector<double> noiseBits; ///< per register
    bool failed = false;

    NoiseWalk(const HeNetworkPlan &p, const CertifyOptions &o,
              const ckks::NoiseModel &m, NoiseCertificate &c)
        : plan(p), opts(o), model(m), cert(c),
          // A register is read only after an input seeded it or an
          // instruction wrote it, so fresh noise is a safe default.
          noiseBits(static_cast<std::size_t>(
                        std::max(p.regCount, std::int32_t{0})),
                    ckks::NoiseModel::logAdd(model.freshNoiseBits(),
                                             model.encodingRoundBits()))
    {
    }

    void
    fail(std::size_t li, const std::string &why)
    {
        failed = true;
        cert.invalidReason = "layer " + plan.layers[li].name + ": " + why;
    }

    void
    op(std::size_t li, std::size_t, const HeInstr &in,
       const RegShape *src, const RegShape *dst)
    {
        if (failed)
            return;
        if (auto fault =
                operandFault(in, src, dst, plan.plaintexts.size())) {
            fail(li, *fault);
            return;
        }
        // msg slot bound: scale * max|m| per the certified message
        // assumption.
        const auto msg_bits = [&] {
            return (src->scale > 0.0 ? std::log2(src->scale) : 0.0) +
                   opts.messageBits;
        };
        const double in_bits = noiseBits[static_cast<std::size_t>(in.src)];
        double &out_bits = noiseBits[static_cast<std::size_t>(in.dst)];
        switch (in.kind) {
          case HeOpKind::pcMult:
            out_bits = model.pcMultNoiseBits(
                in_bits,
                ptSlotBits(plan.plaintexts[static_cast<std::size_t>(in.pt)],
                           src->scale, plan.params.scale),
                msg_bits());
            break;
          case HeOpKind::pcAdd:
            out_bits = model.pcAddNoiseBits(in_bits);
            break;
          case HeOpKind::ccAdd:
            out_bits = model.ccAddNoiseBits(out_bits, in_bits);
            break;
          case HeOpKind::ccMult:
            out_bits = model.ccMultNoiseBits(in_bits, msg_bits());
            break;
          case HeOpKind::relinearize:
          case HeOpKind::rotate:
            out_bits = model.keySwitchedNoiseBits(in_bits, src->level);
            break;
          case HeOpKind::rescale:
            if (src->level < 2) {
                fail(li, "rescale at effective level " +
                             std::to_string(src->level) +
                             ": no prime left to rescale into");
                return;
            }
            out_bits = model.rescaleNoiseBits(in_bits, src->level);
            break;
          case HeOpKind::copy:
            out_bits = in_bits;
            break;
        }
    }

    /** Bound at a layer boundary, mirroring the guard's sample. */
    void
    layerEnd(std::size_t li, std::span<const RegShape> regs)
    {
        if (failed)
            return;
        const HeLayerPlan &layer = plan.layers[li];
        LayerNoiseBound bound;
        bound.layer = layer.name;
        bound.level = layer.levelOut >= opts.levelShift
                          ? layer.levelOut - opts.levelShift
                          : 0;
        bound.headroomBits = std::numeric_limits<double>::infinity();
        bool any = false;
        for (const std::int32_t r : layerOutputs(layer, regs)) {
            if (r < 0 || r >= static_cast<std::int32_t>(regs.size()))
                continue;
            const RegShape &s = regs[static_cast<std::size_t>(r)];
            if (!s.written)
                continue;
            any = true;
            const double noise = noiseBits[static_cast<std::size_t>(r)];
            const double scale_bits =
                s.scale > 0.0 ? std::log2(s.scale) : 0.0;
            const double headroom = model.headroomBits(
                scale_bits + opts.messageBits, noise, s.level);
            bound.scaleBits = std::max(bound.scaleBits, scale_bits);
            bound.noiseBits = std::max(bound.noiseBits, noise);
            bound.headroomBits =
                std::min(bound.headroomBits, headroom);
        }
        if (!any)
            bound.headroomBits = 0.0;
        cert.minHeadroomBits =
            std::min(cert.minHeadroomBits, bound.headroomBits);
        cert.layers.push_back(bound);
    }
};

} // namespace

NoiseCertificate
certifyPlan(const HeNetworkPlan &plan, const CertifyOptions &opts)
{
    NoiseCertificate cert;
    cert.plan = plan.name;
    cert.messageBits = opts.messageBits;
    try {
        plan.params.validate();
        if (opts.levelShift >= plan.params.levels) {
            cert.invalidReason = "levelShift " +
                                 std::to_string(opts.levelShift) +
                                 " leaves no data primes";
            return cert;
        }
        const std::size_t eff_levels =
            plan.params.levels - opts.levelShift;
        const auto primes = generateNttPrimes(
            plan.params.qBits, plan.params.n, eff_levels);
        const ckks::NoiseModel model(
            [&] {
                ckks::CkksParams p = plan.params;
                p.levels = eff_levels;
                return p;
            }(),
            primes);
        cert.levels = eff_levels;

        // The walk seeds the inputs at the top of the shortened chain,
        // so plan level l runs at effective level l - levelShift.
        cert.minHeadroomBits =
            std::numeric_limits<double>::infinity();
        NoiseWalk walk(plan, opts, model, cert);
        walkPlan(plan, ShapeChain(plan.params.scale, primes), walk);
        if (walk.failed) {
            cert.minHeadroomBits = 0.0;
            return cert;
        }
        if (cert.layers.empty())
            cert.minHeadroomBits = 0.0;
        cert.valid = true;
    } catch (const std::exception &e) {
        cert.valid = false;
        cert.invalidReason = e.what();
        cert.minHeadroomBits = 0.0;
    }
    return cert;
}

std::string
NoiseCertificate::renderText() const
{
    std::ostringstream oss;
    oss << "noise certificate for plan '" << plan << "' (message <= 2^"
        << fmtBits(messageBits) << ", " << levels
        << "-prime chain)\n";
    if (hasArtifact)
        oss << "  artifact: " << artifactPath << " (crc32 "
            << artifactCrc32 << ")\n";
    if (!valid) {
        oss << "  NOT CERTIFIED: " << invalidReason << "\n";
        return oss.str();
    }
    for (const LayerNoiseBound &b : layers) {
        oss << "  " << b.layer << "  level " << b.level << "  scale 2^"
            << fmtBits(b.scaleBits) << "  noise 2^"
            << fmtBits(b.noiseBits) << "  headroom "
            << (b.headroomBits >= 0.0 ? "+" : "")
            << fmtBits(b.headroomBits) << " bits\n";
    }
    oss << "  certified minimum headroom: "
        << (minHeadroomBits >= 0.0 ? "+" : "")
        << fmtBits(minHeadroomBits) << " bits ("
        << (certified() ? "SAFE" : "UNSAFE") << ")\n";
    return oss.str();
}

std::string
NoiseCertificate::renderJson() const
{
    std::ostringstream oss;
    oss << "{\n  \"schema\": \"fxhenn-noise-cert-v1\",\n";
    oss << "  \"plan\": \"";
    jsonEscapeInto(oss, plan);
    oss << "\",\n";
    if (hasArtifact) {
        oss << "  \"plan_file\": \"";
        jsonEscapeInto(oss, artifactPath);
        oss << "\",\n  \"plan_crc32\": " << artifactCrc32 << ",\n";
    }
    oss << "  \"valid\": " << (valid ? "true" : "false") << ",\n";
    if (!valid) {
        oss << "  \"invalid_reason\": \"";
        jsonEscapeInto(oss, invalidReason);
        oss << "\",\n";
    }
    oss << "  \"certified\": " << (certified() ? "true" : "false")
        << ",\n";
    oss << "  \"message_bits\": " << messageBits << ",\n";
    oss << "  \"levels\": " << levels << ",\n";
    oss << "  \"min_headroom_bits\": " << minHeadroomBits << ",\n";
    oss << "  \"layers\": [";
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerNoiseBound &b = layers[i];
        oss << (i ? "," : "") << "\n    {\"layer\": \"";
        jsonEscapeInto(oss, b.layer);
        oss << "\", \"level\": " << b.level
            << ", \"scale_bits\": " << b.scaleBits
            << ", \"noise_bits\": " << b.noiseBits
            << ", \"headroom_bits\": " << b.headroomBits << "}";
    }
    oss << (layers.empty() ? "]" : "\n  ]") << "\n}\n";
    return oss.str();
}

} // namespace fxhenn::hecnn
