/**
 * @file
 * Runner of the end-to-end benchmark:
 *
 *   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
 *                    [--out-dir DIR]
 *
 * Runs one workload, prints its phases, run identity and metrics, writes
 * a result record (and, when traced, the spans as Chrome trace JSON)
 * under DIR, and prints as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. The metrics are the
 * end-to-end ones untraced and the per-layer ones traced. Exit code 0
 * when every output checked out, 1 when any unit failed its check,
 * 2 on a usage or runtime error (no result line then).
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/telemetry/telemetry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "error: " << why
              << "\nusage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty() || text[0] == '-')
        usage(flag + " expects a non-negative integer, got '" + text + "'");
    return v;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os << std::setprecision(10) << v;
    return os.str();
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
}

std::string
recordJson(const RunConfig &cfg, const Result &r, bool correct)
{
    std::string s = "{\n  \"schema\": \"fxhenn-perfbench-v1\",\n";
    s += "  \"identity\": {";
    for (std::size_t i = 0; i < r.identity.size(); ++i)
        s += (i ? ", \"" : "\"") + r.identity[i].first + "\": \"" +
             r.identity[i].second + "\"";
    s += "},\n  \"trace\": " + std::string(cfg.trace ? "true" : "false");
    s += ",\n  \"correct\": " + std::string(correct ? "true" : "false");
    s += ",\n  \"tally\": {\"attempted\": " +
         std::to_string(r.tally.attempted) +
         ", \"ok\": " + std::to_string(r.tally.ok) +
         ", \"shed\": " + std::to_string(r.tally.shed) +
         ", \"degraded\": " + std::to_string(r.tally.degraded) +
         ", \"wrong\": " + std::to_string(r.tally.wrong) +
         ", \"failed\": " + std::to_string(r.tally.failed) + "}";
    s += ",\n  \"end_to_end\": " + metricsJson(r.endToEnd);
    s += ",\n  \"per_layer\": " + metricsJson(r.perLayer);
    s += ",\n  \"notes\": [";
    for (std::size_t i = 0; i < r.notes.size(); ++i) {
        std::string note;
        for (char c : r.notes[i])
            note += c == '"' || c == '\\' ? std::string("\\") + c
                                          : std::string(1, c);
        s += (i ? ",\n    \"" : "\n    \"") + note + "\"";
    }
    return s + "\n  ]\n}\n";
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::cout << title << "\n";
    for (const Metric &m : metrics)
        std::cout << "  " << std::left << std::setw(34) << m.name
                  << std::right << std::setw(16) << number(m.value) << " "
                  << m.unit << "\n";
}

/** Measured layer time beside the model's predicted cycles. */
void
printLayerComparison(const std::vector<Metric> &perLayer)
{
    const auto find = [&](const std::string &name) {
        for (const Metric &m : perLayer)
            if (m.name == name)
                return m.value;
        return 0.0;
    };
    std::cout << "layer   measured ms (hecnn.layer)   predicted Mcycles "
                 "(fpga.layer)\n";
    for (const char *layer : {"Cnv1", "Act1", "Cnv2", "Fc1", "Act2", "Fc2"})
        std::cout << "  " << std::left << std::setw(6) << layer << std::right
                  << std::setw(16)
                  << number(find(std::string("hecnn.layer.") + layer +
                                 "_ms"))
                  << std::setw(28)
                  << number(find(std::string("fpga.layer.") + layer +
                                 "_pred_mcycles"))
                  << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string outDir = ".bench_build/perfbench";
    bool haveWorkload = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            cfg.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            cfg.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            cfg.seconds = double(parseUnsigned(flag, value));
            if (cfg.seconds < 1 || cfg.seconds > 600)
                usage("--seconds must be in [1, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace expects 0 or 1");
            cfg.trace = value == "1";
            haveTrace = true;
        } else if (flag == "--out-dir") {
            outDir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload || !haveTrace)
        usage("--workload and --trace are required");

    Result r;
    try {
        fxhenn::telemetry::setEnabled(cfg.trace);
        trace::setEnabled(cfg.trace);
        r = runWorkload(cfg);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    } catch (const std::exception &e) {
        std::cerr << "error: " << cfg.workload << " failed: " << e.what()
                  << "\n";
        return 2;
    }
    const bool correct = r.tally.attempted > 0 && r.tally.missed() == 0;

    std::cout << "workload " << cfg.workload << " seed " << cfg.seed << " ("
              << (cfg.trace ? "traced" : "untraced") << ", "
              << cfg.seconds << " s)\n";
    for (const auto &note : r.notes)
        std::cout << "  " << note << "\n";
    std::cout << "identity:";
    for (const auto &[key, value] : r.identity)
        std::cout << " " << key << "=" << value;
    std::cout << "\nunits: " << r.tally.attempted << " attempted, "
              << r.tally.ok << " ok, " << r.tally.shed << " shed, "
              << r.tally.degraded << " degraded, " << r.tally.wrong
              << " wrong, " << r.tally.failed << " failed\n";
    printTable("end-to-end metrics:", r.endToEnd);
    if (cfg.trace) {
        printTable("per-layer metrics (traced):", r.perLayer);
        printLayerComparison(r.perLayer);
        trace::printSummary(std::cout);
    }

    std::error_code ec;
    const std::filesystem::path dir = std::filesystem::path(outDir) / "results";
    std::filesystem::create_directories(dir, ec);
    const std::string stem = cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + "-trace" +
                             (cfg.trace ? "1" : "0");
    std::ofstream record(dir / (stem + ".json"));
    record << recordJson(cfg, r, correct);
    if (!record)
        std::cerr << "warning: could not write " << (dir / stem).string()
                  << ".json\n";
    else
        std::cout << "record: " << (dir / (stem + ".json")).string() << "\n";
    if (cfg.trace) {
        const auto path = (dir / (stem + ".trace.json")).string();
        if (trace::writeChromeTrace(path))
            std::cout << "trace: " << path << "\n";
        else
            std::cerr << "warning: could not write " << path << "\n";
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << r.tally.attempted
              << ", \"failed\": " << r.tally.missed() << ", \"metrics\": "
              << metricsJson(cfg.trace ? r.perLayer : r.endToEnd) << "}"
              << std::endl;
    return correct ? 0 : 1;
}
