#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the encrypted-inference stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library sources under src/ together with the benchmark runner (CMake,
in $CARGO_TARGET_DIR or .bench_build), then runs the statistics
self-test. Each call runs one workload in its own process and passes its
output through; the last line is the runner's JSON result. A traced run
(--trace 1) also reports its overhead against the untraced record of
the same identity, when one exists. Workloads: mnist-paper, test5l-open,
design-cifar10 (see perfbench/README.md).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
from compare import identity_mismatch, load_record  # noqa: E402


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; exit 3 on failure."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = 1
                log.write(f"{e}\n")
            if rc != 0:
                log.flush()
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                fail(f"build failed (log: {log_path})", 3)


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if it is present."""
    try:
        with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def overhead_line(out_dir, workload, seed):
    results = os.path.join(out_dir, "results")
    traced = os.path.join(results, f"{workload}-seed{seed}-trace1.json")
    plain = os.path.join(results, f"{workload}-seed{seed}-trace0.json")
    if not os.path.exists(plain):
        return ("tracing overhead: no untraced record of this workload and "
                "seed; run --trace 0 with the same seed first")
    a, b = load_record(plain), load_record(traced)
    differ = identity_mismatch(a, b)
    if differ:
        return ("tracing overhead: not compared, run identity differs in "
                + ", ".join(differ))
    parts = []
    for name in ("latency_p50_ms", "throughput_rps"):
        x, y = a["end_to_end"][name]["value"], b["end_to_end"][name]["value"]
        parts.append(f"{name} {x:.4g} -> {y:.4g} "
                     f"({100 * (y - x) / x:+.2f}%)")
    return "tracing overhead (untraced -> traced): " + ", ".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]", 2)

    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO,
                                                              ".bench_build")
    build_dir = os.path.join(os.path.abspath(root), "perfbench-build")
    out_dir = os.path.join(os.path.abspath(root), "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("statistics self-test failed", 3)

    cmd = [os.path.join(build_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} printed no result (exit {run.returncode})",
             run.returncode or 5)
    expected = expected_metrics(args.trace == "1")
    if expected is not None and set(result["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: "
             + ", ".join(sorted(set(result["metrics"]) ^ expected)), 5)
    print("\n".join(lines[:-1]))
    if args.trace == "1":
        print(overhead_line(out_dir, args.workload, args.seed))
    print(lines[-1], flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
