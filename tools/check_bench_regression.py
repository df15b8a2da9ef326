#!/usr/bin/env python3
"""Keyswitch performance regression gate.

Runs the bench_kernels suite several times (median-of-N to shrug off
scheduler noise), reads the "ckks.time.keyswitch.ns" histogram mean
from the telemetry JSON each run emits, and fails when the median mean
regresses more than --threshold (default 25%) over the committed
BENCH_kernels.json baseline.

Registered as the `perf`-labeled ctest entry when the build is
configured with -DFXHENN_PERF_TESTS=ON; excluded from the default
presets because wall-clock assertions are only meaningful on a quiet
machine.

Usage:
    tools/check_bench_regression.py --bench build/bench/bench_kernels \
        [--baseline BENCH_kernels.json] [--threshold 0.25] [--runs 3]
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRIC = "ckks.time.keyswitch.ns"

# Telemetry counter prefixes stamping the execution identity of a run
# (bench.backend.cpu, bench.simd.avx2, ...). Means taken under
# different execution backends or SIMD levels measure different code
# paths, so the gate refuses to compare them.
IDENTITY_PREFIXES = ("bench.backend.", "bench.simd.")


def load_doc(telemetry_path: Path) -> dict:
    with open(telemetry_path, encoding="utf-8") as fh:
        return json.load(fh)


def histogram_mean_of(doc: dict, telemetry_path: Path,
                      metric: str) -> float:
    try:
        hist = doc["histograms"][metric]
    except KeyError:
        raise SystemExit(
            f"error: {telemetry_path} has no '{metric}' histogram — "
            "was the bench built with telemetry enabled?"
        )
    if hist["count"] == 0:
        raise SystemExit(f"error: '{metric}' recorded zero samples")
    return float(hist["mean"])


def execution_identity(doc: dict) -> tuple:
    """Identity counters of a telemetry doc (sorted; may be empty for
    baselines predating the identity stamp)."""
    counters = doc.get("counters", {})
    return tuple(sorted(name for name in counters
                        if name.startswith(IDENTITY_PREFIXES)))


def check_same_identity(baseline_path: Path, baseline_doc: dict,
                        run_path: Path, run_doc: dict) -> None:
    base_id = execution_identity(baseline_doc)
    run_id = execution_identity(run_doc)
    if base_id != run_id:
        raise SystemExit(
            "error: refusing to compare across execution identities — "
            f"baseline {baseline_path} was taken under "
            f"{list(base_id) or '(unstamped)'} but the bench run "
            f"{run_path} under {list(run_id) or '(unstamped)'}; "
            "regenerate the baseline under the same FXHENN_BACKEND / "
            "FXHENN_SIMD configuration"
        )


def run_bench(bench: Path, bench_filter: str, out_json: Path) -> None:
    # Invoke exactly the way the committed baseline is produced: warmup
    # iterations are avoided because telemetry records them too, which
    # would skew the histogram sample mix toward the heavyweight pinned
    # benchmarks.
    cmd = [
        str(bench),
        f"--telemetry-json={out_json}",
        "--benchmark_min_time=0.1",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {bench} exited with {proc.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True, type=Path,
                        help="path to the bench_kernels binary")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_kernels.json",
                        help="committed telemetry baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed fractional regression")
    parser.add_argument("--runs", type=int, default=3,
                        help="bench repetitions (median is compared)")
    parser.add_argument("--filter", default="",
                        help="optional --benchmark_filter regex; the "
                        "default runs the full suite, matching how the "
                        "baseline was produced")
    args = parser.parse_args()

    if not args.bench.exists():
        raise SystemExit(f"error: bench binary {args.bench} not found")
    baseline_doc = load_doc(args.baseline)
    baseline_mean = histogram_mean_of(baseline_doc, args.baseline,
                                      METRIC)

    means = []
    with tempfile.TemporaryDirectory(prefix="fxhenn-bench-") as tmp:
        for i in range(args.runs):
            out = Path(tmp) / f"run{i}.json"
            run_bench(args.bench, args.filter, out)
            run_doc = load_doc(out)
            check_same_identity(args.baseline, baseline_doc, out,
                                run_doc)
            mean = histogram_mean_of(run_doc, out, METRIC)
            means.append(mean)
            print(f"run {i + 1}/{args.runs}: {METRIC} mean "
                  f"{mean / 1e6:.3f} ms")

    median = statistics.median(means)
    ratio = median / baseline_mean
    limit = 1.0 + args.threshold
    print(f"baseline mean {baseline_mean / 1e6:.3f} ms, "
          f"median-of-{args.runs} {median / 1e6:.3f} ms "
          f"({ratio:.2f}x, limit {limit:.2f}x)")
    if ratio > limit:
        print(f"FAIL: keyswitch mean regressed {100 * (ratio - 1):.1f}% "
              f"(> {100 * args.threshold:.0f}% threshold)")
        return 1
    print("OK: within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
