#!/usr/bin/env python3
"""Compare two benchmark result records, refusing mismatched identities.

    python3 perfbench/compare.py BASE.json NEW.json

Each record is a file the runner writes under
.bench_build/perfbench/results/. Two records are comparable only when
their run identity (host threads, pool threads, engine workers, batch
lanes, SIMD level, backend, build type, N, L, seed, run length) is
identical; otherwise the comparison is refused with exit code 2. On a
match, every end-to-end metric is printed with its change, and a change
worse than the metric's bound in BENCHMARK.json is flagged; exit code 1
when any metric regressed beyond its bound, else 0.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_record(path):
    with open(path, encoding="utf-8") as f:
        record = json.load(f)
    if record.get("schema") != "fxhenn-perfbench-v1":
        raise ValueError(f"{path}: not a perfbench result record")
    return record


def identity_mismatch(a, b):
    """Identity keys whose values differ (missing keys count)."""
    ia, ib = a["identity"], b["identity"]
    return sorted(k for k in set(ia) | set(ib) if ia.get(k) != ib.get(k))


def load_bounds():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load_record(argv[1]), load_record(argv[2])
    differ = identity_mismatch(base, new)
    if differ:
        print("refusing to compare: run identity differs in "
              + ", ".join(f"{k} ({base['identity'].get(k)} vs "
                          f"{new['identity'].get(k)})" for k in differ),
              file=sys.stderr)
        return 2
    bounds = load_bounds()
    regressed = False
    print(f"{'metric':<22}{'base':>14}{'new':>14}{'change':>10}  verdict")
    for name, old in base["end_to_end"].items():
        cur = new["end_to_end"].get(name)
        if cur is None:
            print(f"{name:<22} missing from the new record")
            regressed = True
            continue
        a, b = old["value"], cur["value"]
        change = (b - a) / a if a else 0.0
        spec = bounds.get(name)
        verdict = ""
        if spec:
            worse = -change if spec["better"] == "higher" else change
            verdict = "REGRESSED" if worse > spec["bound"] else "ok"
            regressed |= verdict == "REGRESSED"
        print(f"{name:<22}{a:>14.6g}{b:>14.6g}{100 * change:>+9.2f}%  "
              f"{verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
