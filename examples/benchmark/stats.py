#!/usr/bin/env python3
"""Statistics over saved benchmark result lines.

  stats.py spread <dir>   spread of each end-to-end metric over the runs of
                          each workload (runs differ in --seed): distance
                          between the quartiles as a share of the median,
                          against a third of the metric's bound
  stats.py aa <dir>       gap between the medians of set A and set B of the
                          same build, against the metric's bound

<dir> holds one file per run, <workload>.<set>.<n>.json, whose last line is
the benchmark's JSON result. Exits 1 when a limit is exceeded.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(directory):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        workload, group, _n, _ = path.name.split(".")
        lines = path.read_text().strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{path}: run reported failures")
        for name, m in result["metrics"].items():
            runs.setdefault((workload, name), {}).setdefault(group, []).append(m["value"])
    return bounds, runs


def worse_by(better, a, b):
    """Share of a by which b is worse than a (negative: b is better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def spread(directory):
    bounds, runs = load(directory)
    bad = 0
    print(f"{'workload':<20} {'metric':<18} {'n':>3} {'median':>12} {'iqr/median':>11} {'bound/3':>8}")
    for (workload, name), groups in sorted(runs.items()):
        values = [v for g in groups.values() for v in g]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        share = (q3 - q1) / med
        limit = bounds[name]["bound"] / 3
        flag = ""
        if name != "setup_s" and share > limit:
            flag, bad = "  <-- too wide", bad + 1
        print(f"{workload:<20} {name:<18} {len(values):>3} {med:>12.4f} {share:>10.2%} {limit:>8.2%}{flag}")
    return bad


def aa(directory):
    bounds, runs = load(directory)
    bad = 0
    print(f"{'workload':<20} {'metric':<18} {'median A':>12} {'median B':>12} {'gap':>8} {'bound':>7}")
    for (workload, name), groups in sorted(runs.items()):
        a, b = statistics.median(groups["A"]), statistics.median(groups["B"])
        better = bounds[name]["better"]
        gap = max(worse_by(better, a, b), worse_by(better, b, a))
        limit = bounds[name]["bound"]
        flag = ""
        if gap > limit:
            flag, bad = "  <-- exceeds bound", bad + 1
        print(f"{workload:<20} {name:<18} {a:>12.4f} {b:>12.4f} {gap:>7.2%} {limit:>7.2%}{flag}")
    return bad


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("spread", "aa"):
        sys.exit(__doc__)
    sys.exit(1 if {"spread": spread, "aa": aa}[sys.argv[1]](sys.argv[2]) else 0)
