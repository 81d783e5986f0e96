#!/usr/bin/env bash
# A/B check of the repo benchmark: <parent-rev> against the working tree.
#
#   usage: scripts/ab.sh <parent-rev> <pairs> [workload…]     (default: all)
#
# Builds the benchmark package of <parent-rev> from a `git archive` copy
# under .bench_build/ab/parent (removed again on exit) and the one of the
# working tree in place, both with the command line of BENCHMARK.json. Pair i runs
# each workload on seed i, once per side, back to back; odd pairs run the
# parent first, even pairs the change. Every result line is kept in
# .bench_build/ab/out/<workload>.<side>.<i>.json.
#
# Prints, per workload and end-to-end metric, both medians, both quartile
# pairs and the pairs the change won. Exits 1 when a run reported failures or
# the change's median is worse than the parent's by more than the metric's
# bound in BENCHMARK.json. A claimed gain additionally needs nine pairs in
# ten won and a gap between the medians wider than the parent's own quartiles
# are apart: the `gap` and `iqr` columns give both distances in the metric's
# unit (`gap` positive when the change is better), and `claim` reads `met`
# when all of that holds over ten pairs or more (`n<10` with fewer). The
# claim column never changes the exit code.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || ! [[ $2 =~ ^[1-9][0-9]*$ ]]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "ab.sh: not a revision: $1" >&2
  exit 2
}
pairs=$2
shift 2

build=.bench_build/ab
parent=$build/parent
drop_parent() {
  rm -rf "$parent"
}
drop_parent
trap drop_parent EXIT
rm -rf "$build/out" && mkdir -p "$build/out" "$parent"
git archive "$rev" | tar -x -C "$parent"

python3 - "$parent" "$build/out" "$pairs" "$@" <<'EOF'
import json
import statistics
import subprocess
import sys

parent, out, pairs, *workloads = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
command = spec["command"]
known = [w["name"] for w in spec["workloads"]]
workloads = workloads or known
for w in workloads:
    if w not in known:
        sys.exit(f"ab.sh: no workload {w} in BENCHMARK.json (has: {', '.join(known)})")
sides = {"parent": parent, "change": "."}

# `cargo run` builds before it runs; build first so no run pays for it.
build = ["build" if word == "run" else word for word in command if word != "--"]
for cwd in sides.values():
    subprocess.run(build, cwd=cwd, check=True)

values = {}  # (workload, metric) -> side -> one value per pair
failed = []
for n in range(1, int(pairs) + 1):
    order = ["parent", "change"] if n % 2 else ["change", "parent"]
    for w in workloads:
        for side in order:
            args = ["--workload", w, "--seed", str(n), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            run = subprocess.run(command + args, cwd=sides[side], stdout=subprocess.PIPE, text=True)
            name = f"{w}.{side}.{n}"
            open(f"{out}/{name}.json", "w").write(run.stdout)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if run.returncode or not result or not result["correct"] or result["failed"]:
                failed.append(name)
                print(f"{name}: FAILED (exit {run.returncode})", flush=True)
                continue
            for metric, m in result["metrics"].items():
                values.setdefault((w, metric), {}).setdefault(side, {})[n] = m["value"]
            print(f"{name}: " + "  ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)


def quartiles(v):
    return statistics.quantiles(v, n=4)[::2] if len(v) > 1 else (v[0], v[0])


def cell(v):
    q1, q3 = quartiles(v)
    return f"{statistics.median(v):.4f} [{q1:.4f}, {q3:.4f}]"


print(f"\n{'workload':<18} {'metric':<17} {'parent med [q1, q3]':>32} {'change med [q1, q3]':>32} {'worse by':>8} {'bound':>6} {'won':>6} {'gap':>9} {'iqr':>9} {'claim':>5}")
worse = 0
for w in workloads:
    for m in spec["end_to_end"]:
        by_side = values.get((w, m["name"]), {})
        both = sorted(set(by_side.get("parent", {})) & set(by_side.get("change", {})))
        if not both:
            continue
        a = [by_side["parent"][n] for n in both]
        b = [by_side["change"][n] for n in both]
        lower = m["better"] == "lower"
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        by = ((mb - ma) if lower else (ma - mb)) / ma  # share of the parent's median the change is worse by
        flag = ""
        if by > m["bound"]:
            flag, worse = "  <-- worse beyond bound", worse + 1
        score = f"{won}/{len(both) - ties}"
        # the claim rule: at least ten pairs, nine in ten of them won (a tie
        # is no win) and a gap between the medians wider than the parent's
        # quartiles; fewer pairs read `n<10`
        gap = (ma - mb) if lower else (mb - ma)
        q1, q3 = quartiles(a)
        if len(both) < 10:
            met = "n<10"
        else:
            met = "met" if 10 * won >= 9 * len(both) and gap > q3 - q1 else "-"
        print(f"{w:<18} {m['name']:<17} {cell(a):>32} {cell(b):>32} {by:>+8.1%} {m['bound']:>6.0%} {score:>6} {gap:>+9.4g} {q3 - q1:>9.4g} {met:>5}{flag}")
if failed:
    print(f"\n{len(failed)} run(s) reported failures: {', '.join(failed)}")
sys.exit(1 if failed or worse else 0)
EOF
