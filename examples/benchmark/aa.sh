#!/usr/bin/env bash
# A/A check: two interleaved sets (A B A B …) of every workload on one
# build, run i of either set on seed i. Prints, per workload and metric, the
# gap between the two set medians against the metric's bound in
# BENCHMARK.json, and exits non-zero when a gap exceeds its bound.
#   usage: examples/benchmark/aa.sh [runs per set, default 5]
set -euo pipefail
cd "$(dirname "$0")/../.."
runs=${1:-5}
here=examples/benchmark
out=$here/out/aa
rm -rf "$out" && mkdir -p "$out"
cargo build --release --quiet --offline --manifest-path $here/Cargo.toml
bin=${CARGO_TARGET_DIR:-$here/target}/release/benchmark
for n in $(seq 1 "$runs"); do
  for set in A B; do
    for w in steady_1024 cold_clips_1024 fanin_64x128 paced_1x1024_30hz; do
      "$bin" --workload "$w" --seed "$n" --seconds 18 --trace 0 > "$out/$w.$set.$n.json"
    done
  done
done
python3 $here/stats.py aa "$out"
