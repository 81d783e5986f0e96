#!/usr/bin/env bash
# Runs every workload once per seed (default: ten seeds, 1..10) and prints
# the spread of each end-to-end metric over the seeds against a third of
# its bound, as the acceptance check does. Exits non-zero when a spread is
# too wide.   usage: examples/benchmark/spread.sh [seeds]
set -euo pipefail
cd "$(dirname "$0")/../.."
seeds=${1:-10}
here=examples/benchmark
out=$here/out/spread
rm -rf "$out" && mkdir -p "$out"
cargo build --release --quiet --offline --manifest-path $here/Cargo.toml
bin=${CARGO_TARGET_DIR:-$here/target}/release/benchmark
for seed in $(seq 1 "$seeds"); do
  for w in steady_1024 cold_clips_1024 fanin_64x128 paced_1x1024_30hz; do
    "$bin" --workload "$w" --seed "$seed" --seconds 18 --trace 0 > "$out/$w.S.$seed.json"
  done
done
python3 $here/stats.py spread "$out"
