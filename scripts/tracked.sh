#!/usr/bin/env bash
# The ROADMAP's tracked quantities, counted with the commands the ROADMAP
# gives, as a markdown table (CI appends it to the job summary; re-anchors
# paste it).
#
#   usage: scripts/tracked.sh
set -euo pipefail
cd "$(dirname "$0")/.."

row() {
  printf '| %s | %s |\n' "$1" "$(tr -d ' ' <<<"$2")"
}

echo '| quantity | now |'
echo '|---|---|'
row '`API.txt` lines' "$(wc -l <API.txt)"
row 'src LOC (`find crates/*/src src -name "*.rs" \| xargs cat \| wc -l`)' \
  "$(find crates/*/src src -name '*.rs' -print0 | xargs -0 cat | wc -l)"
# code lines only: a comment that mentions `unsafe` is not an unsafe site
row '`unsafe` lines in `crates/imaging/src`' \
  "$(grep -rh unsafe crates/imaging/src | grep -vE '^\s*//' | wc -l)"
row '`#[deprecated]` shims' "$(grep -r '#\[deprecated' crates/*/src src | wc -l)"
row '`pub fn process_frame*`' "$(grep -r 'pub fn process_frame' crates/pipeline/src | wc -l)"
# independently settable values: the `pub` fields of every braced
# `pub struct *Config` / `*Policy`
row '`pub` fields of `pub struct *Config` / `*Policy` in `crates/*/src`' \
  "$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Policy)[[:space:]]*\{/ { inside = 1; next }
    inside && /^[[:space:]]*\}/ { inside = 0 }
    inside && /^[[:space:]]*pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }')"
# occurrences, not lines, tests included
panics() {
  grep -rhoE '\.(unwrap|expect)\(' "crates/$1/src" | wc -l
}
row '`.unwrap(` / `.expect(` in runtime / platform / pipeline `src`' \
  "$(panics runtime) / $(panics platform) / $(panics pipeline)"
# the planner's hand-set cost-model constants (`const NAME: f64`), which a
# measured model is to replace
row 'hand-set `const … : f64` in `crates/runtime/src/adaptation.rs`' \
  "$(grep -cE '^\s*(pub )?const [A-Z0-9_]+: f64' crates/runtime/src/adaptation.rs)"
