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
# `pub struct *Config` / `*Policy`, each file read up to its first
# column-0 `#[cfg(test)]` (`tests/api_surface.rs` holds the count to a bound)
row '`pub` fields of `pub struct *Config` / `*Policy` in `crates/*/src`' \
  "$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { live = 1; inside = 0 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    !live { next }
    /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Policy)[[:space:]]*\{/ { inside = 1; next }
    inside && /^[[:space:]]*\}/ { inside = 0 }
    inside && /^[[:space:]]*pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }')"
# stream drivers: `.step_on(` calls in the runtime's non-test code, each
# file read up to its first column-0 `#[cfg(test)]` (as `tests/api_surface.rs`
# does)
row '`.step_on(` call sites in `crates/runtime/src` (stream drivers)' \
  "$(find crates/runtime/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { live = 1 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    live { n += gsub(/\.step_on\(/, "&") }
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
# occurrences of a task's name as a string literal: a task is a `Task`, and
# its name is a format at the boundaries (snapshot bytes, Table 1 rows,
# asserted output)
row 'task-name string literals in `crates/*/src` and `src`' \
  "$(grep -rhoE '"(RDG_FULL|RDG_ROI|MKX_EXT|CPLS_SEL|REG|ROI_EST|GW_EXT|ENH|ZOOM)"' crates/*/src src | wc -l)"
# process-global mutable state: `static` cells behind a lock or a lazy
# initialiser
row 'global `static … Mutex` / `OnceLock` / `LazyLock` in `crates/*/src`' \
  "$(grep -rhE '^\s*(pub(\([a-z]+\))? )?static [A-Z0-9_]+:.*\b(Mutex|OnceLock|LazyLock)\b' crates/*/src | wc -l)"
# functions that take too many arguments for clippy and say so: a long
# argument list is what a context type replaces
row '`#[allow(clippy::too_many_arguments)]` in `crates/*/src`' \
  "$(grep -r 'allow(clippy::too_many_arguments)' crates/*/src | wc -l)"
