//! Public-API surface lock: a `cargo public-api`-style check with no
//! extra tooling. Every `pub` item signature in the workspace sources is
//! extracted textually, sorted, and diffed against the checked-in
//! `API.txt`. An unintentional addition, removal or signature change
//! fails this test with the offending lines; an intentional one is
//! recorded by regenerating the file:
//!
//! ```sh
//! UPDATE_API=1 cargo test --test api_surface
//! git diff API.txt   # review the surface change, then commit it
//! ```
//!
//! A second test keeps the surface to what runs: a `pub fn` or `pub const`
//! that no file but its own mentions has no caller, and fails the suite
//! until it is deleted or loses `pub`. A third does the same for what sits
//! beside the sources: bench targets, `BENCH_*.json` snapshots and vendored
//! crates nothing depends on. A fourth bounds the settable values: the
//! `pub` fields of the `*Config` / `*Policy` structs.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};

/// Source roots that define the public surface.
fn source_roots(repo: &Path) -> Vec<PathBuf> {
    let mut roots = vec![repo.join("src")];
    let crates = repo.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        for e in entries.flatten() {
            let src = e.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    roots.sort();
    roots
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                // the benchmark package builds into its own directory
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                rust_files(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
}

/// A file's text before its first `#[cfg(test)]` attribute at column 0 (the
/// test module, which sits at the bottom of each file in this workspace).
/// An indented `#[cfg(test)]` marks one item inside a block and cuts
/// nothing: what follows it is still scanned.
fn non_test_text(path: &Path) -> String {
    let mut text = std::fs::read_to_string(path).unwrap_or_default();
    let end: usize = text
        .split_inclusive('\n')
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .map(str::len)
        .sum();
    text.truncate(end);
    text
}

/// Extracts the normalized `pub` item lines of one file, ignoring
/// everything at and after its first column-0 `#[cfg(test)]` attribute.
fn pub_items(path: &Path, repo: &Path) -> Vec<String> {
    let body = non_test_text(path);
    let rel = path
        .strip_prefix(repo)
        .unwrap_or(path)
        .display()
        .to_string();
    let kinds = [
        "pub fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub type ",
        "pub const ",
        "pub static ",
        "pub mod ",
        "pub use ",
        "pub union ",
        "pub unsafe fn ",
    ];
    let mut items = Vec::new();
    let mut pending: Option<String> = None;
    for raw in body.lines() {
        let line = raw.trim();
        let continuing = pending.is_some();
        if !continuing && !kinds.iter().any(|k| line.starts_with(k)) {
            continue;
        }
        let mut sig = pending.take().unwrap_or_default();
        if !sig.is_empty() {
            sig.push(' ');
        }
        sig.push_str(line);
        // a signature is complete at its body brace or terminator;
        // otherwise it spans onto the next line (rustfmt-wrapped)
        let end = sig.find('{').or_else(|| sig.find(';'));
        match end {
            Some(i) => {
                let cut = sig[..i].trim_end().to_string();
                items.push(format!("{rel}: {cut}"));
            }
            None => pending = Some(sig),
        }
    }
    if let Some(sig) = pending {
        items.push(format!("{rel}: {}", sig.trim_end()));
    }
    items
}

fn current_surface(repo: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for root in source_roots(repo) {
        rust_files(&root, &mut files);
    }
    let mut surface = BTreeSet::new();
    for f in files {
        surface.extend(pub_items(&f, repo));
    }
    surface
}

#[test]
fn public_api_matches_checked_in_surface() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let api_file = repo.join("API.txt");
    let surface = current_surface(&repo);
    let rendered: String = surface.iter().map(|s| format!("{s}\n")).collect::<String>();

    if std::env::var("UPDATE_API").is_ok() {
        std::fs::write(&api_file, rendered).expect("write API.txt");
        return;
    }

    let recorded_text = std::fs::read_to_string(&api_file)
        .expect("API.txt missing — run `UPDATE_API=1 cargo test --test api_surface`");
    let recorded: BTreeSet<String> = recorded_text
        .lines()
        .map(str::to_string)
        .filter(|l| !l.is_empty())
        .collect();

    let added: Vec<&String> = surface.difference(&recorded).collect();
    let removed: Vec<&String> = recorded.difference(&surface).collect();
    assert!(
        added.is_empty() && removed.is_empty(),
        "public API surface changed.\n\nadded ({}):\n{}\n\nremoved ({}):\n{}\n\n\
         If intentional: UPDATE_API=1 cargo test --test api_surface, review \
         the API.txt diff, and commit it.",
        added.len(),
        added
            .iter()
            .map(|s| format!("  + {s}"))
            .collect::<Vec<_>>()
            .join("\n"),
        removed.len(),
        removed
            .iter()
            .map(|s| format!("  - {s}"))
            .collect::<Vec<_>>()
            .join("\n"),
    );
}

/// The name a surface line (`<file>: pub <kind> <name>…`) defines, with its
/// file and whether the item is a function or constant.
fn defined_name(line: &str) -> Option<(&str, &str, bool)> {
    let (file, sig) = line.split_once(": pub ")?;
    let mut words = sig.split(|c: char| !(c.is_alphanumeric() || c == '_'));
    let kind = words.next().filter(|&k| k != "use")?;
    // `const fn`, `unsafe fn`: the name follows the last keyword
    let name = words.find(|&w| w != "fn")?;
    Some((file, name, matches!(kind, "fn" | "const" | "unsafe")))
}

/// A source file's text as uses go. In `lib.rs`, `mod.rs` and
/// `prelude.rs` re-export statements (`pub use …;`) are left out: naming an
/// item to re-export it is not a use of it.
fn used_text(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let reexports = matches!(
        path.file_name().and_then(|n| n.to_str()),
        Some("lib.rs" | "mod.rs" | "prelude.rs")
    );
    let mut kept = String::new();
    let mut in_reexport = false;
    for line in text.lines() {
        in_reexport |= reexports && line.trim_start().starts_with("pub use ");
        if in_reexport {
            in_reexport = !line.contains(';');
            continue;
        }
        kept.push_str(line);
        kept.push('\n');
    }
    kept
}

/// Identifiers a text mentions.
fn mentions(text: &str) -> HashSet<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Whether `text` calls `name` as a method (`.name(`) or names it by path
/// (`::name`, followed neither by more of an identifier nor by a further
/// path segment: `crate::config::X` names a module).
fn calls(text: &str, name: &str) -> bool {
    let path = format!("::{name}");
    text.contains(&format!(".{name}("))
        || text.match_indices(&path).any(|(at, _)| {
            let rest = &text[at + path.len()..];
            !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                && (!rest.starts_with("::") || rest.starts_with("::<"))
        })
}

/// The types whose `impl` blocks in `text` define `pub fn name` or
/// `pub const name`; `None` for a definition outside any `impl`.
fn owners(text: &str, name: &str) -> Vec<Option<String>> {
    let mut owner = None;
    let mut found = Vec::new();
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("impl") {
            // `impl<T: X> Trait for Type<T> {`: the type after any `for`
            let header = header.split('{').next().unwrap_or("");
            let ty = header.rsplit(" for ").next().unwrap_or("").trim_start();
            let ty = if ty.starts_with('<') {
                ty.split_once("> ").map_or("", |(_, t)| t)
            } else {
                ty
            };
            owner = ty
                .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                .next()
                .and_then(|path| path.rsplit("::").next())
                .map(str::to_string);
        } else if line == "}" {
            owner = None;
        } else if line.contains("pub ")
            && [
                format!("fn {name}("),
                format!("fn {name}<"),
                format!("const {name}:"),
            ]
            .iter()
            .any(|d| line.contains(d.as_str()))
        {
            found.push(owner.clone());
        }
    }
    found
}

#[test]
fn every_public_fn_and_const_is_mentioned_outside_its_file() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let surface = current_surface(&repo);
    let mut definitions: BTreeMap<&str, Vec<(&str, bool)>> = BTreeMap::new();
    for (file, name, callable) in surface.iter().filter_map(|l| defined_name(l)) {
        definitions.entry(name).or_default().push((file, callable));
    }

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&repo.join(dir), &mut files);
    }
    let texts: Vec<(String, String)> = files
        .iter()
        .map(|f| {
            let rel = f.strip_prefix(&repo).unwrap_or(f).display().to_string();
            (rel, used_text(f))
        })
        .collect();
    let mentioned: Vec<(&str, HashSet<&str>)> = texts
        .iter()
        .map(|(rel, text)| (rel.as_str(), mentions(text)))
        .collect();

    // A name defined once must be mentioned in another file. A name defined
    // on several surface lines cannot be attributed to one of them by a
    // mention: each definition must be called (`.name(` or `::name`) in
    // another file that names the type whose `impl` holds it, or names none
    // of the other definitions' types; a definition outside any `impl`, in
    // a file that defines none of them.
    let mut orphans = Vec::new();
    for (name, defs) in &definitions {
        if let [(file, callable)] = defs[..] {
            let used = mentioned
                .iter()
                .any(|(other, words)| *other != file && words.contains(*name));
            if callable && !used {
                orphans.push(format!("  {file}: {name}"));
            }
            continue;
        }
        // one file may define the name for several types
        let mut files: Vec<&str> = defs
            .iter()
            .filter(|(_, callable)| *callable)
            .map(|&(file, _)| file)
            .collect();
        files.dedup();
        let owned: Vec<(&str, Option<String>)> = files
            .into_iter()
            .flat_map(|file| {
                let text = texts.iter().find(|(rel, _)| rel == file).map(|(_, t)| t);
                let owners = text.map_or(Vec::new(), |t| owners(t, name));
                owners.into_iter().map(move |owner| (file, owner))
            })
            .collect();
        for (file, owner) in &owned {
            let used = texts
                .iter()
                .zip(&mentioned)
                .filter(|((other, text), _)| other != file && calls(text, name))
                .any(|((other, _), (_, words))| match owner {
                    Some(ty) => {
                        words.contains(ty.as_str())
                            || !owned.iter().any(|(_, o)| {
                                o.as_ref()
                                    .is_some_and(|o| o != ty && words.contains(o.as_str()))
                            })
                    }
                    None => defs.iter().all(|(f, _)| f != other),
                });
            if !used {
                let ty = owner.as_deref().map_or(String::new(), |t| format!("{t}::"));
                orphans.push(format!("  {file}: {ty}{name}"));
            }
        }
    }
    assert!(
        orphans.is_empty(),
        "public items no file but their own mentions (delete them, or drop \
         `pub` if their own file still calls them):\n{}",
        orphans.join("\n")
    );
}

/// Keys of the `[dependencies]` and `[dev-dependencies]` tables of a
/// manifest (`rand.workspace = true` and `rand = { … }` both give `rand`).
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = matches!(line, "[dependencies]" | "[dev-dependencies]");
        } else if in_deps {
            let key = line.split(['.', '=', ' ']).next().unwrap_or_default();
            if !key.is_empty() && !key.starts_with('#') {
                names.push(key.to_string());
            }
        }
    }
    names
}

/// One measurement system (`BENCHMARK.json`) and no dead weight beside the
/// sources: no manifest declares a `[[bench]]`, no `BENCH_*.json` sits at
/// the root, and every crate under `vendored/` is a dependency of a
/// manifest outside it.
#[test]
fn no_bench_targets_snapshots_or_unused_vendored_crates() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let entries = |dir: &str| -> Vec<PathBuf> {
        std::fs::read_dir(repo.join(dir))
            .map(|es| es.flatten().map(|e| e.path()).collect())
            .unwrap_or_default()
    };
    let read = |dir: &Path| std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
    let name_of = |p: &Path| -> String {
        p.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default()
    };

    let mut ours = vec![repo.clone(), repo.join("examples/benchmark")];
    ours.extend(entries("crates"));
    let vendored = entries("vendored");

    let with_bench: Vec<&PathBuf> = ours
        .iter()
        .chain(&vendored)
        .filter(|dir| read(dir).lines().any(|l| l.trim() == "[[bench]]"))
        .collect();
    assert!(
        with_bench.is_empty(),
        "manifests declaring a [[bench]] target (measure with examples/benchmark): {with_bench:?}"
    );

    let snapshots: Vec<PathBuf> = entries("")
        .into_iter()
        .filter(|p| name_of(p).starts_with("BENCH_") && name_of(p).ends_with(".json"))
        .collect();
    assert!(
        snapshots.is_empty(),
        "snapshots at the root (numbers come from BENCHMARK.json metrics): {snapshots:?}"
    );

    let used: HashSet<String> = ours
        .iter()
        .flat_map(|d| dependency_names(&read(d)))
        .collect();
    let unused: Vec<&PathBuf> = vendored
        .iter()
        .filter(|dir| !used.contains(&name_of(dir)))
        .collect();
    assert!(
        unused.is_empty(),
        "vendored crates no manifest outside vendored/ depends on: {unused:?}"
    );
}

/// The `pub` fields of `*Config` / `*Policy` structs that the crates' code
/// (`crates/*/src`, each file up to its first column-0 `#[cfg(test)]`) may
/// hold, counted as `scripts/tracked.sh` counts them.
const MAX_CONFIG_FIELDS: usize = 82;

/// The `pub` fields of the braced `pub struct *Config` / `*Policy`
/// declarations in `text`.
fn config_fields(text: &str) -> usize {
    let snake = |w: &str| {
        !w.is_empty()
            && w.bytes()
                .all(|c| matches!(c, b'a'..=b'z' | b'0'..=b'9' | b'_'))
    };
    let (mut inside, mut fields) = (false, 0);
    for line in text.lines().map(str::trim_start) {
        if let Some(rest) = line.strip_prefix("pub struct ") {
            let name = rest
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or_default();
            if (name.ends_with("Config") || name.ends_with("Policy"))
                && rest[name.len()..].trim_start().starts_with('{')
            {
                inside = true;
                continue;
            }
        }
        if inside && line.starts_with('}') {
            inside = false;
        } else if inside {
            let field = line.strip_prefix("pub ").and_then(|r| r.split_once(':'));
            fields += usize::from(field.is_some_and(|(name, _)| snake(name)));
        }
    }
    fields
}

/// Knob ratchet: a value is a `Config` / `Policy` field only when two
/// callers set it to different values; a value with one setting is a
/// `const` beside the code that reads it. A new field raises
/// [`MAX_CONFIG_FIELDS`] in the same diff.
#[test]
fn config_and_policy_fields_stay_within_their_bound() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for root in source_roots(&repo) {
        if root.starts_with(repo.join("crates")) {
            rust_files(&root, &mut files);
        }
    }
    let fields: usize = files.iter().map(|f| config_fields(&non_test_text(f))).sum();
    assert!(
        fields <= MAX_CONFIG_FIELDS,
        "{fields} `pub` fields of `*Config` / `*Policy` structs, above the bound of \
         {MAX_CONFIG_FIELDS}. A value is a config field only when two callers set it to \
         different values; with one value in use make it a private `const` beside the \
         code that reads it. A field that has two such callers raises \
         MAX_CONFIG_FIELDS in the same change."
    );
}
