//! Every dependency a workspace package declares is one its sources use,
//! and no source silences a lint outside the pinned exceptions.
//!
//! For the root package and each `crates/*/Cargo.toml`, every crate
//! named in a `[dependencies]`, `[dev-dependencies]` or
//! `[build-dependencies]` table must appear as a path in a `.rs` file of
//! that package (`name::…`, `use name` or `extern crate name`, with `-`
//! read as `_`). A declared crate that nothing imports costs a build
//! and misstates what the package depends on.
//!
//! Over every `.rs` file of the repository outside `target/`: no file
//! allows the `deprecated` lint, and only the files on
//! [`CLIPPY_ALLOWLIST`] allow a clippy lint (the vendored `stubs/` are
//! not scanned for those).
//!
//! Every name a knob table of DESIGN.md or README.md lists is still
//! declared in the workspace's non-test sources, so a deleted knob
//! cannot stay documented.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The manifest tables that declare dependencies.
const DEPENDENCY_TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];

/// The directories of a package that hold its Rust sources.
const SOURCE_DIRS: [&str; 4] = ["src", "tests", "examples", "benches"];

/// The crate names `manifest` declares in its dependency tables, in
/// order: `name = …` and `name.workspace = true` entries, and
/// `[dependencies.name]` tables.
fn declared_dependencies(manifest: &str) -> Vec<String> {
    let mut in_table = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            in_table = DEPENDENCY_TABLES.contains(&header);
            if let Some((table, name)) = header.split_once('.') {
                if DEPENDENCY_TABLES.contains(&table) {
                    names.push(name.to_owned());
                }
            }
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            let key = line.split(['=', '.']).next().unwrap_or_default();
            names.push(key.trim().to_owned());
        }
    }
    names
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("a readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The package's sources with plain `//` comment lines dropped (doc
/// comments stay: their examples are compiled as doctests).
fn package_sources(package: &Path) -> String {
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&package.join(dir), &mut files);
    }
    let mut sources = String::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("a readable source file");
        for line in text.lines() {
            let code = line.trim_start();
            if code.starts_with("//") && !code.starts_with("///") && !code.starts_with("//!") {
                continue;
            }
            sources.push_str(line);
            sources.push('\n');
        }
    }
    sources
}

/// Whether `sources` name the crate `ident` as a path.
fn uses_crate(sources: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    sources.match_indices(ident).any(|(at, _)| {
        let before = &sources[..at];
        let after = &sources[at + ident.len()..];
        let starts_a_path = !before.ends_with(|c: char| is_ident(c) || c == ':');
        let imported = before.ends_with("use ") || before.ends_with("extern crate ");
        (starts_a_path && after.starts_with("::")) || (imported && !after.starts_with(is_ident))
    })
}

/// The root package and every package under `crates/`.
fn workspace_packages() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.to_path_buf()];
    for entry in fs::read_dir(root.join("crates")).expect("a crates/ directory") {
        let dir = entry.expect("a readable directory entry").path();
        if dir.join("Cargo.toml").is_file() {
            packages.push(dir);
        }
    }
    packages.sort();
    packages
}

#[test]
fn every_declared_dependency_is_used_by_its_package() {
    let packages = workspace_packages();
    assert!(packages.len() > 10, "found {} packages", packages.len());
    let mut unused = Vec::new();
    let mut checked = 0;
    for package in &packages {
        let manifest = fs::read_to_string(package.join("Cargo.toml")).expect("a manifest");
        let sources = package_sources(package);
        for name in declared_dependencies(&manifest) {
            checked += 1;
            if !uses_crate(&sources, &name.replace('-', "_")) {
                unused.push(format!("{}: {name}", package.display()));
            }
        }
    }
    assert!(checked > 40, "only {checked} dependencies declared");
    assert!(
        unused.is_empty(),
        "dependencies no source file uses:\n{}",
        unused.join("\n")
    );
}

#[test]
fn manifest_parsing_and_path_matching_follow_cargo_and_rust_syntax() {
    let manifest = r#"
[package]
name = "demo"
version.workspace = true

[dependencies]
parking_lot.workspace = true
serde = { version = "1", features = ["derive"] }
# rand = "0.8"

[dev-dependencies]
mobivine-device = { path = "../device" }

[dependencies.serde_json]
version = "1"

[[bin]]
name = "demo-bin"
"#;
    assert_eq!(
        declared_dependencies(manifest),
        ["parking_lot", "serde", "mobivine-device", "serde_json"]
    );

    let sources = "use serde::Serialize;\nlet m = parking_lot::Mutex::new(0);\n";
    assert!(uses_crate(sources, "serde"));
    assert!(uses_crate(sources, "parking_lot"));
    assert!(uses_crate("extern crate rand;\n", "rand"));
    assert!(
        !uses_crate("crate::serde::x();\n", "serde"),
        "a module path"
    );
    assert!(
        !uses_crate("mobivine_device::Device\n", "mobivine"),
        "a longer name"
    );
    assert!(
        !uses_crate("/// the proptest stand-in\n", "proptest"),
        "prose"
    );
}

/// The files that may allow a clippy lint. Clippy runs with
/// `-D warnings`, so each allow is a pinned, reviewed exception; a new
/// one must fix the lint or extend this list in the same change.
/// `workload.rs` allows `too_many_arguments` until the next benchmark
/// change fixes that signature.
const CLIPPY_ALLOWLIST: [&str; 1] = ["crates/benchmark/src/workload.rs"];

/// The repository-relative paths (`/`-separated) of every `.rs` file
/// outside the root `target/` directory (and `.git/`, which holds
/// none) whose text contains `needle`, sorted; files under a top-level
/// directory named in `skip` are left out.
fn rust_files_containing(needle: &str, skip: &[&str]) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in fs::read_dir(root).expect("a readable repository root") {
        let path = entry.expect("a readable directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if ["target", ".git"].contains(&name) || skip.contains(&name) {
            continue;
        }
        if path.is_dir() {
            rust_files(&path, &mut files);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    assert!(files.len() > 100, "scanned only {} files", files.len());
    let mut found: Vec<String> = files
        .iter()
        .filter(|file| {
            fs::read_to_string(file)
                .expect("a readable source file")
                .contains(needle)
        })
        .map(|file| {
            let relative = file.strip_prefix(root).expect("a file under the root");
            let parts: Vec<_> = relative.iter().map(|part| part.to_string_lossy()).collect();
            parts.join("/")
        })
        .collect();
    found.sort();
    found
}

#[test]
fn no_source_allows_deprecated_items() {
    // Split so this file does not match itself.
    let found = rust_files_containing(concat!("allow", "(deprecated)"), &[]);
    assert!(
        found.is_empty(),
        "the deprecated accessors are gone; nothing may allow the lint again:\n{}",
        found.join("\n")
    );
}

#[test]
fn clippy_allows_stay_on_the_allowlist() {
    let found = rust_files_containing(concat!("allow", "(clippy"), &["stubs"]);
    let outside: Vec<&String> = found
        .iter()
        .filter(|path| !CLIPPY_ALLOWLIST.contains(&path.as_str()))
        .collect();
    assert!(
        outside.is_empty(),
        "clippy allows outside the pinned allowlist: {outside:?}"
    );
    for pinned in CLIPPY_ALLOWLIST {
        assert!(
            found.iter().any(|path| path == pinned),
            "{pinned} no longer allows a clippy lint: drop it from the allowlist"
        );
    }
}

/// The lines of `source` before its first `#[cfg(test)]` that construct
/// a label set (`Labels::call`/`Labels::new`), with their 1-based line
/// numbers; `//` comment lines (doc comments included) and the
/// `sanctioned` call are left out.
fn label_constructions<'a>(source: &'a str, sanctioned: &str) -> Vec<(usize, &'a str)> {
    source
        .lines()
        .enumerate()
        .take_while(|(_, line)| !line.contains("#[cfg(test)]"))
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .filter(|(_, line)| {
            (line.contains("Labels::call") || line.contains("Labels::new"))
                && !line.contains(sanctioned)
        })
        .map(|(index, line)| (index + 1, line))
        .collect()
}

#[test]
fn traced_hot_path_builds_no_labels() {
    // Label construction in the core telemetry module is sanctioned only
    // inside `CallInstruments::resolve`, which runs once, at wiring
    // time; any other is a per-call allocation on the traced hot path.
    // `tests/zero_alloc_telemetry.rs` proves the property dynamically;
    // this catches it in review.
    const SANCTIONED: &str = "Labels::call(proxy, method, platform)";
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/telemetry.rs");
    let source = fs::read_to_string(&path).expect("a readable telemetry module");
    assert!(
        source.contains(SANCTIONED),
        "CallInstruments::resolve no longer builds its labels as pinned here"
    );
    let found = label_constructions(&source, SANCTIONED);
    assert!(
        found.is_empty(),
        "label construction on the traced hot path (use the cached \
         CallInstruments handles resolved at wiring time):\n{}",
        found
            .iter()
            .map(|(line, text)| format!("crates/core/src/telemetry.rs:{line}: {text}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The scan reads code only: comments, the sanctioned call and test
    // code never match; a stray construction does.
    let sample = "/// Labels::call in docs\n\
                  let a = Labels::call(proxy, method, platform);\n\
                  let b = Labels::new(&[]);\n\
                  #[cfg(test)]\n\
                  let c = Labels::call(\"L\", \"m\", \"p\");\n";
    assert_eq!(
        label_constructions(sample, SANCTIONED),
        vec![(3, "let b = Labels::new(&[]);")]
    );
}

/// The backticked first-column names of every `| Field |` or `| Knob |`
/// table in `markdown`, with their 1-based line numbers. A `(…)`
/// argument list is dropped and a `a`/`b` cell gives both names; a
/// name that is not backticked is kept as written, so it cannot match.
fn knob_table_names(markdown: &str) -> Vec<(usize, String)> {
    let mut in_table = false;
    let mut names = Vec::new();
    for (index, line) in markdown.lines().enumerate() {
        if line.starts_with("| Field |") || line.starts_with("| Knob |") {
            in_table = true;
            continue;
        }
        if !in_table || !line.starts_with('|') {
            in_table = false;
            continue;
        }
        let cell = line.split('|').nth(1).unwrap_or_default();
        if cell.trim_start().starts_with("---") {
            continue;
        }
        let mut bare = String::new();
        let mut depth = 0usize;
        for c in cell.chars() {
            match c {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                _ if depth == 0 => bare.push(c),
                _ => {}
            }
        }
        for name in bare.split('/').map(str::trim) {
            let unquoted = name
                .strip_prefix('`')
                .and_then(|n| n.strip_suffix('`'))
                .unwrap_or(name);
            names.push((index + 1, unquoted.to_owned()));
        }
    }
    names
}

/// Every identifier the code of `source` before its first
/// `#[cfg(test)]` declares as a `fn`, or writes at the start of a line
/// as `name:` (a field, a struct-literal member or a parameter on its
/// own line). `//` comment lines are skipped.
fn declared_names(source: &str, out: &mut BTreeSet<String>) {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    for line in source
        .lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
    {
        let code = line.trim_start();
        if code.starts_with("//") {
            continue;
        }
        for (at, _) in code.match_indices("fn ") {
            let name: String = code[at + 3..]
                .chars()
                .take_while(|&c| is_ident(c))
                .collect();
            if at == 0 || !code[..at].ends_with(is_ident) {
                out.insert(name);
            }
        }
        let field = ["pub(crate) ", "pub(super) ", "pub "]
            .iter()
            .find_map(|vis| code.strip_prefix(vis))
            .unwrap_or(code);
        let name: String = field.chars().take_while(|&c| is_ident(c)).collect();
        let rest = &field[name.len()..];
        if !name.is_empty() && rest.starts_with(':') && !rest.starts_with("::") {
            out.insert(name);
        }
    }
}

#[test]
fn knob_tables_name_live_fields() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for package in workspace_packages() {
        rust_files(&package.join("src"), &mut files);
    }
    let mut declared = BTreeSet::new();
    for file in &files {
        declared_names(
            &fs::read_to_string(file).expect("a readable source file"),
            &mut declared,
        );
    }
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let markdown = fs::read_to_string(root.join(doc)).expect("a readable document");
        for (line, name) in knob_table_names(&markdown) {
            checked += 1;
            if !declared.contains(&name) {
                stale.push(format!("{doc}:{line}: `{name}`"));
            }
        }
    }
    assert!(checked > 20, "only {checked} knob-table names found");
    assert!(
        stale.is_empty(),
        "knob-table rows naming no field or fn of the non-test sources:\n{}",
        stale.join("\n")
    );

    // The scanners on samples: the table parser strips argument lists
    // and splits paired names; the declaration scan reads fields, fns
    // and parameters of code only.
    let table = "| Knob | Where |\n|---|---|\n\
                 | `a_ms` | x |\n\
                 | `f(root, ms)` | x |\n\
                 | `lat`/`lon` | x |\n\
                 | bare | x |\n\
                 \n| `outside` | x |\n";
    let names: Vec<String> = knob_table_names(table)
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    assert_eq!(names, ["a_ms", "f", "lat", "lon", "bare"]);
    let mut found = BTreeSet::new();
    declared_names(
        "pub struct P {\n    pub a_ms: u64,\n    b: Option<u8>,\n}\n\
         pub(crate) fn f<T>(x: T) {}\n\
         // c: u8\n\
         let d: u8 = 0;\n\
         e::call();\n\
         #[cfg(test)]\n\
         fn g() {}\n",
        &mut found,
    );
    assert_eq!(found.into_iter().collect::<Vec<_>>(), ["a_ms", "b", "f"]);
}
