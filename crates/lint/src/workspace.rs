//! Workspace discovery: which files to scan and which rule applies where.
//!
//! Scope policy (see DESIGN.md §9):
//!
//! * **in scope** — every library crate's `src/` and the root package's,
//!   except `crates/bench` (a binary harness) and this crate (which has
//!   no physical API surface).
//! * **unit-safety** (`units.raw-f64`) — every in-scope file except
//!   `crates/units`, which defines the newtypes in terms of raw `f64`.
//! * **unit dataflow** (`flow.unit`) — the physics and signal crates:
//!   `bsa-core`, `bsa-circuit`, `bsa-dsp` and `bsa-units`.
//!
//! Panic-freedom is clippy's: every library crate root forbids its panic
//! and indexing lints outside test builds. Determinism (no wall clock or
//! hash-ordered collections in `bsa-core`, `bsa-dsp`, `bsa-link` and
//! `bsa-control`; no unseeded RNG anywhere, since `bsa-rng`'s
//! `SmallRng`, the only generator, has no unseeded constructor) and the
//! serving crates' concurrency bans (no std atomic, `Mutex`, `RwLock` or
//! `Condvar` outside the station's `stats.rs` and its session table) sit
//! in the `clippy.toml` of each of those crates.

use crate::flow::flow_pass;
use crate::lexer::{lex, strip_test_code, Token};
use crate::parser::parse_file;
use crate::rules::{raw_f64_pass, Violation};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Returns the workspace root, resolved from this crate's manifest so the
/// binary works regardless of the invoker's working directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .components()
        .collect()
}

/// `true` for a workspace-relative path bsa-lint checks.
pub fn in_scope(rel_path: &str) -> bool {
    let lib_src = (rel_path.starts_with("crates/") && rel_path.contains("/src/"))
        || rel_path.starts_with("src/");
    let excluded = ["crates/bench/", "crates/lint/"]
        .iter()
        .any(|krate| rel_path.starts_with(krate));
    rel_path.ends_with(".rs") && lib_src && !excluded
}

/// `true` when `units.raw-f64` applies to an in-scope path.
pub fn unit_safety(rel_path: &str) -> bool {
    !rel_path.starts_with("crates/units/src/")
}

/// Collects every in-scope `.rs` file under the workspace root, as
/// workspace-relative forward-slash paths, sorted for stable output.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let krate = entry?.path();
        if krate.is_dir() {
            walk(&krate.join("src"), root, &mut files)?;
        }
    }
    // The root package's own library source.
    walk(&root.join("src"), root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if in_scope(&rel) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// One in-scope file, lexed and test-stripped — the unit the semantic
/// passes consume.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Test-stripped token stream.
    pub tokens: Vec<Token>,
}

/// Reads and lexes every in-scope workspace file.
pub fn load_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut sources = Vec::new();
    for rel in collect_files(root)? {
        let text = fs::read_to_string(root.join(&rel))?;
        sources.push(SourceFile {
            path: rel,
            tokens: strip_test_code(&lex(&text)),
        });
    }
    Ok(sources)
}

/// Crates whose sources the `flow.unit` inference runs over: the physics
/// and signal layers where dimensioned scalars are pervasive. The serving
/// and chip-model layers mix typed quantities with raw counters heavily
/// enough that name-seeded inference would be noise there.
const UNIT_FLOW_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/circuit/src/",
    "crates/dsp/src/",
    "crates/units/src/",
];

/// Wall-clock cost of each analysis stage, in microseconds. The lint
/// crate carries no `clippy.toml` clock ban, so reading the monotonic
/// clock here is legal — these numbers are diagnostics, never analysis
/// inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimings {
    pub lexical_us: u128,
    pub parse_us: u128,
    pub flow_us: u128,
    pub total_us: u128,
}

/// Everything one full analysis run produces.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Every violation, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Per-pass elapsed wall-clock.
    pub timings: PassTimings,
}

/// Runs every pass — each file's parse, unit inference (`flow.unit`),
/// then the signature rule (`units.raw-f64`) — over pre-loaded sources.
/// Every violation fails the check.
pub fn check_sources(sources: &[SourceFile]) -> CheckOutcome {
    let started = Instant::now();
    let mut timings = PassTimings::default();
    let mut all = Vec::new();

    let t = Instant::now();
    let parsed: Vec<_> = (sources.iter())
        .map(|s| parse_file(&s.path, &s.tokens))
        .collect();
    timings.parse_us = t.elapsed().as_micros();

    // Unit inference where dimensioned scalars live.
    let t = Instant::now();
    for (s, p) in sources.iter().zip(&parsed) {
        if UNIT_FLOW_PREFIXES.iter().any(|pre| s.path.starts_with(pre)) {
            flow_pass(&s.tokens, p, &mut all);
        }
    }
    timings.flow_us = t.elapsed().as_micros();

    let t = Instant::now();
    for (s, p) in sources.iter().zip(&parsed) {
        if unit_safety(&s.path) {
            raw_f64_pass(&s.tokens, p, &mut all);
        }
    }
    timings.lexical_us = t.elapsed().as_micros();

    all.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    timings.total_us = started.elapsed().as_micros();
    CheckOutcome {
        violations: all,
        timings,
    }
}

/// Runs the full analysis over every in-scope workspace file.
pub fn check_workspace(root: &Path) -> io::Result<CheckOutcome> {
    Ok(check_sources(&load_sources(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_policy() {
        for lib in [
            "crates/core/src/scan.rs",
            "crates/dsp/src/filter.rs",
            "crates/circuit/src/mosfet.rs",
            "crates/link/src/message.rs",
            "crates/station/src/server.rs",
            "crates/control/src/policy.rs",
            "crates/store/src/reader.rs",
            "src/lib.rs",
        ] {
            assert!(in_scope(lib) && unit_safety(lib), "{lib}");
        }
        assert!(in_scope("crates/units/src/lib.rs") && !unit_safety("crates/units/src/lib.rs"));
        assert!(!in_scope("crates/lint/src/rules.rs"));
        assert!(!in_scope("crates/bench/src/bin/exp_f2.rs"));
        assert!(!in_scope("crates/core/tests/integration.rs"));
        assert!(!in_scope("crates/core/src/data.csv"));
    }

    #[test]
    fn workspace_root_exists_and_has_manifest() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file(), "{root:?}");
    }

    #[test]
    fn collects_known_files() {
        let root = workspace_root();
        let files = collect_files(&root).expect("walk");
        assert!(
            files.iter().any(|f| f == "crates/core/src/lib.rs"),
            "{files:?}"
        );
        assert!(files.iter().any(|f| f == "crates/units/src/lib.rs"));
        assert!(!files.iter().any(|f| f.starts_with("crates/bench/")));
        assert!(!files.iter().any(|f| f.starts_with("crates/lint/")));
        // Sorted and unique.
        let mut sorted = files.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(files, sorted);
    }
}
