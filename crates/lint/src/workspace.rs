//! Workspace discovery: which files to scan and which rule families apply.
//!
//! Scope policy (see DESIGN.md §9):
//!
//! * **panic-freedom** (`panic.*`) — every library crate's `src/`,
//!   including this one and `crates/rng`, whose generator state is
//!   destructured rather than indexed. `crates/bench` is excluded: it is
//!   a binary harness where `unwrap` on startup is idiomatic.
//! * **unit-safety** (`units.raw-f64`) — every library crate except
//!   `crates/units` (which defines the newtypes in terms of raw `f64`)
//!   and this crate (which has no physical API surface).
//! * **blocking under a lock** (`conc.hold-and-block`) — the serving
//!   crates: `bsa-station`, `bsa-control` and `bsa-store`.
//!
//! Determinism (no wall clock or hash-ordered collections in `bsa-core`,
//! `bsa-dsp`, `bsa-link` and `bsa-control`; no unseeded RNG anywhere,
//! since `bsa-rng`'s `SmallRng`, the only generator, has no unseeded
//! constructor) and the serving crates' concurrency bans (no std
//! atomic, `Mutex`, `RwLock` or `Condvar` outside the station's
//! `stats.rs` and its session table) are not scoped here: each of those
//! crates carries a `clippy.toml` that bans them.

use crate::flow::flow_pass;
use crate::lexer::{lex, strip_test_code, Token};
use crate::parser::parse_file;
use crate::rules::{run_rules, Violation};
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

/// `true` for a workspace-relative path bsa-lint checks; every `panic.*`
/// rule applies to it.
pub fn in_scope(rel_path: &str) -> bool {
    let lib_src = (rel_path.starts_with("crates/") && rel_path.contains("/src/"))
        || rel_path.starts_with("src/");
    // Binary bench harness: out of scope entirely.
    rel_path.ends_with(".rs") && lib_src && !rel_path.starts_with("crates/bench/")
}

/// `true` when `units.raw-f64` applies to an in-scope path.
pub fn unit_safety(rel_path: &str) -> bool {
    !["units", "lint"]
        .iter()
        .any(|krate| rel_path.starts_with(&format!("crates/{krate}/src/")))
}

/// `true` when `conc.hold-and-block` applies: the multi-threaded serving
/// crates.
pub fn serving(rel_path: &str) -> bool {
    ["station", "control", "store"]
        .iter()
        .any(|krate| rel_path.starts_with(&format!("crates/{krate}/src/")))
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

/// Runs every pass — each file's parse and its site table, unit
/// inference (`flow.unit`), then the per-file rules (`panic.*`,
/// `units.raw-f64`, `conc.hold-and-block`) — over pre-loaded sources.
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
        all.extend(run_rules(&s.tokens, p, unit_safety(&s.path)));
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
    use crate::report::{render_json, Report};

    /// Zero tolerance: an index a private helper holds fails the check
    /// where it is written, once, whichever `pub fn` reaches it.
    #[test]
    fn a_panic_behind_a_pub_fn_fails_where_it_is_written() {
        let src = "pub fn api(v: &[u8], i: usize) -> u8 {\n    helper(v, i)\n}\n\n\
                   fn helper(v: &[u8], i: usize) -> u8 {\n    v[i]\n}\n";
        let sources = [SourceFile {
            path: "crates/core/src/api.rs".to_string(),
            tokens: strip_test_code(&lex(src)),
        }];
        let outcome = check_sources(&sources);
        let found: Vec<_> = outcome
            .violations
            .iter()
            .map(|v| (v.file.as_str(), v.line, v.rule))
            .collect();
        assert_eq!(found, [("crates/core/src/api.rs", 6, "panic.indexing")]);
        let json = render_json(&Report {
            files_checked: sources.len(),
            violations: &outcome.violations,
            timings: &outcome.timings,
        });
        assert!(json.contains("\"status\": \"failed\""), "{json}");
    }

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
        for no_units in ["crates/units/src/lib.rs", "crates/lint/src/rules.rs"] {
            assert!(in_scope(no_units) && !unit_safety(no_units), "{no_units}");
        }
        for krate in ["station", "control", "store"] {
            assert!(serving(&format!("crates/{krate}/src/lib.rs")), "{krate}");
        }
        assert!(!serving("crates/core/src/scan.rs") && !serving("crates/station/tests/t.rs"));
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
        assert!(files.iter().any(|f| f == "crates/lint/src/rules.rs"));
        assert!(!files.iter().any(|f| f.starts_with("crates/bench/")));
        // Sorted and unique.
        let mut sorted = files.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(files, sorted);
    }
}
