//! Workspace discovery: which files to scan and which rule families apply.
//!
//! Scope policy (see DESIGN.md §9):
//!
//! * **panic-freedom** (`panic.*`) — every library crate's `src/`,
//!   including this one. `crates/bench` is excluded: it is a binary
//!   harness where `unwrap` on startup is idiomatic.
//! * **unit-safety** (`units.raw-f64`) — every library crate except
//!   `crates/units` (which defines the newtypes in terms of raw `f64`)
//!   and this crate (which has no physical API surface).
//!
//! Determinism (no wall clock, unseeded RNG or hash-ordered collections
//! in `bsa-core`, `bsa-dsp`, `bsa-link` and `bsa-control`) is not scoped
//! here: each of those crates carries a `clippy.toml` that bans them.

use crate::allow::Allowlist;
use crate::conc::{conc_pass, CONTROL_PREFIX, STATION_PREFIX, STORE_PREFIX};
use crate::flow::flow_pass;
use crate::lexer::{lex, strip_test_code, Token};
use crate::locks::lock_order_pass;
use crate::parser::{parse_file, ParsedFile};
use crate::proto::{proto_pass, ProtoConfig, ProtoSummary};
use crate::reach::{reach_pass, ProvenLines};
use crate::rules::{run_rules, RuleSet, Violation};
use crate::summary::{compute_summaries, summary_pass};
use crate::taint::taint_pass;
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

/// Decides which rule families apply to a workspace-relative path.
pub fn rules_for(rel_path: &str) -> RuleSet {
    if !rel_path.ends_with(".rs") {
        return RuleSet::NONE;
    }
    // Binary bench harness: out of scope entirely.
    if rel_path.starts_with("crates/bench/") {
        return RuleSet::NONE;
    }
    let in_crate_src = |krate: &str| rel_path.starts_with(&format!("crates/{krate}/src/"));
    let lib_src = (rel_path.starts_with("crates/") && rel_path.contains("/src/"))
        || rel_path.starts_with("src/");
    if !lib_src {
        return RuleSet::NONE;
    }
    RuleSet {
        panic_freedom: true,
        unit_safety: !in_crate_src("units") && !in_crate_src("lint"),
    }
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
            if rules_for(&rel).any() {
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
/// inputs. The `proto.error-reply` check is too small to time on its own
/// and counts only towards the total.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimings {
    pub lexical_us: u128,
    pub parse_us: u128,
    pub flow_us: u128,
    pub summary_us: u128,
    pub taint_us: u128,
    pub reach_us: u128,
    pub conc_us: u128,
    pub lock_order_us: u128,
    pub total_us: u128,
}

/// Everything one full analysis run produces.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Every violation, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Reply-code coverage counts.
    pub proto: ProtoSummary,
    /// Per-pass elapsed wall-clock.
    pub timings: PassTimings,
}

/// Runs every pass — per-file lexical rules, intraprocedural dataflow
/// (`flow.*`), then the workspace-level semantic passes (panic
/// reachability, reply-code coverage, concurrency discipline,
/// lock-order acyclicity) — over pre-loaded sources.
///
/// The allowlist is input (not just output reconciliation) because
/// `reach.panic` treats allowlisted indexing budgets as local bounds
/// proofs. `flow.range` proofs *discharge* `panic.indexing` findings
/// before they are returned: a line whose every index site the interval
/// analysis proved in bounds needs no allowlist budget, and its sinks do
/// not propagate through `reach.panic` either.
pub fn check_sources(sources: &[SourceFile], allow: &Allowlist) -> CheckOutcome {
    let started = Instant::now();
    let mut timings = PassTimings::default();
    let mut all = Vec::new();

    let t = Instant::now();
    for s in sources {
        all.extend(run_rules(&s.path, &s.tokens, rules_for(&s.path)));
    }
    timings.lexical_us = t.elapsed().as_micros();

    let t = Instant::now();
    let parsed: Vec<ParsedFile> = sources
        .iter()
        .map(|s| parse_file(&s.path, &s.tokens))
        .collect();
    timings.parse_us = t.elapsed().as_micros();

    // Function summaries first: the interval prover consumes return-bound
    // contracts at call sites, so they must exist before `flow_pass` runs.
    let t = Instant::now();
    let summaries = compute_summaries(sources, &parsed);
    summary_pass(sources, &parsed, &summaries, &mut all);
    timings.summary_us = t.elapsed().as_micros();

    // Dataflow: unit inference where dimensioned scalars live, interval
    // analysis everywhere the panic rules look.
    let t = Instant::now();
    let mut proven = ProvenLines::new();
    for (s, p) in sources.iter().zip(&parsed) {
        let check_units = UNIT_FLOW_PREFIXES.iter().any(|pre| s.path.starts_with(pre));
        let proofs = flow_pass(&s.path, &s.tokens, p, check_units, &summaries, &mut all);
        let lines = proofs.fully_proven();
        if !lines.is_empty() {
            proven.insert(s.path.clone(), lines);
        }
    }
    // Discharge: an indexing finding whose line is fully proven is not a
    // finding at all — the analysis did the allowlist's job.
    all.retain(|v| {
        !(v.rule == "panic.indexing"
            && proven
                .get(&v.file)
                .is_some_and(|lines| lines.contains(&v.line)))
    });
    timings.flow_us = t.elapsed().as_micros();

    // Taint: wire-derived values reaching resource sinks unvalidated.
    let t = Instant::now();
    taint_pass(sources, &parsed, &mut all);
    timings.taint_us = t.elapsed().as_micros();

    let t = Instant::now();
    reach_pass(sources, &parsed, allow, &proven, &mut all);
    timings.reach_us = t.elapsed().as_micros();

    let summary = proto_pass(sources, &parsed, &ProtoConfig::WORKSPACE, &mut all);

    let t = Instant::now();
    conc_pass(sources, &parsed, STATION_PREFIX, &mut all);
    conc_pass(sources, &parsed, CONTROL_PREFIX, &mut all);
    conc_pass(sources, &parsed, STORE_PREFIX, &mut all);
    timings.conc_us = t.elapsed().as_micros();

    let t = Instant::now();
    lock_order_pass(
        sources,
        &parsed,
        &[STATION_PREFIX, CONTROL_PREFIX, STORE_PREFIX],
        &mut all,
    );
    timings.lock_order_us = t.elapsed().as_micros();

    all.sort_by(|a, b| (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule)));
    timings.total_us = started.elapsed().as_micros();
    CheckOutcome {
        violations: all,
        proto: summary,
        timings,
    }
}

/// Runs the full analysis over every in-scope workspace file.
pub fn check_workspace(root: &Path, allow: &Allowlist) -> io::Result<CheckOutcome> {
    Ok(check_sources(&load_sources(root)?, allow))
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
        ] {
            let rules = rules_for(lib);
            assert!(rules.panic_freedom && rules.unit_safety, "{lib}");
        }

        let units = rules_for("crates/units/src/lib.rs");
        assert!(units.panic_freedom && !units.unit_safety);

        let lint = rules_for("crates/lint/src/rules.rs");
        assert!(lint.panic_freedom && !lint.unit_safety);

        assert!(!rules_for("crates/bench/src/bin/exp_f2.rs").any());
        assert!(!rules_for("crates/core/tests/integration.rs").any());
        assert!(!rules_for("crates/core/src/data.csv").any());
        assert!(rules_for("src/lib.rs").panic_freedom);
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
