//! `reach.panic` — transitive panic reachability over the workspace call
//! graph.
//!
//! The lexical `panic.*` rules flag panic sites *where they are written*;
//! this pass flags public API functions in the crates whose API the
//! station and analysis pipelines call into (`bsa-core`, `bsa-dsp`,
//! `bsa-link`, `bsa-control`, `bsa-store`) from which a panic site is
//! reachable *through calls*, possibly across crates. A pub fn that
//! panics directly is lexical territory and is not re-reported here.
//!
//! Suppression policy: an allowlisted `panic.indexing` budget is a local
//! bounds proof — indexing sinks in such files do **not** propagate — and
//! so is a machine-checked `flow.range` proof (the `proven` map carries
//! the lines whose every index site interval analysis discharged). An
//! allowlisted `.expect()`/panicking macro is a *caller contract* (e.g. a
//! documented panicking constructor), so those sinks always propagate:
//! every public entry point that can reach one must either be fixed or
//! hold its own justification. `.unwrap()` propagates too; where it is
//! written, clippy's `unwrap_used` reports it instead of a `panic.*` rule.
//!
//! Call resolution (DESIGN.md §9.2): `Type::name(…)` and `Self::name(…)`
//! resolve exactly against impl-qualified definitions; bare `name(…)` and
//! `.name(…)` method calls resolve only when `name` is unique among every
//! fn the workspace defines (ambiguous or std names produce no edge).

use crate::allow::Allowlist;
use crate::parser::{CallSite, ParsedFile};
use crate::rules::{panic_sites, violation, PanicSite, Violation};
use crate::workspace::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Per-file set of lines whose every index site `flow.range` proved in
/// bounds (see [`crate::flow::FileProofs::fully_proven`]).
pub type ProvenLines = BTreeMap<String, BTreeSet<usize>>;

/// Where `reach.panic` findings are reported: the crates whose public API
/// the station and downstream analysis pipelines call into.
const REPORT_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/dsp/src/",
    "crates/link/src/",
    "crates/control/src/",
    "crates/store/src/",
];

/// Runs the reachability analysis over the whole workspace. `sources` and
/// `parsed` must be index-aligned (one `ParsedFile` per `SourceFile`).
pub fn reach_pass(
    sources: &[SourceFile],
    parsed: &[ParsedFile],
    allow: &Allowlist,
    proven: &ProvenLines,
    out: &mut Vec<Violation>,
) {
    let graph = Graph::build(sources, parsed, allow, proven);
    let mut memo: Vec<State> = vec![State::Unvisited; graph.fns.len()];
    for id in 0..graph.fns.len() {
        let Some(node) = graph.fns.get(id) else {
            continue;
        };
        if !node.is_pub || node.name == "main" {
            continue;
        }
        if !REPORT_PREFIXES.iter().any(|p| node.file.starts_with(p)) {
            continue;
        }
        // Direct panic sites are the lexical rules' job.
        if node.sink.is_some() {
            continue;
        }
        if let Some(trace) = search(id, &graph, &mut memo) {
            out.push(violation(
                &node.file,
                node.line,
                "reach.panic",
                format!(
                    "pub fn `{}` can panic transitively: `{}` → {trace}",
                    node.qualified, node.qualified
                ),
            ));
        }
    }
}

/// One node of the call graph.
struct Node {
    file: String,
    qualified: String,
    name: String,
    is_pub: bool,
    line: usize,
    /// Description of the first non-suppressed direct panic site, if any.
    sink: Option<String>,
    /// Resolved outgoing edges (indices into `Graph::fns`).
    edges: Vec<usize>,
}

struct Graph {
    fns: Vec<Node>,
}

impl Graph {
    fn build(
        sources: &[SourceFile],
        parsed: &[ParsedFile],
        allow: &Allowlist,
        proven: &ProvenLines,
    ) -> Self {
        // Flatten every fn in the workspace into one node list.
        let mut fns: Vec<Node> = Vec::new();
        let mut raw_calls: Vec<Vec<CallSite>> = Vec::new();
        for (fi, pf) in parsed.iter().enumerate() {
            for f in &pf.fns {
                let body = sources
                    .get(fi)
                    .and_then(|s| s.tokens.get(f.body.clone()))
                    .unwrap_or(&[]);
                fns.push(Node {
                    file: pf.path.clone(),
                    qualified: f.qualified.clone(),
                    name: f.name.clone(),
                    is_pub: f.is_pub,
                    line: f.line,
                    sink: direct_sink(&pf.path, body, allow, proven),
                    edges: Vec::new(),
                });
                raw_calls.push(f.calls.clone());
            }
        }

        // Name indexes for resolution.
        let mut by_qualified: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, node) in fns.iter().enumerate() {
            by_qualified
                .entry(node.qualified.as_str())
                .or_default()
                .push(id);
            by_name.entry(node.name.as_str()).or_default().push(id);
        }

        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        for calls in &raw_calls {
            let mut resolved = Vec::new();
            for call in calls {
                if let Some(target) = resolve(call, &by_qualified, &by_name) {
                    if !resolved.contains(&target) {
                        resolved.push(target);
                    }
                }
            }
            edges.push(resolved);
        }
        for (node, e) in fns.iter_mut().zip(edges) {
            node.edges = e;
        }
        Self { fns }
    }
}

/// Resolves one call site to a workspace fn, or `None` (std call, macro
/// already filtered, or ambiguous name).
fn resolve(
    call: &CallSite,
    by_qualified: &BTreeMap<&str, Vec<usize>>,
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Option<usize> {
    if let Some(q) = &call.qualifier {
        let key = format!("{q}::{}", call.callee);
        return match by_qualified.get(key.as_str()) {
            Some(ids) if ids.len() == 1 => ids.first().copied(),
            _ => None,
        };
    }
    match by_name.get(call.callee.as_str()) {
        Some(ids) if ids.len() == 1 => ids.first().copied(),
        _ => None,
    }
}

/// Returns the first non-suppressed panic site in one fn body, formatted
/// for the report. Indexing sinks are suppressed either by a file-level
/// allowlist budget (human-reviewed bounds justification) or by a
/// `flow.range` proof for that exact line.
fn direct_sink(
    file: &str,
    body: &[crate::lexer::Token],
    allow: &Allowlist,
    proven: &ProvenLines,
) -> Option<String> {
    let budgeted = allow.budget_for(file, "panic.indexing").is_some();
    panic_sites(body)
        .into_iter()
        .find(|(line, site)| {
            let flow_proven = proven.get(file).is_some_and(|lines| lines.contains(line));
            *site != PanicSite::Indexing || !(budgeted || flow_proven)
        })
        .map(|(line, site)| format!("{} at {file}:{line}", site.label()))
}

#[derive(Clone, PartialEq)]
enum State {
    Unvisited,
    InProgress,
    Done(Option<String>),
}

/// Depth-first search for a path from `id` to any sink, memoized. Cycles
/// are cut by treating in-progress nodes as sink-free (an approximation:
/// a cycle member can be cached as clean even when a later-explored path
/// would reach a sink — acceptable for a linter that errs quiet).
fn search(id: usize, graph: &Graph, memo: &mut Vec<State>) -> Option<String> {
    match memo.get(id) {
        Some(State::Done(r)) => return r.clone(),
        Some(State::InProgress) => return None,
        _ => {}
    }
    if let Some(slot) = memo.get_mut(id) {
        *slot = State::InProgress;
    }
    let edges: Vec<usize> = graph
        .fns
        .get(id)
        .map(|n| n.edges.clone())
        .unwrap_or_default();
    let mut result: Option<String> = None;
    for target in edges {
        let Some(node) = graph.fns.get(target) else {
            continue;
        };
        if let Some(sink) = &node.sink {
            result = Some(format!("`{}` → {sink}", node.qualified));
            break;
        }
        if let Some(sub) = search(target, graph, memo) {
            result = Some(format!("`{}` → {sub}", node.qualified));
            break;
        }
    }
    if let Some(slot) = memo.get_mut(id) {
        *slot = State::Done(result.clone());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};
    use crate::parser::parse_file;

    fn run(files: &[(&str, &str)], allow: &Allowlist) -> Vec<Violation> {
        run_proven(files, allow, &ProvenLines::new())
    }

    fn run_proven(
        files: &[(&str, &str)],
        allow: &Allowlist,
        proven: &ProvenLines,
    ) -> Vec<Violation> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile {
                path: path.to_string(),
                tokens: strip_test_code(&lex(src)),
            })
            .collect();
        let parsed: Vec<ParsedFile> = sources
            .iter()
            .map(|s| parse_file(&s.path, &s.tokens))
            .collect();
        let mut out = Vec::new();
        reach_pass(&sources, &parsed, allow, proven, &mut out);
        out
    }

    #[test]
    fn transitive_expect_is_flagged_across_crates() {
        let core = "pub fn api() -> u8 { build() }\nfn build() -> u8 { helper_new() }";
        let circuit = "pub fn helper_new() -> u8 { source().expect(\"msg\") }";
        let v = run(
            &[
                ("crates/core/src/lib.rs", core),
                ("crates/circuit/src/lib.rs", circuit),
            ],
            &Allowlist::default(),
        );
        // `api` reaches the expect through two edges; `helper_new` panics
        // directly but lives outside the report prefixes; `build` is
        // private.
        assert_eq!(v.len(), 1, "{v:#?}");
        let f = v.first().expect("one");
        assert_eq!(f.rule, "reach.panic");
        assert_eq!(f.file, "crates/core/src/lib.rs");
        assert!(f.message.contains("helper_new"), "{}", f.message);
    }

    #[test]
    fn direct_panics_are_left_to_the_lexical_rules() {
        let src = "pub fn direct() -> u8 { x.unwrap() }";
        let v = run(&[("crates/core/src/lib.rs", src)], &Allowlist::default());
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn allowlisted_indexing_does_not_propagate_but_expect_does() {
        let toml = "[[allow]]\nfile = \"crates/dsp/src/inner.rs\"\nrule = \"panic.indexing\"\nmax = 1\nreason = \"bounds proven by construction\"\n";
        let allow = Allowlist::parse(toml).expect("allowlist");
        let caller =
            "pub fn entry(x: &[f64]) -> f64 { pick(x) }\npub fn entry2() -> u8 { fetch() }";
        let inner = "pub fn pick(x: &[f64]) -> f64 { x[0] }\npub fn fetch() -> u8 { y.expect(\"caller contract\") }";
        let v = run(
            &[
                ("crates/dsp/src/lib.rs", caller),
                ("crates/dsp/src/inner.rs", inner),
            ],
            &allow,
        );
        // `entry` → pick: indexing suppressed by the budget. `entry2` →
        // fetch: the expect propagates. `pick`/`fetch` panic directly →
        // lexical territory (and `pick`'s sink is suppressed anyway).
        assert_eq!(v.len(), 1, "{v:#?}");
        let f = v.first().expect("one");
        assert_eq!(f.line, 2);
        assert!(f.message.contains("fetch"), "{}", f.message);
    }

    #[test]
    fn flow_proven_lines_do_not_propagate() {
        let caller = "pub fn entry(x: &[f64]) -> f64 { pick(x) }";
        let inner = "pub fn pick(x: &[f64]) -> f64 { x[0] }";
        let files = [
            ("crates/dsp/src/lib.rs", caller),
            ("crates/dsp/src/inner.rs", inner),
        ];
        // Without a proof the indexing sink propagates to `entry`.
        let unproven = run(&files, &Allowlist::default());
        assert_eq!(unproven.len(), 1, "{unproven:#?}");

        // With the sink's line proven by flow.range it is a local bounds
        // proof, exactly like an allowlist budget.
        let mut proven = ProvenLines::new();
        proven
            .entry("crates/dsp/src/inner.rs".to_string())
            .or_default()
            .insert(1);
        let v = run_proven(&files, &Allowlist::default(), &proven);
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn ambiguous_bare_names_produce_no_edge() {
        let a = "pub fn caller() { work(); }";
        let b = "fn work() { x.unwrap(); }";
        let c = "fn work() {}";
        let v = run(
            &[
                ("crates/core/src/a.rs", a),
                ("crates/core/src/b.rs", b),
                ("crates/dsp/src/c.rs", c),
            ],
            &Allowlist::default(),
        );
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn self_and_method_calls_resolve() {
        let src = r#"
            pub struct Engine;
            impl Engine {
                pub fn run(&self) { self.step() }
                fn step(&self) { Self::finish() }
                fn finish() { panic!("boom") }
            }
        "#;
        let v = run(&[("crates/link/src/lib.rs", src)], &Allowlist::default());
        assert_eq!(v.len(), 1, "{v:#?}");
        let f = v.first().expect("one");
        assert!(f.message.contains("Engine::step"), "{}", f.message);
        assert!(f.message.contains("Engine::finish"), "{}", f.message);
    }

    #[test]
    fn recursion_terminates() {
        let src = "pub fn a() { b() }\nfn b() { a() }";
        let v = run(&[("crates/core/src/lib.rs", src)], &Allowlist::default());
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn out_of_scope_crates_are_not_reported() {
        let src = "pub fn api() { inner() }\nfn inner() { x.unwrap() }";
        let v = run(&[("crates/station/src/lib.rs", src)], &Allowlist::default());
        assert!(v.is_empty(), "{v:#?}");
    }
}
