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
//! so is a machine-checked `flow.range` proof (a proven site is not live,
//! see [`ParsedFile::live_sites`]). An allowlisted `.expect()`/panicking
//! macro is a *caller contract* (e.g. a documented panicking constructor),
//! so those sinks always propagate: every public entry point that can
//! reach one must either be fixed or hold its own justification.
//! `.unwrap()` propagates too; where it is written, clippy's `unwrap_used`
//! reports it instead of a `panic.*` rule.
//!
//! Edges come from the parser's call table ([`crate::parser::CallSite`]),
//! under the one resolution rule of DESIGN.md §9.2.

use crate::allow::Allowlist;
use crate::parser::{FnRef, ParsedFile};
use crate::rules::{violation, PanicSite, Violation};
use std::collections::BTreeMap;

/// Where `reach.panic` findings are reported: the crates whose public API
/// the station and downstream analysis pipelines call into.
const REPORT_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/dsp/src/",
    "crates/link/src/",
    "crates/control/src/",
    "crates/store/src/",
];

/// Runs the reachability analysis over the whole workspace, after
/// `flow.range` has marked its proven sites.
pub fn reach_pass(parsed: &[ParsedFile], allow: &Allowlist, out: &mut Vec<Violation>) {
    // The first non-suppressed direct panic site of every fn that has one.
    let mut sinks: BTreeMap<FnRef, String> = BTreeMap::new();
    for (fi, pf) in parsed.iter().enumerate() {
        let budgeted = allow.budget_for(&pf.path, "panic.indexing").is_some();
        for (gi, f) in pf.fns.iter().enumerate() {
            let sink = pf
                .live_sites(&f.body)
                .find(|s| !(budgeted && matches!(s.kind, PanicSite::Indexing { .. })));
            if let Some(s) = sink {
                let sink = format!("{} at {}:{}", s.kind.label(), pf.path, s.line);
                sinks.insert((fi, gi), sink);
            }
        }
    }
    let mut memo: Memo = BTreeMap::new();
    for (fi, pf) in parsed.iter().enumerate() {
        if !REPORT_PREFIXES.iter().any(|p| pf.path.starts_with(p)) {
            continue;
        }
        for (gi, f) in pf.fns.iter().enumerate() {
            // Direct panic sites are the lexical rules' job.
            if !f.is_pub || f.name == "main" || sinks.contains_key(&(fi, gi)) {
                continue;
            }
            if let Some(trace) = search((fi, gi), parsed, &sinks, &mut memo) {
                out.push(violation(
                    &pf.path,
                    f.line,
                    "reach.panic",
                    format!(
                        "pub fn `{}` can panic transitively: `{}` → {trace}",
                        f.qualified, f.qualified
                    ),
                ));
            }
        }
    }
}

/// Search results: `None` while a fn is being explored, then its trace.
type Memo = BTreeMap<FnRef, Option<Option<String>>>;

/// Depth-first search for a path from `id` to any sink, memoized. Cycles
/// are cut by treating in-progress nodes as sink-free (an approximation:
/// a cycle member can be cached as clean even when a later-explored path
/// would reach a sink — acceptable for a linter that errs quiet).
fn search(
    id: FnRef,
    parsed: &[ParsedFile],
    sinks: &BTreeMap<FnRef, String>,
    memo: &mut Memo,
) -> Option<String> {
    if let Some(done) = memo.get(&id) {
        return done.clone().flatten();
    }
    memo.insert(id, None);
    let f = parsed.get(id.0).and_then(|pf| pf.fns.get(id.1));
    let calls = f.map_or(&[][..], |f| &f.calls);
    let result = calls.iter().filter_map(|c| c.target).find_map(|t| {
        let callee = parsed.get(t.0).and_then(|pf| pf.fns.get(t.1))?;
        let rest = sinks
            .get(&t)
            .cloned()
            .or_else(|| search(t, parsed, sinks, memo))?;
        Some(format!("`{}` → {rest}", callee.qualified))
    });
    memo.insert(id, Some(result.clone()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};
    use crate::parser::parse_workspace;
    use crate::workspace::SourceFile;

    fn parse(files: &[(&str, &str)]) -> Vec<ParsedFile> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile {
                path: path.to_string(),
                tokens: strip_test_code(&lex(src)),
            })
            .collect();
        parse_workspace(&sources)
    }

    fn run(files: &[(&str, &str)], allow: &Allowlist) -> Vec<Violation> {
        let mut out = Vec::new();
        reach_pass(&parse(files), allow, &mut out);
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
    fn flow_proven_sites_do_not_propagate() {
        let caller = "pub fn entry(x: &[f64]) -> f64 { pick(x) }";
        let inner = "pub fn pick(x: &[f64]) -> f64 { x[0] }";
        let files = [
            ("crates/dsp/src/lib.rs", caller),
            ("crates/dsp/src/inner.rs", inner),
        ];
        // Without a proof the indexing sink propagates to `entry`.
        let unproven = run(&files, &Allowlist::default());
        assert_eq!(unproven.len(), 1, "{unproven:#?}");

        // With the sink proven by flow.range it is a local bounds proof,
        // exactly like an allowlist budget.
        let mut parsed = parse(&files);
        for site in parsed.iter_mut().flat_map(|pf| &mut pf.sites) {
            site.proven = true;
        }
        let mut v = Vec::new();
        reach_pass(&parsed, &Allowlist::default(), &mut v);
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
