//! Fixture self-tests: every `//~ rule` marker in `fixtures/*.rs` must be
//! matched by exactly one reported violation of that rule on that line,
//! and no unmarked line may be flagged. This pins both the hit rate and
//! the false-positive rate of the analyzer.

use bsa_lint::lexer::{lex, strip_test_code};
use bsa_lint::rules::{run_rules, RuleSet};
use bsa_lint::{
    compute_summaries, conc_pass, flow_pass, lock_order_pass, parse_file, proto_pass, reach_pass,
    summary_pass, taint_pass, Allowlist, ParsedFile, ProtoConfig, SourceFile, Violation,
    STATION_PREFIX,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

const ALL: RuleSet = RuleSet {
    panic_freedom: true,
    unit_safety: true,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Parses `//~ rule` markers into expected `(line, rule) -> count`.
fn expected_markers(source: &str) -> BTreeMap<(usize, String), usize> {
    let mut expected = BTreeMap::new();
    for (idx, line) in source.lines().enumerate() {
        for part in line.split("//~").skip(1) {
            let rule = part
                .split_whitespace()
                .next()
                .unwrap_or_else(|| panic!("empty //~ marker on line {}", idx + 1));
            *expected
                .entry((idx + 1, rule.to_string()))
                .or_insert(0usize) += 1;
        }
    }
    expected
}

fn check_fixture(name: &str, rules: RuleSet) {
    let source = fixture(name);
    let expected = expected_markers(&source);
    let violations = run_rules(name, &strip_test_code(&lex(&source)), rules);
    assert_markers(name, &expected, &violations);
}

/// A semantic pass under test, erased to a common shape.
type SemanticPass<'a> = &'a dyn Fn(&[SourceFile], &[ParsedFile], &mut Vec<Violation>);

/// Lexes + parses one fixture under a synthetic workspace path and runs
/// the given semantic pass over it, then applies the same exact-match
/// marker discipline as the lexical fixtures.
fn check_semantic_fixture(name: &str, synthetic_path: &str, pass: SemanticPass<'_>) {
    let source = fixture(name);
    let expected = expected_markers(&source);
    let sf = SourceFile {
        path: synthetic_path.to_string(),
        tokens: strip_test_code(&lex(&source)),
    };
    let pf = parse_file(&sf.path, &sf.tokens);
    let mut violations = Vec::new();
    pass(&[sf], &[pf], &mut violations);
    assert_markers(name, &expected, &violations);
}

fn assert_markers(
    name: &str,
    expected: &BTreeMap<(usize, String), usize>,
    violations: &[Violation],
) {
    let mut actual: BTreeMap<(usize, String), usize> = BTreeMap::new();
    for v in violations {
        *actual.entry((v.line, v.rule.to_string())).or_insert(0) += 1;
    }

    for ((line, rule), n) in expected {
        let got = actual.get(&(*line, rule.clone())).copied().unwrap_or(0);
        assert_eq!(
            got, *n,
            "{name}:{line}: expected {n} × {rule}, analyzer reported {got}\nall: {violations:#?}"
        );
    }
    for ((line, rule), n) in &actual {
        let want = expected.get(&(*line, rule.clone())).copied().unwrap_or(0);
        assert_eq!(
            *n, want,
            "{name}:{line}: analyzer reported {n} × {rule} but fixture marks {want} \
             (false positive)\nall: {violations:#?}"
        );
    }
}

/// Fixture-local proto wiring: the single fixture file plays both the
/// codec (the enum definition) and the station (the `ErrorCode::…`
/// constructions).
const FIXTURE_PROTO: ProtoConfig = ProtoConfig {
    codec_prefix: "crates/lint/fixtures/",
    handler_prefix: "crates/lint/fixtures/",
    reply_enum: "ErrorCode",
};

#[test]
fn panics_fixture_is_fully_flagged() {
    check_fixture("panics.rs", ALL);
}

#[test]
fn units_fixture_is_fully_flagged() {
    check_fixture("units.rs", ALL);
}

#[test]
fn reach_fixture_is_fully_flagged() {
    // Synthetic path inside a reporting-scope crate; empty allowlist so
    // every sink kind (including indexing) propagates.
    check_semantic_fixture(
        "reach.rs",
        "crates/core/src/reach_fixture.rs",
        &|s, p, out| {
            let empty = Allowlist::parse("").expect("empty allowlist parses");
            reach_pass(s, p, &empty, &bsa_lint::ProvenLines::new(), out);
        },
    );
}

#[test]
fn proto_fixture_is_fully_flagged() {
    check_semantic_fixture("proto.rs", "crates/lint/fixtures/proto.rs", &|s, p, out| {
        proto_pass(s, p, &FIXTURE_PROTO, out);
    });
}

#[test]
fn conc_fixture_is_fully_flagged() {
    check_semantic_fixture(
        "conc.rs",
        "crates/station/src/conc_fixture.rs",
        &|s, p, out| {
            conc_pass(s, p, STATION_PREFIX, out);
        },
    );
}

#[test]
fn flow_fixture_is_fully_flagged() {
    // Synthetic path inside a dimensioned-value crate so `flow.unit`
    // runs alongside the always-on interval prover.
    check_semantic_fixture(
        "flow.rs",
        "crates/core/src/flow_fixture.rs",
        &|s, p, out| {
            let (Some(sf), Some(pf)) = (s.first(), p.first()) else {
                panic!("fixture harness passes exactly one file");
            };
            flow_pass(
                &sf.path,
                &sf.tokens,
                pf,
                true,
                &compute_summaries(s, p),
                out,
            );
        },
    );
}

#[test]
fn summary_fixture_is_fully_flagged() {
    check_semantic_fixture(
        "summary.rs",
        "crates/core/src/summary_fixture.rs",
        &|s, p, out| {
            summary_pass(s, p, &compute_summaries(s, p), out);
        },
    );
}

#[test]
fn taint_fixture_is_fully_flagged() {
    // Synthetic path inside a wire-scope crate so the sources and sinks
    // are armed; the fixture supplies both flagged flows and the full
    // sanitizer vocabulary as unmarked negatives.
    check_semantic_fixture(
        "taint.rs",
        "crates/link/src/taint_fixture.rs",
        &|s, p, out| {
            taint_pass(s, p, out);
        },
    );
}

/// The real validation idioms in `bsa-link`'s codec must stay taint-clean:
/// `message.rs` is full of decode-then-check-then-`with_capacity` patterns
/// that are exactly the shape the taint pass hunts, and every one of them
/// bounds the count first. Zero findings here pins the false-positive
/// rate on the highest-traffic wire code in the workspace.
#[test]
fn link_codec_has_zero_taint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../link/src");
    let mut sources = Vec::new();
    for name in ["message.rs", "frame.rs", "wire.rs"] {
        let path = root.join(name);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        sources.push(SourceFile {
            path: format!("crates/link/src/{name}"),
            tokens: strip_test_code(&lex(&text)),
        });
    }
    let parsed: Vec<ParsedFile> = sources
        .iter()
        .map(|sf| parse_file(&sf.path, &sf.tokens))
        .collect();
    let mut violations = Vec::new();
    taint_pass(&sources, &parsed, &mut violations);
    assert!(
        violations.is_empty(),
        "validated codec idioms must not be flagged: {violations:#?}"
    );
}

#[test]
fn locks_fixture_is_fully_flagged() {
    check_semantic_fixture(
        "locks.rs",
        "crates/station/src/locks_fixture.rs",
        &|s, p, out| {
            lock_order_pass(s, p, &[STATION_PREFIX], out);
        },
    );
}

#[test]
fn clean_fixture_has_zero_violations() {
    let source = fixture("clean.rs");
    assert!(
        expected_markers(&source).is_empty(),
        "clean.rs must carry no markers"
    );
    let violations = run_rules("clean.rs", &strip_test_code(&lex(&source)), ALL);
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn every_rule_id_is_exercised_by_some_fixture() {
    let mut seen: Vec<String> = Vec::new();
    for name in [
        "panics.rs",
        "units.rs",
        "reach.rs",
        "proto.rs",
        "conc.rs",
        "flow.rs",
        "locks.rs",
        "summary.rs",
        "taint.rs",
    ] {
        for ((_, rule), _) in expected_markers(&fixture(name)) {
            seen.push(rule);
        }
    }
    for id in bsa_lint::RULE_IDS {
        assert!(
            seen.iter().any(|r| r == id),
            "rule `{id}` has no seeded fixture violation"
        );
    }
}
