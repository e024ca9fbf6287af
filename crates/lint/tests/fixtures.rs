//! Fixture self-tests: every `//~ rule` marker in `fixtures/*.rs` must be
//! matched by exactly one reported violation of that rule on that line,
//! and no unmarked line may be flagged. This pins both the hit rate and
//! the false-positive rate of the analyzer.

// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bsa_lint::lexer::{lex, strip_test_code, Token};
use bsa_lint::{flow_pass, parse_file, run_rules, ParsedFile, Violation};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Every fixture, for the rule-coverage check.
const FIXTURES: &[&str] = &["panics.rs", "units.rs", "conc.rs", "flow.rs", "clean.rs"];

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

/// The per-file rules, every family, with unit-safety on.
fn all_rules(tokens: &[Token], parsed: &ParsedFile) -> Vec<Violation> {
    run_rules(tokens, parsed, true)
}

fn check_fixture(name: &str) {
    check_fixture_at(name, name, &all_rules);
}

/// A pass under test: one file's tokens and parse in, its findings out.
type Pass<'a> = &'a dyn Fn(&[Token], &ParsedFile) -> Vec<Violation>;

/// Lexes and parses one fixture under a synthetic workspace path, runs
/// `pass` over it and requires exactly the marked findings.
fn check_fixture_at(name: &str, synthetic_path: &str, pass: Pass<'_>) {
    let source = fixture(name);
    let expected = expected_markers(&source);
    let tokens = strip_test_code(&lex(&source));
    let violations = pass(&tokens, &parse_file(synthetic_path, &tokens));
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

#[test]
fn panics_fixture_is_fully_flagged() {
    check_fixture("panics.rs");
}

#[test]
fn units_fixture_is_fully_flagged() {
    check_fixture("units.rs");
}

#[test]
fn conc_fixture_is_fully_flagged() {
    check_fixture_at("conc.rs", "crates/station/src/conc_fixture.rs", &all_rules);
}

#[test]
fn flow_fixture_is_fully_flagged() {
    // `flow.unit` plus the `panic.indexing` findings, so that every index
    // site in the fixture, guarded or not, must carry its marker.
    check_fixture_at(
        "flow.rs",
        "crates/core/src/flow_fixture.rs",
        &|tokens, parsed| {
            let mut out = Vec::new();
            flow_pass(tokens, parsed, &mut out);
            out.extend(run_rules(tokens, parsed, false));
            out
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
    check_fixture_at("clean.rs", "crates/station/src/clean.rs", &all_rules);
}

#[test]
fn every_rule_id_is_exercised_by_some_fixture() {
    let mut seen: Vec<String> = Vec::new();
    for name in FIXTURES {
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
