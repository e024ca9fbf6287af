//! Fixture self-tests: every `//~ rule` marker in `fixtures/*.rs` must be
//! matched by exactly one reported violation of that rule on that line,
//! and no unmarked line may be flagged. This pins both the hit rate and
//! the false-positive rate of the analyzer.

// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bsa_lint::lexer::{lex, strip_test_code};
use bsa_lint::{flow_pass, parse_file, raw_f64_pass, Violation};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Every fixture, for the rule-coverage check.
const FIXTURES: &[&str] = &["units.rs", "flow.rs", "clean.rs"];

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

/// Lexes and parses one fixture under a synthetic workspace path, runs
/// both unit rules over it and requires exactly the marked findings.
fn check_fixture(name: &str, synthetic_path: &str) {
    let source = fixture(name);
    let expected = expected_markers(&source);
    let tokens = strip_test_code(&lex(&source));
    let parsed = parse_file(synthetic_path, &tokens);
    let mut violations = Vec::new();
    flow_pass(&tokens, &parsed, &mut violations);
    raw_f64_pass(&tokens, &parsed, &mut violations);
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
fn units_fixture_is_fully_flagged() {
    check_fixture("units.rs", "crates/dsp/src/units_fixture.rs");
}

#[test]
fn flow_fixture_is_fully_flagged() {
    check_fixture("flow.rs", "crates/core/src/flow_fixture.rs");
}

#[test]
fn clean_fixture_has_zero_violations() {
    let source = fixture("clean.rs");
    assert!(
        expected_markers(&source).is_empty(),
        "clean.rs must carry no markers"
    );
    check_fixture("clean.rs", "crates/core/src/clean.rs");
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
