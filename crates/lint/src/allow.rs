//! The checked-in violation allowlist (`lint.allow.toml`).
//!
//! Each entry grants a *per-file, per-rule budget* with a written
//! justification. The budget is exact, not an upper bound: if the actual
//! count exceeds `max` the check fails (a violation crept in), and if it
//! drops below `max` the check also fails with a "stale budget" message —
//! the allowlist must be tightened in the same PR that removes a
//! violation, so the file can only ever shrink.
//!
//! The parser handles exactly the subset of TOML this file uses
//! (`[[allow]]` tables with string/integer keys); the workspace vendors no
//! TOML crate and the format is deliberately kept trivial.

use crate::rules::{Violation, RULE_IDS};
use std::collections::BTreeMap;
use std::fmt;

/// One allowlist entry: a per-file, per-rule violation budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// Rule identifier from [`RULE_IDS`].
    pub rule: String,
    /// Exact number of violations granted.
    pub max: usize,
    /// Why these violations are acceptable (shown in reports).
    pub reason: String,
}

/// Parsed allowlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    /// The file's leading comment block, newlines included, written back
    /// verbatim by [`Self::to_toml`].
    pub header: String,
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

/// A parse or validation problem in the allowlist itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowError {
    /// 1-based line in `lint.allow.toml` (0 for whole-file problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AllowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.allow.toml:{}: {}", self.line, self.message)
    }
}

impl Allowlist {
    /// Parses the allowlist from TOML text.
    pub fn parse(text: &str) -> Result<Self, AllowError> {
        let header = text
            .split_inclusive('\n')
            .take_while(|line| line.starts_with('#'))
            .collect();
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut current: Option<(usize, PartialEntry)> = None;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some((at, partial)) = current.take() {
                    entries.push(partial.finish(at)?);
                }
                current = Some((lineno, PartialEntry::default()));
                continue;
            }
            if line.starts_with('[') {
                return Err(AllowError {
                    line: lineno,
                    message: format!("unexpected table `{line}`; only [[allow]] is supported"),
                });
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(AllowError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let Some((_, partial)) = current.as_mut() else {
                return Err(AllowError {
                    line: lineno,
                    message: "key outside an [[allow]] table".to_string(),
                });
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "file" => partial.file = Some(parse_string(value, lineno)?),
                "rule" => partial.rule = Some(parse_string(value, lineno)?),
                "reason" => partial.reason = Some(parse_string(value, lineno)?),
                "max" => {
                    partial.max = Some(value.parse().map_err(|_| AllowError {
                        line: lineno,
                        message: format!("`max` must be a non-negative integer, got `{value}`"),
                    })?)
                }
                other => {
                    return Err(AllowError {
                        line: lineno,
                        message: format!("unknown key `{other}` (expected file/rule/max/reason)"),
                    })
                }
            }
        }
        if let Some((at, partial)) = current.take() {
            entries.push(partial.finish(at)?);
        }

        // Validate rule ids and reject duplicate (file, rule) pairs, which
        // would make the budget ambiguous.
        let mut seen = BTreeMap::new();
        for e in &entries {
            if !RULE_IDS.contains(&e.rule.as_str()) {
                return Err(AllowError {
                    line: 0,
                    message: format!(
                        "unknown rule `{}` for `{}` (known: {})",
                        e.rule,
                        e.file,
                        RULE_IDS.join(", ")
                    ),
                });
            }
            if seen.insert((e.file.clone(), e.rule.clone()), ()).is_some() {
                return Err(AllowError {
                    line: 0,
                    message: format!("duplicate entry for ({}, {})", e.file, e.rule),
                });
            }
        }
        Ok(Self { header, entries })
    }

    /// Serializes back to the canonical TOML layout (used by `tighten`):
    /// the parsed header as it was, then one table per entry.
    pub fn to_toml(&self) -> String {
        let mut out = self.header.clone();
        for e in &self.entries {
            out.push_str(&format!(
                "\n[[allow]]\nfile = \"{}\"\nrule = \"{}\"\nmax = {}\nreason = \"{}\"\n",
                e.file, e.rule, e.max, e.reason
            ));
        }
        out
    }

    /// Total granted budget across all entries — the number CI compares
    /// against the baseline to assert the allowlist only shrank.
    pub fn total_budget(&self) -> usize {
        self.entries.iter().map(|e| e.max).sum()
    }

    /// Looks up the budget for a (file, rule) pair.
    pub fn budget_for(&self, file: &str, rule: &str) -> Option<&AllowEntry> {
        self.entries
            .iter()
            .find(|e| e.file == file && e.rule == rule)
    }
}

#[derive(Default)]
struct PartialEntry {
    file: Option<String>,
    rule: Option<String>,
    max: Option<usize>,
    reason: Option<String>,
}

impl PartialEntry {
    fn finish(self, line: usize) -> Result<AllowEntry, AllowError> {
        let missing = |what: &str| AllowError {
            line,
            message: format!("[[allow]] entry missing `{what}`"),
        };
        let entry = AllowEntry {
            file: self.file.ok_or_else(|| missing("file"))?,
            rule: self.rule.ok_or_else(|| missing("rule"))?,
            max: self.max.ok_or_else(|| missing("max"))?,
            reason: self.reason.ok_or_else(|| missing("reason"))?,
        };
        if entry.max == 0 {
            return Err(AllowError {
                line,
                message: format!(
                    "({}, {}) has max = 0; delete the entry instead",
                    entry.file, entry.rule
                ),
            });
        }
        if entry.reason.trim().len() < 10 {
            return Err(AllowError {
                line,
                message: format!(
                    "({}, {}) needs a real justification, not `{}`",
                    entry.file, entry.rule, entry.reason
                ),
            });
        }
        Ok(entry)
    }
}

/// Strips a `#`-comment, respecting (the only) quoted-string context.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_string(value: &str, line: usize) -> Result<String, AllowError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| AllowError {
            line,
            message: format!("expected a double-quoted string, got `{value}`"),
        })?;
    Ok(inner.replace("\\\"", "\""))
}

/// Outcome of reconciling violations against the allowlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reconciliation {
    /// Violations not covered by any budget, or in excess of one.
    pub unallowed: Vec<Violation>,
    /// Budgets larger than the actual count: `(entry, actual)`.
    pub stale: Vec<(AllowEntry, usize)>,
}

impl Reconciliation {
    /// `true` when the check should pass.
    pub fn clean(&self) -> bool {
        self.unallowed.is_empty() && self.stale.is_empty()
    }
}

/// Reconciles raw violations against the allowlist budgets.
pub fn reconcile(violations: &[Violation], allow: &Allowlist) -> Reconciliation {
    // Count per (file, rule).
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for v in violations {
        *counts.entry((v.file.as_str(), v.rule)).or_default() += 1;
    }

    let mut rec = Reconciliation::default();
    for v in violations {
        let count = counts[&(v.file.as_str(), v.rule)];
        match allow.budget_for(&v.file, v.rule) {
            Some(entry) if count <= entry.max => {}
            _ => rec.unallowed.push(v.clone()),
        }
    }
    for entry in &allow.entries {
        let actual = counts
            .get(&(entry.file.as_str(), entry.rule.as_str()))
            .copied()
            .unwrap_or(0);
        if actual < entry.max {
            rec.stale.push((entry.clone(), actual));
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, rule: &'static str, line: usize) -> Violation {
        Violation {
            file: file.to_string(),
            line,
            rule,
            message: String::new(),
        }
    }

    const SAMPLE: &str = r#"
# comment
[[allow]]
file = "crates/core/src/a.rs"
rule = "panic.expect"
max = 2
reason = "validated compile-time constants"  # trailing comment

[[allow]]
file = "crates/dsp/src/b.rs"
rule = "panic.indexing"
max = 3
reason = "indices derive from the slice length"
"#;

    #[test]
    fn parses_sample() {
        let a = Allowlist::parse(SAMPLE).expect("parses");
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].max, 2);
        assert_eq!(a.total_budget(), 5);
        assert!(a
            .budget_for("crates/dsp/src/b.rs", "panic.indexing")
            .is_some());
    }

    #[test]
    fn round_trips_through_to_toml() {
        let a = Allowlist::parse(SAMPLE).expect("parses");
        let b = Allowlist::parse(&a.to_toml()).expect("round-trips");
        assert_eq!(a, b);
    }

    /// `tighten` rewrites the committed file through `to_toml`; with no
    /// budget to change it must write back the same bytes, header
    /// included.
    #[test]
    fn committed_allowlist_round_trips_byte_for_byte() {
        let committed = include_str!("../../../lint.allow.toml");
        let a = Allowlist::parse(committed).expect("parses");
        assert!(a.header.starts_with("# Violation budgets"));
        assert_eq!(a.to_toml(), committed);
    }

    #[test]
    fn rejects_unknown_rule_and_duplicates_and_zero_max() {
        let bad_rule = "[[allow]]\nfile = \"f.rs\"\nrule = \"nope\"\nmax = 1\nreason = \"long enough reason\"\n";
        assert!(Allowlist::parse(bad_rule).is_err());
        let dup = format!("{SAMPLE}\n[[allow]]\nfile = \"crates/core/src/a.rs\"\nrule = \"panic.expect\"\nmax = 1\nreason = \"another justification\"\n");
        assert!(Allowlist::parse(&dup).is_err());
        let zero = "[[allow]]\nfile = \"f.rs\"\nrule = \"panic.macro\"\nmax = 0\nreason = \"long enough reason\"\n";
        assert!(Allowlist::parse(zero).is_err());
    }

    #[test]
    fn rejects_flimsy_reason() {
        let flimsy =
            "[[allow]]\nfile = \"f.rs\"\nrule = \"panic.macro\"\nmax = 1\nreason = \"ok\"\n";
        assert!(Allowlist::parse(flimsy).is_err());
    }

    #[test]
    fn within_budget_is_clean() {
        let a = Allowlist::parse(SAMPLE).expect("parses");
        let violations = vec![
            v("crates/core/src/a.rs", "panic.expect", 1),
            v("crates/core/src/a.rs", "panic.expect", 9),
            v("crates/dsp/src/b.rs", "panic.indexing", 2),
            v("crates/dsp/src/b.rs", "panic.indexing", 3),
            v("crates/dsp/src/b.rs", "panic.indexing", 4),
        ];
        let rec = reconcile(&violations, &a);
        assert!(rec.clean(), "{rec:?}");
    }

    #[test]
    fn over_budget_reports_all_violations_for_that_pair() {
        let a = Allowlist::parse(SAMPLE).expect("parses");
        let violations = vec![
            v("crates/core/src/a.rs", "panic.expect", 1),
            v("crates/core/src/a.rs", "panic.expect", 2),
            v("crates/core/src/a.rs", "panic.expect", 3),
        ];
        let rec = reconcile(&violations, &a);
        assert_eq!(rec.unallowed.len(), 3);
        // The untouched indexing budget (actual 0 < max 3) is stale; the
        // over-budget entry is not.
        assert_eq!(rec.stale.len(), 1);
    }

    #[test]
    fn uncovered_violation_is_unallowed() {
        let a = Allowlist::parse(SAMPLE).expect("parses");
        let violations = vec![v("crates/neuro/src/c.rs", "panic.macro", 7)];
        let rec = reconcile(&violations, &a);
        assert_eq!(rec.unallowed.len(), 1);
        assert!(!rec.clean());
    }

    #[test]
    fn stale_budget_fails_the_check() {
        let a = Allowlist::parse(SAMPLE).expect("parses");
        let violations = vec![
            v("crates/core/src/a.rs", "panic.expect", 1),
            // b.rs budget of 3 now only has 1 actual: stale.
            v("crates/dsp/src/b.rs", "panic.indexing", 2),
        ];
        let rec = reconcile(&violations, &a);
        assert!(rec.unallowed.is_empty());
        assert_eq!(rec.stale.len(), 2);
        assert!(!rec.clean());
    }
}
