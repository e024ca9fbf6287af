//! `--format json` / `--format sarif`: machine-readable reports for the
//! CI artifacts.
//!
//! Rendered by hand (the workspace vendors no serde); the JSON schema is
//! flat and stable so the CI job can diff `lint-report.json` across
//! commits, and the SARIF document is the minimal 2.1.0 subset
//! code-scanning UIs ingest (driver rules + per-result physical
//! locations).

use crate::allow::{Allowlist, Reconciliation};
use crate::proto::ProtoSummary;
use crate::rules::{rule_description, Violation, RULE_IDS};
use crate::workspace::PassTimings;

/// Everything one `check` run produces.
#[derive(Debug)]
pub struct Report<'a> {
    /// Files scanned.
    pub files_checked: usize,
    /// Raw violation count before reconciliation.
    pub violations_total: usize,
    /// Outcome of budget reconciliation.
    pub rec: &'a Reconciliation,
    /// The allowlist in force.
    pub allow: &'a Allowlist,
    /// Reply-code coverage counts.
    pub proto: &'a ProtoSummary,
    /// Per-pass elapsed wall-clock.
    pub timings: &'a PassTimings,
}

/// Renders the report as a JSON document (trailing newline included).
pub fn render_json(r: &Report<'_>) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    let status = if r.rec.clean() { "clean" } else { "failed" };
    push_kv_str(&mut s, 1, "status", status, true);
    push_kv_num(&mut s, 1, "files_checked", r.files_checked, true);

    s.push_str("  \"violations\": {\n");
    push_kv_num(&mut s, 2, "total", r.violations_total, true);
    let allowed = r.violations_total.saturating_sub(r.rec.unallowed.len());
    push_kv_num(&mut s, 2, "allowed", allowed, true);
    s.push_str("    \"unallowed\": [");
    for (i, v) in r.rec.unallowed.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n      {\"file\": \"");
        s.push_str(&json_escape(&v.file));
        s.push_str("\", \"line\": ");
        s.push_str(&v.line.to_string());
        s.push_str(", \"rule\": \"");
        s.push_str(&json_escape(v.rule));
        s.push_str("\", \"message\": \"");
        s.push_str(&json_escape(&v.message));
        s.push_str("\"}");
    }
    if !r.rec.unallowed.is_empty() {
        s.push_str("\n    ");
    }
    s.push_str("],\n");
    s.push_str("    \"stale_budgets\": [");
    for (i, (entry, actual)) in r.rec.stale.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n      {\"file\": \"");
        s.push_str(&json_escape(&entry.file));
        s.push_str("\", \"rule\": \"");
        s.push_str(&json_escape(&entry.rule));
        s.push_str("\", \"max\": ");
        s.push_str(&entry.max.to_string());
        s.push_str(", \"actual\": ");
        s.push_str(&actual.to_string());
        s.push('}');
    }
    if !r.rec.stale.is_empty() {
        s.push_str("\n    ");
    }
    s.push_str("]\n  },\n");

    s.push_str("  \"budget\": {\n");
    push_kv_num(&mut s, 2, "entries", r.allow.entries.len(), true);
    push_kv_num(&mut s, 2, "total", r.allow.total_budget(), false);
    s.push_str("  },\n");

    s.push_str("  \"proto\": {\n");
    s.push_str("    \"error_code\": ");
    push_coverage(
        &mut s,
        r.proto.reply_found,
        &[
            ("variants", r.proto.reply_variants),
            ("constructed", r.proto.reply_constructed),
        ],
    );
    s.push_str("\n  },\n");

    s.push_str("  \"timings_us\": {\n");
    let t = r.timings;
    for (key, us, comma) in [
        ("lexical", t.lexical_us, true),
        ("parse", t.parse_us, true),
        ("summary", t.summary_us, true),
        ("flow", t.flow_us, true),
        ("taint", t.taint_us, true),
        ("reach", t.reach_us, true),
        ("conc", t.conc_us, true),
        ("lock_order", t.lock_order_us, true),
        ("total", t.total_us, false),
    ] {
        push_indent(&mut s, 2);
        s.push('"');
        s.push_str(key);
        s.push_str("\": ");
        s.push_str(&us.to_string());
        if comma {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  },\n");

    s.push_str("  \"rules\": [");
    for (i, id) in RULE_IDS.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push('"');
        s.push_str(id);
        s.push('"');
    }
    s.push_str("]\n}\n");
    s
}

/// Renders the run as a SARIF 2.1.0 log (trailing newline included).
///
/// Non-allowlisted violations surface as `error`-level results;
/// violations covered by an allowlist budget report as `note`, so a
/// code-scanning UI shows exactly the gate CI enforces.
pub fn render_sarif(violations: &[Violation], rec: &Reconciliation) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"bsa-lint\",\n");
    s.push_str("          \"rules\": [\n");
    for (i, id) in RULE_IDS.iter().enumerate() {
        s.push_str("            {\"id\": \"");
        s.push_str(id);
        s.push_str("\", \"shortDescription\": {\"text\": \"");
        s.push_str(&json_escape(rule_description(id)));
        s.push_str("\"}}");
        if i + 1 < RULE_IDS.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("          ]\n        }\n      },\n");
    s.push_str("      \"results\": [\n");
    // Consume one unallowed entry per matching violation so duplicate
    // findings on one line keep their levels balanced.
    let mut unallowed: Vec<&Violation> = rec.unallowed.iter().collect();
    for (i, v) in violations.iter().enumerate() {
        let level = match unallowed.iter().position(|u| {
            u.file == v.file && u.line == v.line && u.rule == v.rule && u.message == v.message
        }) {
            Some(pos) => {
                unallowed.swap_remove(pos);
                "error"
            }
            None => "note",
        };
        s.push_str("        {\"ruleId\": \"");
        s.push_str(&json_escape(v.rule));
        s.push_str("\", \"level\": \"");
        s.push_str(level);
        s.push_str("\", \"message\": {\"text\": \"");
        s.push_str(&json_escape(&v.message));
        s.push_str("\"}, \"locations\": [{\"physicalLocation\": ");
        s.push_str("{\"artifactLocation\": {\"uri\": \"");
        s.push_str(&json_escape(&v.file));
        s.push_str("\"}, \"region\": {\"startLine\": ");
        s.push_str(&v.line.max(1).to_string());
        s.push_str("}}}]}");
        if i + 1 < violations.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("      ]\n    }\n  ]\n}\n");
    s
}

fn push_kv_str(s: &mut String, indent: usize, key: &str, value: &str, comma: bool) {
    push_indent(s, indent);
    s.push('"');
    s.push_str(key);
    s.push_str("\": \"");
    s.push_str(&json_escape(value));
    s.push('"');
    if comma {
        s.push(',');
    }
    s.push('\n');
}

fn push_kv_num(s: &mut String, indent: usize, key: &str, value: usize, comma: bool) {
    push_indent(s, indent);
    s.push('"');
    s.push_str(key);
    s.push_str("\": ");
    s.push_str(&value.to_string());
    if comma {
        s.push(',');
    }
    s.push('\n');
}

fn push_indent(s: &mut String, indent: usize) {
    for _ in 0..indent {
        s.push_str("  ");
    }
}

fn push_coverage(s: &mut String, found: bool, fields: &[(&str, usize)]) {
    s.push_str("{\"found\": ");
    s.push_str(if found { "true" } else { "false" });
    for (k, v) in fields {
        s.push_str(", \"");
        s.push_str(k);
        s.push_str("\": ");
        s.push_str(&v.to_string());
    }
    s.push('}');
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let hi = (c as u32) >> 4;
                let lo = (c as u32) & 0xf;
                out.push(char::from_digit(hi, 16).unwrap_or('0'));
                out.push(char::from_digit(lo, 16).unwrap_or('0'));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allow::{reconcile, AllowEntry};
    use crate::rules::Violation;

    #[test]
    fn clean_report_renders_and_balances() {
        let rec = Reconciliation::default();
        let allow = Allowlist {
            entries: vec![AllowEntry {
                file: "crates/core/src/a.rs".to_string(),
                rule: "panic.indexing".to_string(),
                max: 3,
                reason: "bounds proven by construction".to_string(),
            }],
        };
        let proto = ProtoSummary {
            reply_found: true,
            reply_variants: 7,
            reply_constructed: 7,
        };
        let timings = PassTimings {
            lexical_us: 1200,
            total_us: 9000,
            ..PassTimings::default()
        };
        let json = render_json(&Report {
            files_checked: 42,
            violations_total: 3,
            rec: &rec,
            allow: &allow,
            proto: &proto,
            timings: &timings,
        });
        assert!(json.contains("\"status\": \"clean\""), "{json}");
        assert!(
            json.contains("\"error_code\": {\"found\": true, \"variants\": 7, \"constructed\": 7}"),
            "{json}"
        );
        assert!(json.contains("\"total\": 3"), "{json}");
        assert!(json.contains("\"lexical\": 1200"), "{json}");
        assert!(json.contains("\"total\": 9000"), "{json}");
        // Brackets and braces balance.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn sarif_levels_follow_the_allowlist() {
        let violations = vec![
            Violation {
                file: "crates/dsp/src/x.rs".to_string(),
                line: 7,
                rule: "panic.expect",
                message: "budgeted".to_string(),
            },
            Violation {
                file: "crates/link/src/y.rs".to_string(),
                line: 0,
                rule: "taint.wire-alloc",
                message: "a \"quoted\" size".to_string(),
            },
        ];
        let allow = Allowlist {
            entries: vec![AllowEntry {
                file: "crates/dsp/src/x.rs".to_string(),
                rule: "panic.expect".to_string(),
                max: 1,
                reason: "test".to_string(),
            }],
        };
        let rec = reconcile(&violations, &allow);
        let sarif = render_sarif(&violations, &rec);
        assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
        // Every rule id ships a driver entry.
        for id in RULE_IDS {
            assert!(sarif.contains(&format!("{{\"id\": \"{id}\"")), "{sarif}");
        }
        // The budgeted violation is a note, the wire finding an error.
        assert!(
            sarif.contains("\"ruleId\": \"panic.expect\", \"level\": \"note\""),
            "{sarif}"
        );
        assert!(
            sarif.contains("\"ruleId\": \"taint.wire-alloc\", \"level\": \"error\""),
            "{sarif}"
        );
        assert!(sarif.contains("\\\"quoted\\\" size"), "{sarif}");
        // Line 0 is clamped to SARIF's 1-based region.
        assert!(sarif.contains("\"startLine\": 1"), "{sarif}");
        let opens = sarif.matches(['{', '[']).count();
        let closes = sarif.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{sarif}");
    }

    #[test]
    fn failed_report_lists_unallowed_with_escaping() {
        let violations = vec![Violation {
            file: "crates/dsp/src/x.rs".to_string(),
            line: 7,
            rule: "panic.expect",
            message: "a \"quoted\"\nmessage".to_string(),
        }];
        let allow = Allowlist::default();
        let rec = reconcile(&violations, &allow);
        let json = render_json(&Report {
            files_checked: 1,
            violations_total: 1,
            rec: &rec,
            allow: &allow,
            proto: &ProtoSummary::default(),
            timings: &PassTimings::default(),
        });
        assert!(json.contains("\"status\": \"failed\""), "{json}");
        assert!(json.contains("\\\"quoted\\\"\\nmessage"), "{json}");
        assert!(json.contains("\"line\": 7"), "{json}");
    }
}
