//! `--format json`: the machine-readable report CI uploads.
//!
//! Rendered by hand (the workspace vendors no serde); the schema is flat
//! and stable so the CI job can diff `lint-report.json` across commits.

use crate::rules::{Violation, RULE_IDS};
use crate::workspace::PassTimings;

/// Everything one `check` run produces.
#[derive(Debug)]
pub struct Report<'a> {
    /// Files scanned.
    pub files_checked: usize,
    /// Every violation; any one fails the check.
    pub violations: &'a [Violation],
    /// Per-pass elapsed wall-clock.
    pub timings: &'a PassTimings,
}

/// Renders the report as a JSON document (trailing newline included).
pub fn render_json(r: &Report<'_>) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    let status = if r.violations.is_empty() {
        "clean"
    } else {
        "failed"
    };
    push_kv_str(&mut s, 1, "status", status, true);
    push_kv_num(&mut s, 1, "files_checked", r.files_checked, true);

    s.push_str("  \"violations\": [");
    for (i, v) in r.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"file\": \"");
        s.push_str(&json_escape(&v.file));
        s.push_str("\", \"line\": ");
        s.push_str(&v.line.to_string());
        s.push_str(", \"rule\": \"");
        s.push_str(&json_escape(v.rule));
        s.push_str("\", \"message\": \"");
        s.push_str(&json_escape(&v.message));
        s.push_str("\"}");
    }
    if !r.violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");

    s.push_str("  \"timings_us\": {\n");
    let t = r.timings;
    for (key, us, comma) in [
        ("lexical", t.lexical_us, true),
        ("parse", t.parse_us, true),
        ("flow", t.flow_us, true),
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

    #[test]
    fn clean_report_renders_and_balances() {
        let timings = PassTimings {
            lexical_us: 1200,
            total_us: 9000,
            ..PassTimings::default()
        };
        let json = render_json(&Report {
            files_checked: 42,
            violations: &[],
            timings: &timings,
        });
        assert!(json.contains("\"status\": \"clean\""), "{json}");
        assert!(json.contains("\"files_checked\": 42"), "{json}");
        assert!(json.contains("\"violations\": []"), "{json}");
        assert!(json.contains("\"lexical\": 1200"), "{json}");
        assert!(json.contains("\"total\": 9000"), "{json}");
        // Brackets and braces balance.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn any_violation_fails_the_report_with_escaping() {
        let violations = vec![Violation {
            file: "crates/dsp/src/x.rs".to_string(),
            line: 7,
            rule: "flow.unit",
            message: "a \"quoted\"\nmessage".to_string(),
        }];
        let json = render_json(&Report {
            files_checked: 1,
            violations: &violations,
            timings: &PassTimings::default(),
        });
        assert!(json.contains("\"status\": \"failed\""), "{json}");
        assert!(json.contains("\\\"quoted\\\"\\nmessage"), "{json}");
        assert!(json.contains("\"line\": 7"), "{json}");
    }
}
