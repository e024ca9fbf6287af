//! The signature rule, `units.raw-f64`, and the [`Violation`] type every
//! rule reports.
//!
//! The pass reads one file's test-stripped token stream and its parse
//! ([`ParsedFile`]). It is deliberately syntactic: it trades a little
//! precision for zero dependencies and total predictability. There is no
//! exception list: every finding fails `check` until the code changes.

use crate::lexer::Token;
use crate::parser::ParsedFile;
use std::fmt;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Stable rule identifier, e.g. `units.raw-f64`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// All stable rule identifiers, for the `rules` listing.
pub const RULE_IDS: &[&str] = &["units.raw-f64", "flow.unit"];

/// One-line description per rule id, for `rules` output.
pub fn rule_description(id: &str) -> &'static str {
    match id {
        "units.raw-f64" => "raw f64 where a bsa-units newtype exists",
        "flow.unit" => "dimension-mixing assignment or sum found by unit dataflow",
        _ => "unknown rule",
    }
}

pub(crate) fn violation(
    file: &str,
    line: usize,
    rule: &'static str,
    message: impl Into<String>,
) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        rule,
        message: message.into(),
    }
}

/// Maps a parameter name to the `bsa-units` newtype it should use, if the
/// name suggests a dimensioned quantity.
pub fn suggested_unit_type(name: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    let l = lower.as_str();
    // Frequencies: sampling rates, corner frequencies, band edges.
    if matches!(l, "fs" | "fc" | "f0" | "f_lo" | "f_hi" | "f_low" | "f_high")
        || l.contains("freq")
        || l.ends_with("_hz")
    {
        return Some("Hertz");
    }
    if l.contains("volt") || l.ends_with("_v") || l == "vdd" || l == "vref" {
        return Some("Volt");
    }
    if l.contains("current") || l.ends_with("_amp") || l.ends_with("_amps") || l.ends_with("_a") {
        return Some("Ampere");
    }
    if l == "dt"
        || l.ends_with("_s")
        || l.ends_with("_sec")
        || l.ends_with("_seconds")
        || l.contains("duration")
        || l.contains("period")
        || l == "time"
        || l.ends_with("_time")
    {
        return Some("Seconds");
    }
    None
}

/// `units.raw-f64`: flags the raw-`f64` parameters of one file's `pub`
/// fns whose names suggest a dimensioned quantity.
pub fn raw_f64_pass(tokens: &[Token], parsed: &ParsedFile, out: &mut Vec<Violation>) {
    for f in parsed.fns.iter().filter(|f| f.is_pub) {
        for p in &f.params {
            // Raw f64: the type tokens are exactly `f64` (no reference, no
            // generics — `&[f64]` sample buffers are fine, single scalars
            // are where the unit mixup hides).
            let raw_f64 =
                p.ty.len() == 1 && tokens.get(p.ty.start).is_some_and(|t| t.is_ident("f64"));
            let Some(unit) = suggested_unit_type(&p.name).filter(|_| raw_f64) else {
                continue;
            };
            out.push(violation(
                &parsed.path,
                tokens.get(p.at).map_or(f.line, |t| t.line),
                "units.raw-f64",
                format!(
                    "`pub fn {}` takes `{}: f64`; use `bsa_units::{unit}` so unit mixups fail \
                     to compile",
                    f.name, p.name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};
    use crate::parser::parse_file;

    fn check(src: &str) -> Vec<Violation> {
        let tokens = strip_test_code(&lex(src));
        let mut out = Vec::new();
        raw_f64_pass(&tokens, &parse_file("test.rs", &tokens), &mut out);
        out
    }

    fn rules_found(src: &str) -> Vec<&'static str> {
        check(src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            pub fn lib() {}
            #[cfg(test)]
            mod tests {
                pub fn t(dt: f64) {}
            }
        "#;
        assert!(rules_found(src).is_empty());
    }

    #[test]
    fn flags_raw_f64_frequency_param() {
        let v = check("pub fn lowpass(fc: f64, fs: f64) -> Biquad { todo() }");
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "units.raw-f64"));
        assert!(v[0].message.contains("Hertz"));
    }

    #[test]
    fn flags_raw_f64_voltage_and_current_and_time() {
        assert_eq!(
            rules_found("pub fn set_bias(bias_voltage: f64) {}"),
            vec!["units.raw-f64"]
        );
        assert_eq!(
            rules_found("pub fn drive(current_a: f64) {}"),
            vec!["units.raw-f64"]
        );
        assert_eq!(
            rules_found("pub fn step(dt: f64) {}"),
            vec!["units.raw-f64"]
        );
    }

    #[test]
    fn newtyped_and_slice_and_private_params_are_fine() {
        assert!(rules_found("pub fn lowpass(fc: Hertz, fs: Hertz) {}").is_empty());
        assert!(rules_found("pub fn mean(samples: &[f64]) -> f64 { 0.0 }").is_empty());
        assert!(rules_found("fn helper(fs: f64) {}").is_empty());
        assert!(rules_found("pub fn scale(gain: f64) {}").is_empty());
    }

    #[test]
    fn pub_crate_fns_are_checked_too() {
        assert_eq!(
            rules_found("pub(crate) fn tick(dt: f64) {}"),
            vec!["units.raw-f64"]
        );
    }

    #[test]
    fn generic_fn_params_are_parsed() {
        assert_eq!(
            rules_found("pub fn f<T: Into<Vec<u8>>>(x: T, fs: f64) {}"),
            vec!["units.raw-f64"]
        );
    }
}
