//! The two lexical rule families: panic-freedom and unit-safety.
//!
//! Each pass walks the (test-stripped) token stream of one file and emits
//! [`Violation`]s. The passes are deliberately syntactic — they trade a
//! little precision for zero dependencies and total predictability. There
//! is no exception list: every finding fails `check` until the code
//! changes.

use crate::lexer::Token;
use crate::parser::{pub_before, signature, ParsedFile};
use std::fmt;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Stable rule identifier, e.g. `panic.expect`.
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
pub const RULE_IDS: &[&str] = &[
    "panic.expect",
    "panic.macro",
    "panic.indexing",
    "units.raw-f64",
    "conc.atomic-rmw",
    "conc.ordering",
    "conc.hold-and-block",
    "flow.unit",
    "conc.lock-order",
    "taint.wire-alloc",
    "taint.wire-arith",
];

/// One-line description per rule id, for `rules` output.
pub fn rule_description(id: &str) -> &'static str {
    match id {
        "panic.expect" => ".expect() in non-test library code",
        "panic.macro" => "panic!/unreachable!/todo!/unimplemented! in library code",
        "panic.indexing" => "direct slice indexing that can panic",
        "units.raw-f64" => "raw f64 where a bsa-units newtype exists",
        "conc.atomic-rmw" => "non-atomic read-modify-write on an atomic counter",
        "conc.ordering" => "inconsistent memory Ordering across uses of one atomic",
        "conc.hold-and-block" => "blocking call while holding a lock",
        "flow.unit" => "dimension-mixing assignment or sum found by unit dataflow",
        "conc.lock-order" => "lock/channel acquisition-order cycle (potential deadlock)",
        "taint.wire-alloc" => "wire-derived count reaches an allocation or loop bound unvalidated",
        "taint.wire-arith" => "overflowable arithmetic on wire-derived operands feeds a sink",
        _ => "unknown rule",
    }
}

/// Runs the per-file rules over one parsed file: `panic.*` over its site
/// table ([`ParsedFile::sites`]), and `units.raw-f64` when `unit_safety`
/// holds.
pub fn run_rules(tokens: &[Token], parsed: &ParsedFile, unit_safety: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    panic_pass(parsed, &mut out);
    if unit_safety {
        unit_pass(&parsed.path, tokens, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
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

// ---------------------------------------------------------------------------
// Family 1: panic-freedom
// ---------------------------------------------------------------------------

/// Keywords that, before `[`, mean the bracket is not an index expression
/// (array literals, slice types, generics positions, attribute openers).
const NON_INDEX_PREFIX_KEYWORDS: &[&str] = &[
    "let", "mut", "in", "if", "else", "match", "return", "as", "fn", "impl", "for", "while",
    "loop", "move", "ref", "pub", "use", "where", "break", "continue", "const", "static", "type",
    "struct", "enum", "trait", "unsafe", "dyn", "box", "await", "yield",
];

/// Panicking macros we flag. Plain `assert*!` are *not* flagged: they state
/// an invariant the caller already violated and are the idiomatic guard —
/// the rule targets implicit panics, not explicit contracts.
const FLAGGED_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One direct panic site: the single record of it that every pass reads
/// (see [`ParsedFile::sites`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based source line.
    pub line: usize,
    pub kind: PanicSite,
}

/// What a [`Site`] is. `.unwrap()` is not one: clippy's `unwrap_used`
/// reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicSite {
    /// `.expect(…)`: `panic.expect`.
    Expect,
    /// One of [`FLAGGED_MACROS`]: `panic.macro`.
    Macro(&'static str),
    /// A direct index expression: `panic.indexing`.
    Indexing,
}

/// Builds the site table of one file: every direct panic site in
/// `tokens`, in token order.
pub(crate) fn panic_sites(tokens: &[Token]) -> Vec<Site> {
    let mut sites = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        // `.expect(` at method position, a flagged macro, or direct
        // slice/array indexing: `expr[...]` where expr ends in an
        // identifier, `]` or `)`. `[..]` (full range) cannot panic and is
        // exempt; everything else (including partial ranges) can.
        let kind = if let Some(name) = t.ident() {
            let dotted = i
                .checked_sub(1)
                .and_then(|p| tokens.get(p))
                .is_some_and(|t| t.is_punct('.'));
            let called = matches!(tokens.get(i + 1), Some(t) if t.is_punct('('));
            let banged = matches!(tokens.get(i + 1), Some(t) if t.is_punct('!'));
            match name {
                "expect" if dotted && called => Some(PanicSite::Expect),
                _ if banged => FLAGGED_MACROS
                    .iter()
                    .find(|m| **m == name)
                    .map(|m| PanicSite::Macro(m)),
                _ => None,
            }
        } else if index_site(tokens, i) {
            Some(PanicSite::Indexing)
        } else {
            None
        };
        if let Some(kind) = kind {
            sites.push(Site { line: t.line, kind });
        }
    }
    sites
}

fn panic_pass(parsed: &ParsedFile, out: &mut Vec<Violation>) {
    for site in &parsed.sites {
        let (rule, message) = match site.kind {
            PanicSite::Expect => (
                "panic.expect",
                "`.expect()` in non-test library code; return a typed error instead".to_string(),
            ),
            PanicSite::Macro(name) => (
                "panic.macro",
                format!("`{name}!` in non-test library code; return a typed error instead"),
            ),
            PanicSite::Indexing => (
                "panic.indexing",
                "direct slice indexing can panic; use get()/get_mut(), iterators or slice \
                 patterns"
                    .to_string(),
            ),
        };
        out.push(violation(&parsed.path, site.line, rule, message));
    }
}

/// `true` when token `i` is a `[` opening a direct index expression.
fn index_site(tokens: &[Token], i: usize) -> bool {
    let Some(t) = tokens.get(i) else { return false };
    let Some(prev) = i.checked_sub(1).and_then(|p| tokens.get(p)) else {
        return false;
    };
    if !t.is_punct('[') {
        return false;
    }
    let indexes_expr = match prev.ident() {
        Some(name) => !NON_INDEX_PREFIX_KEYWORDS.contains(&name),
        None => prev.is_punct(']') || prev.is_punct(')'),
    };
    let full_range = tokens.get(i + 1).map(|t| t.is_punct('.')) == Some(true)
        && tokens.get(i + 2).map(|t| t.is_punct('.')) == Some(true)
        && tokens.get(i + 3).map(|t| t.is_punct(']')) == Some(true);
    indexes_expr && !full_range
}

// ---------------------------------------------------------------------------
// Family 2: unit-safety
// ---------------------------------------------------------------------------

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

/// Flags raw-`f64` parameters of `pub` fns whose names suggest a
/// dimensioned quantity.
fn unit_pass(file: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("fn") || !pub_before(tokens, i) {
            continue;
        }
        let Some(sig) = signature(tokens, i) else {
            continue;
        };
        for p in &sig.params {
            // Raw f64: the type tokens are exactly `f64` (no reference, no
            // generics — `&[f64]` sample buffers are fine, single scalars
            // are where the unit mixup hides).
            let raw_f64 =
                p.ty.len() == 1 && tokens.get(p.ty.start).is_some_and(|t| t.is_ident("f64"));
            let Some(unit) = suggested_unit_type(&p.name).filter(|_| raw_f64) else {
                continue;
            };
            out.push(violation(
                file,
                tokens.get(p.at).map_or(sig.line, |t| t.line),
                "units.raw-f64",
                format!(
                    "`pub fn {}` takes `{}: f64`; use `bsa_units::{unit}` so unit mixups fail \
                     to compile",
                    sig.name, p.name
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
        run_rules(&tokens, &parse_file("test.rs", &tokens), true)
    }

    fn rules_found(src: &str) -> Vec<&'static str> {
        check(src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_expect_only_as_method_calls() {
        assert_eq!(
            rules_found("fn f() { x.expect(\"msg\"); }"),
            vec!["panic.expect"]
        );
        assert!(rules_found("fn f(expect: u8) { let y = expect + 1; }").is_empty());
    }

    #[test]
    fn unwrap_is_left_to_clippy() {
        assert!(panic_sites(&lex("fn f() { x.unwrap(); }")).is_empty());
        let sites = panic_sites(&lex("fn f() { x.expect(\"m\"); }"));
        assert_eq!(
            sites,
            vec![Site {
                line: 1,
                kind: PanicSite::Expect
            }]
        );
    }

    #[test]
    fn flags_panicking_macros_but_not_asserts() {
        assert_eq!(
            rules_found("fn f() { panic!(\"boom\"); }"),
            vec!["panic.macro"]
        );
        assert_eq!(
            rules_found("fn f() { unreachable!(); }"),
            vec!["panic.macro"]
        );
        assert!(rules_found("fn f(n: usize) { assert!(n > 0); }").is_empty());
        assert!(rules_found("fn f(n: usize) { debug_assert_eq!(n, 1); }").is_empty());
    }

    #[test]
    fn flags_direct_indexing_but_not_array_literals_or_full_range() {
        assert_eq!(
            rules_found("fn f(x: &[f64]) { let v = x[3]; }"),
            vec!["panic.indexing"]
        );
        assert_eq!(
            rules_found("fn f(x: &[f64]) { let v = &x[1..4]; }"),
            vec!["panic.indexing"]
        );
        assert!(rules_found("fn f() { let a = [0u8; 4]; }").is_empty());
        assert!(rules_found("fn f(x: &[f64]) { let v = &x[..]; }").is_empty());
        assert!(rules_found("fn f(x: &[f64]) { let v = x.get(3); }").is_empty());
    }

    #[test]
    fn indexing_after_call_or_index_is_flagged() {
        assert_eq!(
            rules_found("fn f() { let v = g()[0]; }"),
            vec!["panic.indexing"]
        );
        assert_eq!(
            rules_found("fn f(m: &M) { let v = m.rows[0][1]; }"),
            vec!["panic.indexing", "panic.indexing"]
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            pub fn lib() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); y[0]; panic!(); }
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

    #[test]
    fn violations_are_sorted_by_line() {
        let src = "fn f(x: &[u8]) {\n x.expect(\"y\");\n let t = x[0];\n}";
        let v = check(src);
        assert_eq!(v.len(), 2);
        assert!(v[0].line < v[1].line);
    }
}
