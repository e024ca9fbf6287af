//! The per-file rules: panic-freedom, unit-safety and, in the serving
//! crates, blocking under a lock.
//!
//! Each pass reads one file's test-stripped token stream and its parse
//! ([`ParsedFile`]) and emits [`Violation`]s. The passes are deliberately
//! syntactic — they trade a little precision for zero dependencies and
//! total predictability. There is no exception list: every finding fails
//! `check` until the code changes.

use crate::lexer::Token;
use crate::parser::ParsedFile;
use crate::syntax::{matching, tok_ident, tok_punct};
use crate::workspace::serving;
use std::fmt;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Stable rule identifier, e.g. `panic.indexing`.
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
    "panic.indexing",
    "panic.allow",
    "units.raw-f64",
    "flow.unit",
    "conc.hold-and-block",
];

/// One-line description per rule id, for `rules` output.
pub fn rule_description(id: &str) -> &'static str {
    match id {
        "panic.indexing" => "direct slice indexing that can panic",
        "panic.allow" => "allow/expect/warn of a clippy panic lint in library code",
        "units.raw-f64" => "raw f64 where a bsa-units newtype exists",
        "flow.unit" => "dimension-mixing assignment or sum found by unit dataflow",
        "conc.hold-and-block" => "blocking call while holding a lock, in the serving crates",
        _ => "unknown rule",
    }
}

/// Runs the per-file rules over one parsed file: `panic.indexing` over
/// its site table ([`ParsedFile::sites`]), `panic.allow` over its
/// attributes, `units.raw-f64` over its `pub` fns when `unit_safety`
/// holds, and `conc.hold-and-block` over its fn bodies when its path is
/// in a serving crate.
pub fn run_rules(tokens: &[Token], parsed: &ParsedFile, unit_safety: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    panic_pass(tokens, parsed, &mut out);
    if unit_safety {
        unit_pass(tokens, parsed, &mut out);
    }
    if serving(&parsed.path) {
        hold_and_block_pass(tokens, parsed, &mut out);
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

/// Builds the site table of one file: the line of every direct index
/// expression in `tokens`, in token order.
pub(crate) fn index_sites(tokens: &[Token]) -> Vec<usize> {
    (0..tokens.len())
        .filter(|&i| index_site(tokens, i))
        .filter_map(|i| tokens.get(i).map(|t| t.line))
        .collect()
}

/// The lints that keep panics out of library code: clippy's six panic
/// lints, which `[workspace.lints.clippy]` sets to `warn`, and the
/// `restriction` group that holds them.
const CLIPPY_PANIC_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "unimplemented",
    "todo",
    "restriction",
];

fn panic_pass(tokens: &[Token], parsed: &ParsedFile, out: &mut Vec<Violation>) {
    for &line in &parsed.sites {
        out.push(violation(
            &parsed.path,
            line,
            "panic.indexing",
            "direct slice indexing can panic; use get()/get_mut(), iterators or slice patterns",
        ));
    }
    for (i, t) in tokens.iter().enumerate().filter(|(_, t)| t.is_punct('#')) {
        if silences_panic_lint(tokens, i) {
            out.push(violation(
                &parsed.path,
                t.line,
                "panic.allow",
                "attribute silences a clippy panic lint in library code; clippy is the only \
                 gate on `.unwrap()`, `.expect()` and panicking macros, with no exceptions",
            ));
        }
    }
}

/// `true` when token `i` starts an attribute (`#[…]` or `#![…]`) whose
/// `allow`, `expect` or `warn` names `warnings` or `clippy::` one of
/// [`CLIPPY_PANIC_LINTS`]. `cfg_attr(test, …)` applies to test builds
/// only and is exempt.
fn silences_panic_lint(tokens: &[Token], i: usize) -> bool {
    let open = i + 1 + usize::from(tok_punct(tokens, i + 1, '!'));
    if !tok_punct(tokens, i, '#') || !tok_punct(tokens, open, '[') {
        return false;
    }
    let group = |open| matching(tokens, open).and_then(|close| tokens.get(open + 1..close));
    let Some(attr) = group(open) else {
        return false;
    };
    let levels = (0..attr.len())
        .filter(|&k| matches!(tok_ident(attr, k), Some("allow" | "expect" | "warn")))
        .filter_map(|k| group(open + 2 + k));
    let silenced = |lint: &[Token]| match lint {
        [warnings] => warnings.is_ident("warnings"),
        [clippy, _, _, name] => {
            clippy.is_ident("clippy") && CLIPPY_PANIC_LINTS.iter().any(|n| name.is_ident(n))
        }
        _ => false,
    };
    let test_only = matches!(attr, [c, _, t, ..] if c.is_ident("cfg_attr") && t.is_ident("test"));
    !test_only
        && levels
            .flat_map(|l| l.split(|t| t.is_punct(',')))
            .any(silenced)
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
fn unit_pass(tokens: &[Token], parsed: &ParsedFile, out: &mut Vec<Violation>) {
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

// ---------------------------------------------------------------------------
// Family 3: blocking under a lock
// ---------------------------------------------------------------------------

/// Calls that block the current thread: the socket, channel and thread
/// APIs this workspace uses. `try_send` and `try_recv` never block.
const BLOCKING_CALLS: &[&str] = &[
    "write_all",
    "write_message",
    "read_message",
    "read_exact",
    "read_to_end",
    "recv",
    "recv_timeout",
    "send",
    "join",
    "accept",
    "flush",
    "wait",
    "wait_timeout",
    "park",
    "sleep",
];

/// `conc.hold-and-block`: a call named in [`BLOCKING_CALLS`] after a
/// `.lock(` in the same fn body stalls every thread contending for that
/// lock. A guard is taken to live to the end of the body; a nested fn's
/// body is checked on its own.
fn hold_and_block_pass(tokens: &[Token], parsed: &ParsedFile, out: &mut Vec<Violation>) {
    for f in &parsed.fns {
        let nested: Vec<_> = (parsed.fns.iter())
            .map(|g| &g.body)
            .filter(|b| b.start > f.body.start && b.end <= f.body.end)
            .collect();
        let calls = f
            .body
            .clone()
            .filter(|k| !nested.iter().any(|b| b.contains(k)));
        let mut locked = false;
        for k in calls.filter(|&k| tok_punct(tokens, k + 1, '(')) {
            let Some(name) = tok_ident(tokens, k) else {
                continue;
            };
            if name == "lock" && tok_punct(tokens, k.wrapping_sub(1), '.') {
                locked = true;
            } else if locked
                && BLOCKING_CALLS.contains(&name)
                && tok_ident(tokens, k.wrapping_sub(1)) != Some("fn")
            {
                out.push(violation(
                    &parsed.path,
                    tokens.get(k).map_or(f.line, |t| t.line),
                    "conc.hold-and-block",
                    format!(
                        "blocking call `{name}` after `.lock()` in the same fn; \
                         drop the guard (or clone the data out) before blocking"
                    ),
                ));
            }
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
    fn unwrap_expect_and_macros_are_left_to_clippy() {
        let src = "fn f(n: u8) { x.unwrap(); x.expect(\"m\"); panic!(); todo!(); assert!(n > 0); }";
        assert!(rules_found(src).is_empty());
        assert!(index_sites(&lex(src)).is_empty());
    }

    #[test]
    fn flags_attributes_that_silence_a_panic_lint() {
        for attr in [
            "#[allow(clippy::expect_used)]",
            "#[expect(clippy::panic, reason = \"startup\")]",
            "#[warn(clippy::unwrap_used)]",
            "#[allow(dead_code, clippy::unreachable)]",
            "#[allow(clippy::restriction)]",
            "#[allow(warnings)]",
            "#![allow(clippy::todo)]",
            "#[cfg_attr(not(test), allow(clippy::unimplemented))]",
            "#[cfg_attr(any(test, doc), allow(clippy::expect_used))]",
        ] {
            let src = format!("{attr}\nfn f() {{}}");
            assert_eq!(rules_found(&src), vec!["panic.allow"], "{attr}");
        }
        for attr in [
            "#[cfg_attr(test, allow(clippy::expect_used))]",
            "#![cfg_attr(test, allow(clippy::unwrap_used, clippy::panic))]",
            "#[allow(clippy::too_many_arguments)]",
            "#[allow(clippy::panic_in_result_fn)]",
            "#[deny(clippy::expect_used)]",
            "#[doc = \"allow(clippy::expect_used)\"]",
        ] {
            let src = format!("{attr}\nfn f() {{}}");
            assert!(rules_found(&src).is_empty(), "{attr}");
        }
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

    fn serving_rules(src: &str) -> Vec<(usize, &'static str)> {
        let tokens = strip_test_code(&lex(src));
        let parsed = parse_file("crates/station/src/test.rs", &tokens);
        let found = run_rules(&tokens, &parsed, false);
        found.into_iter().map(|v| (v.line, v.rule)).collect()
    }

    #[test]
    fn blocking_call_under_lock_is_flagged() {
        let src = "fn broadcast(&self, msg: &[u8]) {\n\
                   let peers = self.peers.lock();\n\
                   for p in peers.iter() { p.write_all(msg); }\n\
                   thread::sleep(PAUSE);\n}";
        let found = serving_rules(src);
        assert_eq!(
            found,
            [(3, "conc.hold-and-block"), (4, "conc.hold-and-block")]
        );
    }

    #[test]
    fn blocking_before_lock_without_lock_or_outside_serving_is_fine() {
        let src = r#"
            fn ok(&self, msg: &[u8]) {
                self.stream.write_all(msg);
                let n = self.peers.lock();
                self.tx.try_send(n.len());
            }
            fn plain(&self, msg: &[u8]) { self.stream.write_all(msg); }
            fn outer(&self) {
                let g = self.peers.lock();
                fn send(out: &mut Out) { out.flush(); }
            }
        "#;
        assert!(serving_rules(src).is_empty());
        let src = "fn f(&self) { let g = self.peers.lock(); self.tx.send(1); }";
        assert!(
            rules_found(src).is_empty(),
            "test.rs is not a serving crate"
        );
    }

    #[test]
    fn violations_are_sorted_by_line() {
        let src = "fn f(x: &[u8]) {\n #[allow(warnings)]\n let t = x[0];\n}";
        let v = check(src);
        assert_eq!(v.len(), 2);
        assert!(v[0].line < v[1].line);
    }
}
