//! `proto.error-reply` — every typed reply code is sendable.
//!
//! Every `ErrorCode` (the typed reply vocabulary `bsa-link` defines) must
//! actually be constructed somewhere in the station: a reply code nothing
//! can ever send is dead protocol surface. rustc's exhaustive `match`
//! cannot see this, because constructing a value is not matching on it.
//!
//! The rest of the protocol's coverage needs no lint: `Message` is
//! exhaustive, so the codec's `encode_payload`, the station's dispatch and
//! the `bsa-link` golden test (`tests/abi_lock.rs`) all fail to compile
//! when a variant lacks an arm, and that test roundtrips every variant
//! through `decode_payload`.
//!
//! Detection: the station — an outside consumer of the codec — always
//! writes the qualified pair `ErrorCode::Variant`, so a variant counts as
//! constructed when that pair appears anywhere in station source.

use crate::parser::ParsedFile;
use crate::rules::{violation, Violation};
use crate::workspace::SourceFile;
use std::collections::BTreeSet;

/// Which enum and file prefixes the pass checks. Parameterized so the
/// fixtures can exercise the pass on synthetic files.
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Files defining the reply enum (the codec crate).
    pub codec_prefix: &'static str,
    /// Files that must construct every reply code (the station).
    pub handler_prefix: &'static str,
    /// Typed reply code enum name (`ErrorCode`).
    pub reply_enum: &'static str,
}

impl ProtoConfig {
    /// The real workspace wiring.
    pub const WORKSPACE: Self = Self {
        codec_prefix: "crates/link/src/",
        handler_prefix: "crates/station/src/",
        reply_enum: "ErrorCode",
    };
}

/// Counts reported by the pass, surfaced in `check` output and the JSON
/// report so "7/7 constructed" is a visible assertion, not a silent pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtoSummary {
    /// `ErrorCode` enum located.
    pub reply_found: bool,
    /// Total `ErrorCode` variants.
    pub reply_variants: usize,
    /// Variants the station actually constructs.
    pub reply_constructed: usize,
}

/// Runs the reply-code check. `sources` and `parsed` must be index-aligned.
pub fn proto_pass(
    sources: &[SourceFile],
    parsed: &[ParsedFile],
    cfg: &ProtoConfig,
    out: &mut Vec<Violation>,
) -> ProtoSummary {
    let mut summary = ProtoSummary::default();
    let Some((file, e)) = find_enum(parsed, cfg.codec_prefix, cfg.reply_enum) else {
        return summary;
    };
    let handler_pairs = qualified_pairs(sources, cfg.handler_prefix);
    summary.reply_found = true;
    summary.reply_variants = e.variants.len();
    for v in &e.variants {
        if handler_pairs.contains(&(cfg.reply_enum.to_string(), v.name.clone())) {
            summary.reply_constructed += 1;
        } else {
            out.push(violation(
                file,
                v.line,
                "proto.error-reply",
                format!(
                    "`{}::{}` is never constructed under {} — the station can \
                     never send this reply code",
                    cfg.reply_enum, v.name, cfg.handler_prefix
                ),
            ));
        }
    }
    summary
}

/// Finds the named enum among files under `prefix`, returning its file
/// path and item.
fn find_enum<'a>(
    parsed: &'a [ParsedFile],
    prefix: &str,
    name: &str,
) -> Option<(&'a str, &'a crate::parser::EnumItem)> {
    parsed
        .iter()
        .filter(|pf| pf.path.starts_with(prefix))
        .find_map(|pf| {
            pf.enums
                .iter()
                .find(|e| e.name == name)
                .map(|e| (pf.path.as_str(), e))
        })
}

/// Collects every qualified `A::B` ident pair in token streams under
/// `prefix` (`::` lexes as two `:` puncts).
fn qualified_pairs(sources: &[SourceFile], prefix: &str) -> BTreeSet<(String, String)> {
    let mut pairs = BTreeSet::new();
    for s in sources.iter().filter(|s| s.path.starts_with(prefix)) {
        for (i, t) in s.tokens.iter().enumerate() {
            let Some(a) = t.ident() else { continue };
            let colons = matches!(s.tokens.get(i + 1), Some(t) if t.is_punct(':'))
                && matches!(s.tokens.get(i + 2), Some(t) if t.is_punct(':'));
            if !colons {
                continue;
            }
            if let Some(b) = s.tokens.get(i + 3).and_then(|t| t.ident()) {
                pairs.insert((a.to_string(), b.to_string()));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};
    use crate::parser::parse_file;

    fn run(files: &[(&str, &str)]) -> (Vec<Violation>, ProtoSummary) {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile {
                path: path.to_string(),
                tokens: strip_test_code(&lex(src)),
            })
            .collect();
        let parsed: Vec<ParsedFile> = sources
            .iter()
            .map(|s| parse_file(&s.path, &s.tokens))
            .collect();
        let mut out = Vec::new();
        let summary = proto_pass(&sources, &parsed, &ProtoConfig::WORKSPACE, &mut out);
        (out, summary)
    }

    #[test]
    fn constructed_reply_codes_are_counted_not_flagged() {
        let codec = "pub enum ErrorCode { BadRequest, Internal }";
        let station = r#"
            pub fn handle(msg: Message) -> Message {
                match msg {
                    Message::Ping => Message::Pong,
                    other => reply(ErrorCode::BadRequest),
                }
            }
            pub fn internal() -> ErrorCode { ErrorCode::Internal }
        "#;
        let (v, s) = run(&[
            ("crates/link/src/message.rs", codec),
            ("crates/station/src/session.rs", station),
        ]);
        assert!(s.reply_found);
        assert_eq!((s.reply_variants, s.reply_constructed), (2, 2));
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn unconstructed_reply_code_is_flagged() {
        let codec = r#"
            pub enum ErrorCode { BadRequest, NeverBuilt }
        "#;
        // A codec-side mention does not count: only the station sends.
        let codec_use = "fn f() -> ErrorCode { ErrorCode::NeverBuilt }";
        let station = "pub fn h() -> ErrorCode { ErrorCode::BadRequest }";
        let (v, s) = run(&[
            ("crates/link/src/message.rs", codec),
            ("crates/link/src/wire.rs", codec_use),
            ("crates/station/src/session.rs", station),
        ]);
        assert_eq!((s.reply_variants, s.reply_constructed), (2, 1));
        assert_eq!(v.len(), 1, "{v:#?}");
        let f = v.first().expect("one");
        assert_eq!(f.rule, "proto.error-reply");
        assert!(f.message.contains("NeverBuilt"), "{}", f.message);
    }

    #[test]
    fn absent_enum_leaves_summary_unfound_without_violations() {
        let (v, s) = run(&[("crates/core/src/lib.rs", "pub fn f() {}")]);
        assert!(!s.reply_found);
        assert!(v.is_empty(), "{v:#?}");
    }
}
