//! A lightweight item parser over the lexer's token stream.
//!
//! Extracts just enough structure for the rules, one file at a time:
//! function items (with their visibility, typed parameters, body extent
//! and lowered body statements — see [`crate::syntax`]) and the file's
//! direct index sites. It is *not* a Rust parser — expressions are never
//! built, and exotic shapes (const-generic braces before a body) are
//! knowingly approximated. In exchange the whole analyzer stays
//! dependency-free.
//!
//! [`ParsedFile::sites`] is the site table that `panic.indexing` reads.
//!
//! Like the rule passes, this module practises what bsa-lint preaches:
//! every token access is bounds-checked (`get`), so a degenerate token
//! stream can produce a wrong parse but never a panic.

use crate::lexer::{Token, TokenKind};
use crate::rules::index_sites;
use crate::syntax::{depth0, lower, lower_params, matching, skip_angles, tok_punct, Param, Stmt};
use std::ops::Range;

/// Parsed structure of one source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Every `fn` item with a body, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// The 1-based line of every direct index expression in the file,
    /// inside fn bodies or not, in token order.
    pub sites: Vec<usize>,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `pub` / `pub(crate)` / `pub(in …)` visibility.
    pub is_pub: bool,
    /// 1-based line of the function name.
    pub line: usize,
    /// Token-index range of the body, including both braces.
    pub body: Range<usize>,
    /// Argument-position parameters (a `self` receiver is not one).
    pub params: Vec<Param>,
    /// The body's lowered statements, in token order (nested fns'
    /// statements included).
    pub stmts: Vec<Stmt>,
}

/// Parses one (test-stripped) token stream into items.
pub fn parse_file(path: &str, tokens: &[Token]) -> ParsedFile {
    ParsedFile {
        path: path.to_string(),
        fns: fn_items(tokens),
        sites: index_sites(tokens),
    }
}

// ---------------------------------------------------------------------------
// fn items
// ---------------------------------------------------------------------------

fn fn_items(tokens: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens.get(i).is_some_and(|t| t.is_ident("fn")) {
            if let Some(item) = parse_fn(tokens, i) {
                // Descend into the body so nested fns are found too.
                i = item.body.start + 1;
                fns.push(item);
                continue;
            }
        }
        i += 1;
    }
    fns
}

/// A fn signature up to the end of its parameter list.
struct Signature {
    name: String,
    /// 1-based line of the name.
    line: usize,
    params: Vec<Param>,
    /// One past the parameter list's `)`.
    end: usize,
}

/// Parses `fn name<…>(…)` starting at the `fn` keyword.
fn signature(tokens: &[Token], fn_idx: usize) -> Option<Signature> {
    let name_tok = tokens.get(fn_idx + 1)?;
    let mut open = fn_idx + 2;
    if tok_punct(tokens, open, '<') {
        open = skip_angles(tokens, open)?;
    }
    let close = matching(tokens, open).filter(|_| tok_punct(tokens, open, '('))?;
    Some(Signature {
        name: name_tok.ident()?.to_string(),
        line: name_tok.line,
        params: lower_params(tokens, open, close),
        end: close + 1,
    })
}

/// Parses one `fn name…(…) … { … }` starting at the `fn` keyword.
/// Returns `None` for bodyless declarations (trait methods, `extern`).
fn parse_fn(tokens: &[Token], fn_idx: usize) -> Option<FnItem> {
    let sig = signature(tokens, fn_idx)?;
    // Return type and where clause: the body `{` (or `;` for a
    // declaration) at bracket depth 0. Braces cannot appear before the
    // body in the shapes this workspace uses.
    let body_open = depth0(tokens, sig.end..tokens.len())
        .find(|&j| tok_punct(tokens, j, '{') || tok_punct(tokens, j, ';'))
        .filter(|&j| tok_punct(tokens, j, '{'))?;
    let body = body_open..matching(tokens, body_open)? + 1;
    let stmts = lower(tokens, &body);
    Some(FnItem {
        name: sig.name,
        is_pub: pub_before(tokens, fn_idx),
        line: sig.line,
        body,
        params: sig.params,
        stmts,
    })
}

/// `true` if the item keyword at `item_idx` is preceded by `pub` (with any
/// visibility restriction and any fn qualifiers in between).
fn pub_before(tokens: &[Token], item_idx: usize) -> bool {
    let mut j = item_idx;
    loop {
        let Some(prev) = j.checked_sub(1) else {
            return false;
        };
        let Some(t) = tokens.get(prev) else {
            return false;
        };
        match t.ident() {
            Some("const" | "unsafe" | "async" | "extern") => {
                j = prev;
            }
            Some("pub") => return true,
            Some(_) => return false,
            None => match &t.kind {
                // The "C" in `extern "C"`.
                TokenKind::Literal => {
                    j = prev;
                }
                TokenKind::Punct(')') => {
                    // Possible `pub(crate)` / `pub(in …)` restriction:
                    // walk back to the matching `(` and check for `pub`.
                    return pub_before_restriction(tokens, prev);
                }
                _ => return false,
            },
        }
    }
}

fn pub_before_restriction(tokens: &[Token], close_idx: usize) -> bool {
    let mut depth = 0usize;
    let mut k = close_idx;
    loop {
        let Some(t) = tokens.get(k) else {
            return false;
        };
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k
                    .checked_sub(1)
                    .and_then(|p| tokens.get(p))
                    .is_some_and(|t| t.is_ident("pub"));
            }
        }
        let Some(prev) = k.checked_sub(1) else {
            return false;
        };
        k = prev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};

    fn parse(src: &str) -> ParsedFile {
        parse_file("test.rs", &strip_test_code(&lex(src)))
    }

    #[test]
    fn finds_free_and_impl_fns_with_visibility() {
        let src = r#"
            pub fn free(x: u8) -> u8 { helper(x) }
            fn helper(x: u8) -> u8 { x }
            struct Chip;
            impl Chip {
                pub fn new() -> Self { Chip }
                fn tick(&mut self, dt: f64) { Self::check(); }
            }
            impl Default for Chip {
                fn default() -> Self { Chip::new() }
            }
        "#;
        let p = parse(src);
        let fns: Vec<(&str, bool, usize)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.params.len()))
            .collect();
        assert_eq!(
            fns,
            vec![
                ("free", true, 1),
                ("helper", false, 1),
                ("new", true, 0),
                ("tick", false, 1),
                ("default", false, 0),
            ]
        );
    }

    #[test]
    fn pub_crate_and_qualifiers_are_detected() {
        let p = parse("pub(crate) const unsafe fn f() {}\npub(in crate::x) fn g() {}\nfn h() {}");
        let pubs: Vec<bool> = p.fns.iter().map(|f| f.is_pub).collect();
        assert_eq!(pubs, vec![true, true, false]);
    }

    #[test]
    fn trait_method_declarations_have_no_body_and_are_skipped() {
        let src = r#"
            trait T {
                fn decl(&self) -> u8;
                fn provided(&self) -> u8 { 1 }
            }
        "#;
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["provided"]);
    }

    #[test]
    fn nested_fns_are_items_inside_their_parent() {
        let src = r#"
            fn outer() {
                fn inner() { deep(); }
                shallow();
            }
        "#;
        let p = parse(src);
        let [outer, inner] = p.fns.as_slice() else {
            panic!("two fns: {:?}", p.fns);
        };
        assert_eq!(
            (outer.name.as_str(), inner.name.as_str()),
            ("outer", "inner")
        );
        assert!(outer.body.start < inner.body.start && inner.body.end < outer.body.end);
    }

    #[test]
    fn site_table_covers_every_token() {
        let src = "const K: u8 = T[1];\nfn f(a: &[u8], b: &[usize], i: usize) -> u8 { a[b[i]] }";
        let p = parse(src);
        assert_eq!(p.sites, vec![1, 2, 2]);
    }

    #[test]
    fn test_code_is_stripped_before_parsing() {
        let src = r#"
            pub fn keep() {}
            #[cfg(test)]
            mod tests {
                fn dropped() { gone(); }
            }
        "#;
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns.first().map(|f| f.name.as_str()), Some("keep"));
    }

    #[test]
    fn arrow_in_return_type_does_not_break_generics() {
        let src = "pub fn apply<F: Fn(u8) -> u8>(f: F) -> u8 { f(1) }";
        let p = parse(src);
        let f = p.fns.first().expect("fn");
        assert_eq!(f.name, "apply");
        assert_eq!(f.params.len(), 1);
    }

    #[test]
    fn degenerate_streams_do_not_panic() {
        for src in [
            "fn", "fn (", "impl {", "enum", "enum E {", "fn f(", "impl X",
        ] {
            let _ = parse(src);
        }
    }
}
