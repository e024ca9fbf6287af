//! A lightweight item parser over the lexer's token stream.
//!
//! Extracts just enough structure for the semantic passes: function items
//! (with their `impl` qualification, visibility and body extent), call
//! sites inside those bodies, and enum definitions with their variants.
//! It is *not* a Rust parser — expressions are never built, and a handful
//! of exotic shapes (turbofish calls, tuple-type impls, const-generic
//! braces) are knowingly approximated; DESIGN.md §9.2 lists them. In
//! exchange the whole analyzer stays dependency-free.
//!
//! Like the rule passes, this module practises what bsa-lint preaches:
//! every token access is bounds-checked (`get`), so a degenerate token
//! stream can produce a wrong parse but never a panic.

use crate::lexer::{Token, TokenKind};
use std::ops::Range;

/// Parsed structure of one source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Every `fn` item with a body, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Every `enum` item, in source order.
    pub enums: Vec<EnumItem>,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `Type::name` when defined inside `impl Type` (or `impl Trait for
    /// Type`), otherwise the bare name.
    pub qualified: String,
    /// `pub` / `pub(crate)` / `pub(in …)` visibility.
    pub is_pub: bool,
    /// 1-based line of the function name.
    pub line: usize,
    /// Token-index range of the signature: from the `fn` keyword up to
    /// (excluding) the body's opening brace — name, generics, parameter
    /// list, return type and where clause.
    pub sig: Range<usize>,
    /// Token-index range of the body, including both braces.
    pub body: Range<usize>,
    /// Call sites inside the body (attributed to the innermost fn).
    pub calls: Vec<CallSite>,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (last path segment).
    pub callee: String,
    /// The path segment before `::`, with `Self` resolved to the
    /// enclosing impl type. `None` for bare and method calls.
    pub qualifier: Option<String>,
    /// `true` for `receiver.callee(…)` method syntax.
    pub is_method: bool,
    /// 1-based line of the callee token.
    pub line: usize,
}

/// One enum definition.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// `pub` visibility.
    pub is_pub: bool,
    /// 1-based line of the enum name.
    pub line: usize,
    /// Variants in declaration order.
    pub variants: Vec<Variant>,
}

/// One enum variant.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant name.
    pub line: usize,
}

/// Parses a (test-stripped) token stream into items.
pub fn parse_file(path: &str, tokens: &[Token]) -> ParsedFile {
    let impls = impl_regions(tokens);
    let mut fns = fn_items(tokens, &impls);
    attribute_calls(tokens, &impls, &mut fns);
    let enums = enum_items(tokens);
    ParsedFile {
        path: path.to_string(),
        fns,
        enums,
    }
}

// ---------------------------------------------------------------------------
// impl blocks
// ---------------------------------------------------------------------------

/// An `impl` block: its body extent and the `Self` type name.
struct ImplRegion {
    body: Range<usize>,
    self_type: String,
}

fn impl_regions(tokens: &[Token]) -> Vec<ImplRegion> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens.get(i).is_some_and(|t| t.is_ident("impl")) {
            if let Some((region, resume)) = parse_impl_header(tokens, i) {
                regions.push(region);
                // Resume just inside the body so nothing is skipped (impls
                // do not nest, but fns inside must still be visible).
                i = resume;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// Parses one `impl … {` header starting at the `impl` keyword. The self
/// type is the last path ident at angle-depth 0 — after `for` when the
/// block is a trait impl — with the `where` clause ignored.
fn parse_impl_header(tokens: &[Token], start: usize) -> Option<(ImplRegion, usize)> {
    let mut j = start + 1;
    let mut angle = 0usize;
    let mut self_type: Option<String> = None;
    let mut in_where = false;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !is_arrow(tokens, j) {
            angle = angle.saturating_sub(1);
        } else if angle == 0 {
            if t.is_punct('{') {
                let close = matching_brace(tokens, j)?;
                return Some((
                    ImplRegion {
                        body: j..close + 1,
                        self_type: self_type?,
                    },
                    j + 1,
                ));
            }
            if t.is_punct(';') {
                return None;
            }
            if t.is_ident("where") {
                in_where = true;
            } else if !in_where {
                if t.is_ident("for") {
                    self_type = None;
                } else if let Some(name) = t.ident() {
                    if !matches!(name, "dyn" | "mut" | "const" | "unsafe") {
                        self_type = Some(name.to_string());
                    }
                }
            }
        }
        j += 1;
    }
    None
}

/// The impl type enclosing token index `idx`, innermost first.
fn enclosing_impl(impls: &[ImplRegion], idx: usize) -> Option<String> {
    impls
        .iter()
        .filter(|r| r.body.contains(&idx))
        .max_by_key(|r| r.body.start)
        .map(|r| r.self_type.clone())
}

// ---------------------------------------------------------------------------
// fn items
// ---------------------------------------------------------------------------

fn fn_items(tokens: &[Token], impls: &[ImplRegion]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens.get(i).is_some_and(|t| t.is_ident("fn")) {
            if let Some(item) = parse_fn(tokens, i, impls) {
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

/// Parses one `fn name…(…) … { … }` starting at the `fn` keyword.
/// Returns `None` for bodyless declarations (trait methods, `extern`).
fn parse_fn(tokens: &[Token], fn_idx: usize, impls: &[ImplRegion]) -> Option<FnItem> {
    let name_tok = tokens.get(fn_idx + 1)?;
    let name = name_tok.ident()?.to_string();
    let line = name_tok.line;
    let mut j = fn_idx + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(tokens, j)?;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    j = skip_balanced(tokens, j)?;
    // Return type and where clause: scan to the body `{` (or `;` for a
    // declaration) at bracket depth 0. Braces cannot appear before the
    // body in the shapes this workspace uses.
    let mut depth = 0usize;
    let body_open = loop {
        let t = tokens.get(j)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct('{') {
            break j;
        } else if depth == 0 && t.is_punct(';') {
            return None;
        }
        j += 1;
    };
    let body_close = matching_brace(tokens, body_open)?;
    let qualified = match enclosing_impl(impls, fn_idx) {
        Some(ty) => format!("{ty}::{name}"),
        None => name.clone(),
    };
    Some(FnItem {
        name,
        qualified,
        is_pub: pub_before(tokens, fn_idx),
        line,
        sig: fn_idx..body_open,
        body: body_open..body_close + 1,
        calls: Vec::new(),
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
                TokenKind::Literal(_) => {
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

// ---------------------------------------------------------------------------
// call sites
// ---------------------------------------------------------------------------

/// Keywords that can directly precede `(` without being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "fn", "loop", "in", "as", "move", "unsafe",
    "let", "break", "continue", "yield", "await", "ref", "mut", "box", "dyn", "impl", "where",
    "use", "pub", "crate", "self", "super", "Self",
];

fn attribute_calls(tokens: &[Token], impls: &[ImplRegion], fns: &mut [FnItem]) {
    for (k, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !tokens.get(k + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        let prev = k.checked_sub(1).and_then(|p| tokens.get(p));
        // `fn name(` is the definition, not a call.
        if prev.is_some_and(|p| p.is_ident("fn")) {
            continue;
        }
        let is_method = prev.is_some_and(|p| p.is_punct('.'));
        let mut qualifier = None;
        if !is_method {
            let qualified = prev.is_some_and(|p| p.is_punct(':'))
                && k.checked_sub(2)
                    .and_then(|p| tokens.get(p))
                    .is_some_and(|p| p.is_punct(':'));
            if qualified {
                qualifier = k
                    .checked_sub(3)
                    .and_then(|p| tokens.get(p))
                    .and_then(Token::ident)
                    .map(str::to_string);
                if qualifier.as_deref() == Some("Self") {
                    qualifier = enclosing_impl(impls, k);
                }
                // `Self::` outside an impl (or `::foo()`): unresolvable —
                // recording it as a bare call would mis-resolve.
                if qualifier.is_none() {
                    continue;
                }
            }
        }
        let call = CallSite {
            callee: name.to_string(),
            qualifier,
            is_method,
            line: t.line,
        };
        // Attribute to the innermost fn whose body contains the call.
        let mut best: Option<usize> = None;
        for (fi, f) in fns.iter().enumerate() {
            if f.body.contains(&k) {
                let better = match best.and_then(|b| fns.get(b)) {
                    Some(bf) => f.body.start > bf.body.start,
                    None => true,
                };
                if better {
                    best = Some(fi);
                }
            }
        }
        if let Some(f) = best.and_then(|fi| fns.get_mut(fi)) {
            f.calls.push(call);
        }
    }
}

// ---------------------------------------------------------------------------
// enum items
// ---------------------------------------------------------------------------

fn enum_items(tokens: &[Token]) -> Vec<EnumItem> {
    let mut enums = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens.get(i).is_some_and(|t| t.is_ident("enum")) {
            if let Some((item, resume)) = parse_enum(tokens, i) {
                enums.push(item);
                i = resume;
                continue;
            }
        }
        i += 1;
    }
    enums
}

fn parse_enum(tokens: &[Token], enum_idx: usize) -> Option<(EnumItem, usize)> {
    let name_tok = tokens.get(enum_idx + 1)?;
    let name = name_tok.ident()?.to_string();
    let line = name_tok.line;
    let mut j = enum_idx + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(tokens, j)?;
    }
    // `where` clause: bounds contain parens/angles but never braces, so
    // the enum body starts at the next `{`.
    if tokens.get(j).is_some_and(|t| t.is_ident("where")) {
        while tokens.get(j).is_some() && !tokens.get(j).is_some_and(|t| t.is_punct('{')) {
            j += 1;
        }
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('{')) {
        return None;
    }
    let close = matching_brace(tokens, j)?;
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut expecting = true;
    let mut k = j + 1;
    while k < close {
        let Some(t) = tokens.get(k) else { break };
        // Attribute on a variant (`#[…]`): skip it whole.
        if depth == 0 && t.is_punct('#') && tokens.get(k + 1).is_some_and(|n| n.is_punct('[')) {
            if let Some(end) = skip_balanced(tokens, k + 1) {
                k = end;
                continue;
            }
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(',') {
            expecting = true;
        } else if depth == 0 && expecting {
            if let Some(vname) = t.ident() {
                variants.push(Variant {
                    name: vname.to_string(),
                    line: t.line,
                });
                expecting = false;
            }
        }
        k += 1;
    }
    Some((
        EnumItem {
            name,
            is_pub: pub_before(tokens, enum_idx),
            line,
            variants,
        },
        close + 1,
    ))
}

// ---------------------------------------------------------------------------
// token-walk helpers (all bounds-checked)
// ---------------------------------------------------------------------------

/// `true` when the `>` at `idx` is the second half of a `->` arrow.
fn is_arrow(tokens: &[Token], idx: usize) -> bool {
    idx.checked_sub(1)
        .and_then(|p| tokens.get(p))
        .is_some_and(|t| t.is_punct('-'))
}

/// From an opening `<`, returns the index one past its matching `>`.
fn skip_angles(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !is_arrow(tokens, j) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// From an opening `(`/`[`/`{`, returns the index one past the matching
/// closer, treating all three bracket kinds as one nesting family.
fn skip_balanced(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// From an opening `{`, returns the index of its matching `}`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};

    fn parse(src: &str) -> ParsedFile {
        parse_file("test.rs", &strip_test_code(&lex(src)))
    }

    #[test]
    fn finds_free_and_impl_fns_with_qualification() {
        let src = r#"
            pub fn free(x: u8) -> u8 { helper(x) }
            fn helper(x: u8) -> u8 { x }
            struct Chip;
            impl Chip {
                pub fn new() -> Self { Chip }
                fn tick(&mut self) { Self::check(); }
                fn check() {}
            }
            impl Default for Chip {
                fn default() -> Self { Chip::new() }
            }
        "#;
        let p = parse(src);
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "free",
                "helper",
                "Chip::new",
                "Chip::tick",
                "Chip::check",
                "Chip::default"
            ]
        );
        let free = p.fns.iter().find(|f| f.name == "free").expect("free");
        assert!(free.is_pub);
        let helper = p.fns.iter().find(|f| f.name == "helper").expect("helper");
        assert!(!helper.is_pub);
    }

    #[test]
    fn trait_impl_type_is_after_for() {
        let src = r#"
            impl<T: Clone> From<Wrapper<T>> for Target where T: Send {
                fn from(w: Wrapper<T>) -> Self { Target }
            }
        "#;
        let p = parse(src);
        let f = p.fns.first().expect("one fn");
        assert_eq!(f.qualified, "Target::from");
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
    fn call_sites_are_classified_and_attributed() {
        let src = r#"
            impl Engine {
                fn run(&self) {
                    self.step();
                    Engine::halt();
                    Self::halt();
                    spin();
                    ready!();
                    let closure = |x: u8| lift(x);
                }
            }
        "#;
        let p = parse(src);
        let run = p.fns.first().expect("run");
        let calls: Vec<(String, Option<String>, bool)> = run
            .calls
            .iter()
            .map(|c| (c.callee.clone(), c.qualifier.clone(), c.is_method))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("step".into(), None, true),
                ("halt".into(), Some("Engine".into()), false),
                ("halt".into(), Some("Engine".into()), false),
                ("spin".into(), None, false),
                ("lift".into(), None, false),
            ]
        );
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let src = r#"
            fn outer() {
                fn inner() { deep(); }
                shallow();
            }
        "#;
        let p = parse(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(
            outer.calls.first().map(|c| c.callee.as_str()),
            Some("shallow")
        );
        assert_eq!(inner.calls.first().map(|c| c.callee.as_str()), Some("deep"));
    }

    #[test]
    fn enums_and_variants_with_payloads_and_discriminants() {
        let src = r#"
            #[derive(Debug)]
            #[non_exhaustive]
            pub enum Wire {
                Idle,
                Byte(u8),
                Frame { seq: u32, body: Vec<u8> },
                Tagged = 7,
            }
            enum Private { A, B }
        "#;
        let p = parse(src);
        assert_eq!(p.enums.len(), 2);
        let wire = p.enums.first().expect("wire");
        assert!(wire.is_pub);
        let names: Vec<&str> = wire.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["Idle", "Byte", "Frame", "Tagged"]);
        let private = p.enums.get(1).expect("private");
        assert!(!private.is_pub);
        assert_eq!(private.variants.len(), 2);
    }

    #[test]
    fn variant_attributes_and_generics_do_not_confuse_the_walk() {
        let src = r#"
            pub enum E<T> where T: Clone {
                #[doc(hidden)]
                Hidden(Box<dyn Fn(u8) -> T>),
                Pair { a: Vec<(u8, u8)>, b: [u8; 4] },
            }
        "#;
        let p = parse(src);
        let e = p.enums.first().expect("enum");
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["Hidden", "Pair"]);
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
        assert_eq!(f.calls.len(), 1);
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
