//! A lightweight item parser over the lexer's token stream.
//!
//! Extracts just enough structure for the semantic passes: function items
//! (with their `impl` qualification, visibility, typed parameters, body
//! extent and lowered body statements — see [`crate::syntax`]), call
//! sites inside those bodies, and the file's direct panic sites.
//! It is *not* a Rust parser — expressions are never built, and a handful
//! of exotic shapes (turbofish calls, tuple-type impls, const-generic
//! braces) are knowingly approximated; DESIGN.md §9.2 lists them. In
//! exchange the whole analyzer stays dependency-free.
//!
//! [`parse_workspace`] also resolves every call site to the fn it binds
//! to, once for the whole workspace: [`CallSite::target`] is the call
//! table that `reach`, `taint` and `conc` read. [`ParsedFile::sites`] is
//! the site table that `panic.*`, `reach` and `taint` read the same way.
//!
//! Like the rule passes, this module practises what bsa-lint preaches:
//! every token access is bounds-checked (`get`), so a degenerate token
//! stream can produce a wrong parse but never a panic.

use crate::lexer::{Token, TokenKind};
use crate::rules::{panic_sites, Site};
use crate::syntax::{
    call_arg_range, depth0, last_segment, lower, lower_params, matching, path_ending_at,
    skip_angles, tok_ident, tok_punct, Param, Stmt,
};
use crate::workspace::SourceFile;
use std::collections::BTreeMap;
use std::ops::Range;

/// A fn by position: (index into the parsed files, index into its `fns`).
pub type FnRef = (usize, usize);

/// Parsed structure of one source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Every `fn` item with a body, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Every direct panic site in the file, inside fn bodies or not, in
    /// token order.
    pub sites: Vec<Site>,
}

impl ParsedFile {
    /// The panic sites whose token lies in `range`, in token order.
    pub(crate) fn sites_in<'a>(
        &'a self,
        range: &'a Range<usize>,
    ) -> impl Iterator<Item = &'a Site> {
        self.sites.iter().filter(|s| range.contains(&s.at))
    }
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
    /// Token-index range of the body, including both braces.
    pub body: Range<usize>,
    /// Argument-position parameters (a `self` receiver is not one).
    pub params: Vec<Param>,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// The body's lowered statements, in token order (nested fns'
    /// statements included).
    pub stmts: Vec<Stmt>,
    /// Call sites inside the body (attributed to the innermost fn).
    pub calls: Vec<CallSite>,
}

/// One call site inside a function body: the single record of a call.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee ident.
    pub at: usize,
    /// The call path as written, ending at the callee (`helper`,
    /// `plan::helper`, `self.helper`), with a `Self` qualifier replaced by
    /// the enclosing impl type.
    pub path: String,
    /// `true` for `receiver.callee(…)` method syntax.
    pub is_method: bool,
    /// The ident just before a method call's `.` (`self.inner.lock()` →
    /// `inner`).
    pub receiver: Option<String>,
    /// Token range between the call's parentheses.
    pub args: Range<usize>,
    /// 1-based line of the callee token.
    pub line: usize,
    /// The workspace fn the call binds to (see [`parse_workspace`]).
    pub target: Option<FnRef>,
    /// `Type::method(&x, …)`: the first argument is the callee's `self`.
    pub self_arg: bool,
}

impl CallSite {
    /// The called name (last path segment).
    pub fn callee(&self) -> &str {
        last_segment(&self.path)
    }

    /// Token range of the argument bound to parameter `k` of the target:
    /// argument k, or k + 1 when the call passes `self` as its first
    /// argument (`Type::method(&x, …)`).
    pub(crate) fn param_arg(&self, tokens: &[Token], k: usize) -> Option<Range<usize>> {
        call_arg_range(tokens, &self.args, k + usize::from(self.self_arg))
    }
}

/// Parses every source and resolves its call sites across all of them.
/// `sources` and the result are index-aligned.
pub fn parse_workspace(sources: &[SourceFile]) -> Vec<ParsedFile> {
    let mut parsed: Vec<ParsedFile> = sources
        .iter()
        .map(|s| parse_file(&s.path, &s.tokens))
        .collect();
    resolve_calls(&mut parsed);
    parsed
}

/// Parses one (test-stripped) token stream into items; its call sites
/// stay unresolved.
pub(crate) fn parse_file(path: &str, tokens: &[Token]) -> ParsedFile {
    let impls = impl_regions(tokens);
    let mut fns = fn_items(tokens, &impls);
    attribute_calls(tokens, &impls, &mut fns);
    ParsedFile {
        path: path.to_string(),
        fns,
        sites: panic_sites(tokens),
    }
}

/// The one call-binding rule (DESIGN.md §9.2). `Type::name(…)` and
/// `Self::name(…)` bind to the fn that `impl Type` defines; when that fn
/// takes `self`, the call's first argument is the receiver (`self_arg`).
/// Any other call binds by its bare name when exactly one fn in the
/// workspace has that name and takes `self` exactly when the call uses
/// method syntax. Std calls and ambiguous names bind nothing.
fn resolve_calls(parsed: &mut [ParsedFile]) {
    let mut qualified: BTreeMap<String, Vec<(FnRef, bool)>> = BTreeMap::new();
    let mut bare: BTreeMap<String, Vec<(FnRef, bool)>> = BTreeMap::new();
    for (fi, pf) in parsed.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            let entry = qualified.entry(f.qualified.clone()).or_default();
            entry.push(((fi, gi), f.has_self));
            let entry = bare.entry(f.name.clone()).or_default();
            entry.push(((fi, gi), f.has_self));
        }
    }
    let calls = parsed.iter_mut().flat_map(|pf| &mut pf.fns);
    for c in calls.flat_map(|f| &mut f.calls) {
        (c.target, c.self_arg) = match c.path.rsplit_once("::") {
            Some((ty, name)) => {
                let key = format!("{}::{name}", last_segment(ty));
                match qualified.get(&key).map(Vec::as_slice) {
                    Some(&[(id, has_self)]) => (Some(id), has_self),
                    _ => (None, false),
                }
            }
            None => match bare.get(c.callee()).map(Vec::as_slice) {
                Some(&[(id, has_self)]) if has_self == c.is_method => (Some(id), false),
                _ => (None, false),
            },
        };
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
        } else if t.is_punct('>') && !tok_punct(tokens, j.wrapping_sub(1), '-') {
            angle = angle.saturating_sub(1);
        } else if angle == 0 {
            if t.is_punct('{') {
                let close = matching(tokens, j)?;
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

/// A fn signature up to the end of its parameter list.
pub(crate) struct Signature {
    pub name: String,
    /// 1-based line of the name.
    pub line: usize,
    pub params: Vec<Param>,
    pub has_self: bool,
    /// One past the parameter list's `)`.
    pub end: usize,
}

/// Parses `fn name<…>(…)` starting at the `fn` keyword.
pub(crate) fn signature(tokens: &[Token], fn_idx: usize) -> Option<Signature> {
    let name_tok = tokens.get(fn_idx + 1)?;
    let mut open = fn_idx + 2;
    if tok_punct(tokens, open, '<') {
        open = skip_angles(tokens, open)?;
    }
    let close = matching(tokens, open).filter(|_| tok_punct(tokens, open, '('))?;
    let (params, has_self) = lower_params(tokens, open, close);
    Some(Signature {
        name: name_tok.ident()?.to_string(),
        line: name_tok.line,
        params,
        has_self,
        end: close + 1,
    })
}

/// Parses one `fn name…(…) … { … }` starting at the `fn` keyword.
/// Returns `None` for bodyless declarations (trait methods, `extern`).
fn parse_fn(tokens: &[Token], fn_idx: usize, impls: &[ImplRegion]) -> Option<FnItem> {
    let sig = signature(tokens, fn_idx)?;
    // Return type and where clause: the body `{` (or `;` for a
    // declaration) at bracket depth 0. Braces cannot appear before the
    // body in the shapes this workspace uses.
    let body_open = depth0(tokens, sig.end..tokens.len())
        .find(|&j| tok_punct(tokens, j, '{') || tok_punct(tokens, j, ';'))
        .filter(|&j| tok_punct(tokens, j, '{'))?;
    let body = body_open..matching(tokens, body_open)? + 1;
    let qualified = match enclosing_impl(impls, fn_idx) {
        Some(ty) => format!("{ty}::{}", sig.name),
        None => sig.name.clone(),
    };
    let stmts = lower(tokens, &body);
    Some(FnItem {
        name: sig.name,
        qualified,
        is_pub: pub_before(tokens, fn_idx),
        line: sig.line,
        body,
        params: sig.params,
        has_self: sig.has_self,
        stmts,
        calls: Vec::new(),
    })
}

/// `true` if the item keyword at `item_idx` is preceded by `pub` (with any
/// visibility restriction and any fn qualifiers in between).
pub(crate) fn pub_before(tokens: &[Token], item_idx: usize) -> bool {
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
        let Some(close) = matching(tokens, k + 1).filter(|_| tok_punct(tokens, k + 1, '(')) else {
            continue;
        };
        // `fn name(` is the definition, not a call.
        if CALL_KEYWORDS.contains(&name) || tok_ident(tokens, k.wrapping_sub(1)) == Some("fn") {
            continue;
        }
        let Some(mut path) = path_ending_at(tokens, k) else {
            continue;
        };
        // `<T as Trait>::name(…)` and `::name(…)`: unresolvable —
        // recording them as bare calls would mis-resolve.
        let colons =
            tok_punct(tokens, k.wrapping_sub(1), ':') && tok_punct(tokens, k.wrapping_sub(2), ':');
        if colons && !path.contains("::") {
            continue;
        }
        if let Some(rest) = path.strip_prefix("Self::") {
            if let Some(ty) = enclosing_impl(impls, k) {
                path = format!("{ty}::{rest}");
            }
        }
        let is_method = tok_punct(tokens, k.wrapping_sub(1), '.');
        let call = CallSite {
            at: k,
            path,
            is_method,
            receiver: tok_ident(tokens, k.wrapping_sub(2))
                .filter(|_| is_method)
                .map(str::to_string),
            args: k + 2..close,
            line: t.line,
            target: None,
            self_arg: false,
        };
        // Attribute to the innermost fn whose body contains the call.
        let innermost = fns
            .iter_mut()
            .filter(|f| f.body.contains(&k))
            .max_by_key(|f| f.body.start);
        if let Some(f) = innermost {
            f.calls.push(call);
        }
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
        let calls: Vec<(&str, &str, bool, Option<&str>)> = run
            .calls
            .iter()
            .map(|c| {
                let receiver = c.receiver.as_deref();
                (c.callee(), c.path.as_str(), c.is_method, receiver)
            })
            .collect();
        assert_eq!(
            calls,
            vec![
                ("step", "self.step", true, Some("self")),
                ("halt", "Engine::halt", false, None),
                ("halt", "Engine::halt", false, None),
                ("spin", "spin", false, None),
                ("lift", "lift", false, None),
            ]
        );
    }

    #[test]
    fn calls_bind_under_one_rule() {
        let src = r#"
            impl A {
                fn get() {}
                fn method(&self) {}
                fn run(&self) {
                    Self::get(); B::get(); get(); self.free(); method(); self.method();
                }
            }
            impl B { fn get() {} }
            fn free() {}
        "#;
        let sources = [SourceFile {
            path: "test.rs".to_string(),
            tokens: lex(src),
        }];
        let parsed = parse_workspace(&sources);
        let fns = &parsed[0].fns;
        let run = fns.iter().find(|f| f.name == "run").unwrap();
        let bound: Vec<(&str, Option<&str>)> = run
            .calls
            .iter()
            .map(|c| {
                (
                    c.path.as_str(),
                    c.target.map(|t| fns[t.1].qualified.as_str()),
                )
            })
            .collect();
        assert_eq!(
            bound,
            vec![
                ("A::get", Some("A::get")),
                ("B::get", Some("B::get")),
                ("get", None),
                ("self.free", None),
                ("method", None),
                ("self.method", Some("A::method")),
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
        assert_eq!(outer.calls.first().map(CallSite::callee), Some("shallow"));
        assert_eq!(inner.calls.first().map(CallSite::callee), Some("deep"));
    }

    #[test]
    fn site_table_covers_every_token() {
        let src = "const K: u8 = T[1];\nfn f(a: &[u8], b: &[usize], i: usize) -> u8 { a[b[i]] }";
        let p = parse(src);
        let lines: Vec<usize> = p.sites.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![1, 2, 2]);
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
