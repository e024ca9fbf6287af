//! Function summaries: interprocedural interval contracts (DESIGN.md §9.4).
//!
//! PR 8's interval prover is intraprocedural — a bound established inside
//! one function is invisible to its callers. This module lifts it one
//! level: each function gets an optional **return contract** (how its
//! result relates to its parameters) and an optional **index
//! requirement** (a parameter used as an unguarded index into another
//! parameter). Contracts are derived bottom-up over the call graph with a
//! depth cap; recursion cycles are cut conservatively (no contract).
//!
//! Consumption happens in two places:
//!
//! * the interval fold (`flow::collect_facts`) instantiates a callee's return contract with
//!   the call's arguments (`let k = clamp(i, n);` with `clamp: ret < n`
//!   yields `k < n` for the caller) — pure proof pressure relief, never a
//!   new finding.
//! * [`summary_pass`] flags **`flow.summary`** where a call passes a
//!   constant index into a function that unconditionally indexes one of
//!   its parameters with it, and the caller's facts prove the indexed
//!   sequence is too short — a definite cross-function out-of-bounds.
//!
//! Everything unresolvable (ambiguous bare names, `self`-form mismatch,
//! any `return` inside a body, patterns the derivation does not model)
//! drops the contract — the summary layer only ever strengthens proofs,
//! so a missed contract is conservative, never unsound.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::flow::{collect_facts, prove_index, Fact, Facts, Proof};
use crate::lexer::Token;
use crate::parser::{FnItem, ParsedFile};
use crate::rules::{index_site, violation, Violation};
use crate::syntax::{
    call_arg_path, call_arg_range, const_expr, depth0, final_call, last_depth0, last_segment,
    len_minus_expr, matching, path_ending_at, path_starting_at, skip_angles, tok_ident, tok_int,
    tok_punct, Param, StmtKind,
};
use crate::workspace::SourceFile;

/// How a function's return value relates to its arguments. Parameter
/// indices are argument positions — a `self` receiver is not counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetContract {
    /// `ret < args[k]` (a value-bound: `i % n`, or a tail call into such).
    LtParam(usize),
    /// `ret < args[k].len()`.
    LtLenOfParam(usize),
    /// `ret <= c` (a trailing `.min(c)` clamp).
    LeConst(u64),
    /// The returned `Vec`'s every element is `< args[k]` (built as
    /// `(0..n).collect()` and only permuted/shrunk afterwards).
    ElemsLtParam(usize),
}

/// A parameter that unconditionally indexes another parameter:
/// `fn f(xs: &[T], i: usize) { .. xs[i] .. }` with no guard the
/// intraprocedural prover recognises.
#[derive(Debug, Clone)]
pub struct IndexRequirement {
    /// Argument position of the index value.
    pub index_param: usize,
    /// Argument position of the indexed sequence.
    pub slice_param: usize,
    /// Parameter names, for diagnostics.
    pub index_name: String,
    pub slice_name: String,
}

/// One function's derived summary plus the call-form it resolves under.
#[derive(Debug, Clone, Default)]
struct FnSummary {
    contract: Option<RetContract>,
    requires: Option<IndexRequirement>,
    /// Derived from a method (`self` receiver): call sites must use the
    /// `recv.name(..)` form for argument positions to line up.
    has_self: bool,
}

/// Workspace-wide function summaries, keyed by bare function name.
/// Only functions whose bare name is unique across the workspace are
/// published — an ambiguous name could bind the wrong contract.
#[derive(Debug, Clone, Default)]
pub struct Summaries {
    by_name: BTreeMap<String, FnSummary>,
}

impl Summaries {
    /// Resolves a call path (`helper`, `plan::helper`, `self.helper`) to
    /// a published summary, enforcing the `self`-form rule: method
    /// summaries only bind to `recv.name(..)` call syntax (where the
    /// receiver is not an argument), free/associated functions only to
    /// non-method syntax.
    fn resolve(&self, call_path: &str) -> Option<&FnSummary> {
        let s = self.by_name.get(last_segment(call_path))?;
        let method_form = call_path.contains('.');
        (s.has_self == method_form).then_some(s)
    }

    /// Return contract for a call path, if published.
    pub fn ret_contract(&self, call_path: &str) -> Option<&RetContract> {
        self.resolve(call_path)?.contract.as_ref()
    }

    /// `Some(k)` when the callee promises every yielded element `< args[k]`.
    pub(crate) fn elems_lt_param(&self, call_path: &str) -> Option<usize> {
        match self.ret_contract(call_path)? {
            RetContract::ElemsLtParam(k) => Some(*k),
            _ => None,
        }
    }

    fn requirement(&self, call_path: &str) -> Option<&IndexRequirement> {
        self.resolve(call_path)?.requires.as_ref()
    }

    /// Number of published summaries carrying a contract (report metric).
    pub fn contract_count(&self) -> usize {
        self.by_name
            .values()
            .filter(|s| s.contract.is_some())
            .count()
    }
}

/// Vec methods that permute or shrink but never introduce new element
/// values — the whitelist under which `(0..n).collect()` keeps its
/// "every element < n" property.
const ELEM_PRESERVING: &[&str] = &[
    "swap",
    "truncate",
    "pop",
    "remove",
    "retain",
    "reverse",
    "rotate_left",
    "rotate_right",
    "dedup",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "shuffle",
];

/// Maximum tail-call substitution depth before a chain is cut.
const MAX_DEPTH: usize = 32;

/// Derives summaries for every uniquely-named function in the workspace,
/// bottom-up over tail calls.
pub fn compute_summaries(sources: &[SourceFile], parsed: &[ParsedFile]) -> Summaries {
    let unique = unique_fns(parsed);
    let mut out = Summaries::default();
    for (name, &(fi, gi)) in &unique {
        let (Some(sf), Some(f)) = (
            sources.get(fi),
            parsed.get(fi).and_then(|pf| pf.fns.get(gi)),
        ) else {
            continue;
        };
        let contract = derive_contract(sources, parsed, &unique, fi, gi, 0);
        let requires = derive_requirement(&sf.tokens, f);
        if contract.is_some() || requires.is_some() {
            out.by_name.insert(
                name.clone(),
                FnSummary {
                    contract,
                    requires,
                    has_self: f.has_self,
                },
            );
        }
    }
    out
}

/// Every fn whose bare name is unique across `parsed`: name → (file, fn).
pub(crate) fn unique_fns(parsed: &[ParsedFile]) -> BTreeMap<String, (usize, usize)> {
    let mut by_name: BTreeMap<String, Option<(usize, usize)>> = BTreeMap::new();
    for (fi, pf) in parsed.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            by_name
                .entry(last_segment(&f.name).to_string())
                .and_modify(|e| *e = None)
                .or_insert(Some((fi, gi)));
        }
    }
    by_name
        .into_iter()
        .filter_map(|(k, v)| v.map(|v| (k, v)))
        .collect()
}

/// Position of a bare parameter name in the argument-position list.
fn param_index(params: &[Param], name: &str) -> Option<usize> {
    params
        .iter()
        .position(|p| !p.name.is_empty() && p.name == name)
}

/// Derives the return contract for one function (memo-free DFS with a
/// depth cap — the cap bounds recursion and cuts cycles conservatively).
fn derive_contract(
    sources: &[SourceFile],
    parsed: &[ParsedFile],
    unique: &BTreeMap<String, (usize, usize)>,
    fi: usize,
    gi: usize,
    depth: usize,
) -> Option<RetContract> {
    if depth > MAX_DEPTH {
        return None;
    }
    let f = parsed.get(fi)?.fns.get(gi)?;
    let tokens = &sources.get(fi)?.tokens;
    let params = &f.params;
    let inner = f.body.start + 1..f.body.end.saturating_sub(1);
    // Any explicit `return` makes the tail expression non-exhaustive.
    if inner.is_empty()
        || inner
            .clone()
            .any(|j| tok_ident(tokens, j) == Some("return"))
    {
        return None;
    }
    // `(0..P).collect()` vector construction, only permuted afterwards.
    if let Some(k) = elems_contract(tokens, f, &inner) {
        return Some(RetContract::ElemsLtParam(k));
    }
    // Tail expression: after the last depth-0 `;`.
    let last_semi = depth0(tokens, inner.clone())
        .filter(|&j| tok_punct(tokens, j, ';'))
        .last();
    let tail = last_semi.map_or(inner.start, |s| s + 1)..inner.end;
    if tail.is_empty() {
        return None;
    }
    // `E % P` / `E % P.len()` — the remainder is strictly below the
    // divisor (or panics at the `%`, before any return).
    if let Some(m) = last_depth0(tokens, &tail, '%') {
        let rhs = m + 1..tail.end;
        let name = tok_ident(tokens, rhs.start).filter(|_| rhs.start + 1 == rhs.end);
        if let Some(k) = name.and_then(|n| param_index(params, n)) {
            return Some(RetContract::LtParam(k));
        }
        let (p, 0) = len_minus_expr(tokens, &rhs)? else {
            return None;
        };
        return param_index(params, &p).map(RetContract::LtLenOfParam);
    }
    // Trailing `.min(c)` constant clamp.
    if let Some(c) = final_call(tokens, &tail, &["min"]).and_then(|a| const_expr(tokens, &a)) {
        return Some(RetContract::LeConst(c));
    }
    // Tail call `g(args)` — substitute `g`'s contract through the
    // argument mapping. Method tail calls are skipped: receiver/argument
    // alignment is unknown.
    let (path, after) = path_starting_at(tokens, tail.start)?;
    let close =
        matching(tokens, after).filter(|c| tok_punct(tokens, after, '(') && c + 1 == tail.end)?;
    if path.contains('.') {
        return None;
    }
    let (cfi, cgi) = *unique.get(last_segment(&path))?;
    let sub = derive_contract(sources, parsed, unique, cfi, cgi, depth + 1)?;
    let map_arg = |j: usize| -> Option<usize> {
        let r = call_arg_range(tokens, &(after + 1..close), j)?;
        let name = tok_ident(tokens, r.start).filter(|_| r.start + 1 == r.end)?;
        param_index(params, name)
    };
    match sub {
        RetContract::LtParam(j) => map_arg(j).map(RetContract::LtParam),
        RetContract::LtLenOfParam(j) => map_arg(j).map(RetContract::LtLenOfParam),
        RetContract::LeConst(c) => Some(RetContract::LeConst(c)),
        RetContract::ElemsLtParam(j) => map_arg(j).map(RetContract::ElemsLtParam),
    }
}

/// Matches a body of the shape `let [mut] X .. = (0..P).collect..(); ..`
/// where every later use of `X` is an element-preserving method call and
/// the tail expression is `X` itself. Returns `P`'s parameter position.
fn elems_contract(tokens: &[Token], f: &FnItem, inner: &Range<usize>) -> Option<usize> {
    let (x, k, end) = f.stmts.iter().find_map(|s| match &s.kind {
        StmtKind::Let { var, rhs, .. } => {
            let k = collect_of_range(tokens, rhs.start, &f.params)?;
            (collect_call_end(tokens, rhs.start)? == rhs.end).then_some((var, k, rhs.end))
        }
        _ => None,
    })?;
    // Validate every later use of `x`.
    let mut saw_tail = false;
    for j in end + 1..inner.end {
        let is_use = tok_ident(tokens, j) == Some(x.as_str())
            && !tok_punct(tokens, j.wrapping_sub(1), '.')
            && !tok_punct(tokens, j.wrapping_sub(1), ':');
        if !is_use {
            continue;
        }
        let preserving = tok_punct(tokens, j + 1, '.')
            && tok_ident(tokens, j + 2).is_some_and(|m| ELEM_PRESERVING.contains(&m))
            && tok_punct(tokens, j + 3, '(');
        if j + 1 == inner.end {
            saw_tail = true;
        } else if !preserving {
            return None;
        }
    }
    saw_tail.then_some(k)
}

/// Matches `( 0 . . P )` at `r` where `P` is a bare parameter; returns
/// the parameter position.
fn collect_of_range(tokens: &[Token], r: usize, params: &[Param]) -> Option<usize> {
    if !tok_punct(tokens, r, '(')
        || tok_int(tokens, r + 1) != Some(0)
        || !tok_punct(tokens, r + 2, '.')
        || !tok_punct(tokens, r + 3, '.')
        || !tok_punct(tokens, r + 5, ')')
    {
        return None;
    }
    param_index(params, tok_ident(tokens, r + 4)?)
}

/// For an RHS starting with `(0..P)` at `r`, the position one past a
/// `.collect()` / `.collect::<..>()` call ending the statement.
fn collect_call_end(tokens: &[Token], r: usize) -> Option<usize> {
    let mut k = r + 6; // past `( 0 . . P )`
    if !tok_punct(tokens, k, '.') || tok_ident(tokens, k + 1) != Some("collect") {
        return None;
    }
    k += 2;
    if tok_punct(tokens, k, ':') && tok_punct(tokens, k + 1, ':') {
        k = skip_angles(tokens, k + 2)?;
    }
    (tok_punct(tokens, k, '(') && tok_punct(tokens, k + 1, ')')).then_some(k + 2)
}

/// An unguarded `param_s[param_i]` site anywhere in the body — the
/// requirement callers must discharge.
fn derive_requirement(tokens: &[Token], f: &FnItem) -> Option<IndexRequirement> {
    let facts = collect_facts(tokens, f, &Summaries::default());
    let params = &f.params;
    let mut i = f.body.start;
    while i < f.body.end {
        let site = if index_site(tokens, i) {
            matching(tokens, i).zip(path_ending_at(tokens, i - 1))
        } else {
            None
        };
        if let Some((close, seq)) = site {
            let expr = i + 1..close;
            let ix = tok_ident(tokens, expr.start)
                .filter(|_| expr.start + 1 == expr.end)
                .and_then(|n| param_index(params, n));
            if let (Some(sp), Some(ix)) = (param_index(params, &seq), ix) {
                if matches!(prove_index(tokens, &expr, &seq, &facts, i), Proof::Unknown) {
                    let name = |k: usize| params.get(k).map(|p| p.name.clone()).unwrap_or_default();
                    return Some(IndexRequirement {
                        index_param: ix,
                        slice_param: sp,
                        index_name: name(ix),
                        slice_name: name(sp),
                    });
                }
            }
            i = close;
        }
        i += 1;
    }
    None
}

/// Flags `flow.summary`: a call passing a constant index into a function
/// whose summary says that argument unconditionally indexes another
/// argument — when the caller's own facts prove the passed sequence is
/// too short, the out-of-bounds is definite across the function boundary.
pub fn summary_pass(
    sources: &[SourceFile],
    parsed: &[ParsedFile],
    summaries: &Summaries,
    out: &mut Vec<Violation>,
) {
    for (sf, pf) in sources.iter().zip(parsed) {
        for f in &pf.fns {
            let mut facts = None;
            for i in f.body.clone() {
                if !tok_punct(&sf.tokens, i, '(') {
                    continue;
                }
                if let Some(path) = path_ending_at(&sf.tokens, i.wrapping_sub(1)) {
                    if let Some(req) = summaries.requirement(&path) {
                        let facts =
                            facts.get_or_insert_with(|| collect_facts(&sf.tokens, f, summaries));
                        check_call(sf, f, facts, i, &path, req, out);
                    }
                }
            }
        }
    }
}

fn check_call(
    sf: &SourceFile,
    f: &FnItem,
    facts: &Facts,
    open: usize,
    path: &str,
    req: &IndexRequirement,
    out: &mut Vec<Violation>,
) {
    let tokens = &sf.tokens;
    let Some(close) = matching(tokens, open) else {
        return;
    };
    let args = open + 1..close;
    let ix = call_arg_range(tokens, &args, req.index_param);
    let Some(c) = ix.and_then(|r| const_expr(tokens, &r)) else {
        return;
    };
    let Some(slice_path) = call_arg_path(tokens, &args, req.slice_param) else {
        return;
    };
    let too_short = facts.at(open).find_map(|a| match a {
        Fact::ExactLen { seq, len } if *seq == slice_path && *len <= c => Some(*len),
        _ => None,
    });
    if let Some(len) = too_short {
        let line = tokens.get(open).map_or(f.line, |t| t.line);
        out.push(violation(
            &sf.path,
            line,
            "flow.summary",
            format!(
                "call passes index {c} to `{callee}`, whose `{ix}` parameter unconditionally \
                 indexes `{sl}` — but `{slice_path}` has exactly {len} element(s)",
                callee = last_segment(path),
                ix = req.index_name,
                sl = req.slice_name,
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn setup(src: &str) -> (Vec<SourceFile>, Vec<ParsedFile>, Summaries) {
        let sf = SourceFile {
            path: "test.rs".to_string(),
            tokens: lex(src),
        };
        let pf = parse_file("test.rs", &sf.tokens);
        let sources = vec![sf];
        let parsed = vec![pf];
        let summaries = compute_summaries(&sources, &parsed);
        (sources, parsed, summaries)
    }

    #[test]
    fn modulo_param_gives_lt_param() {
        let (_, _, s) = setup("fn wrap(i: usize, n: usize) -> usize { i % n }");
        assert_eq!(s.ret_contract("wrap"), Some(&RetContract::LtParam(1)));
    }

    #[test]
    fn modulo_len_gives_lt_len_of_param() {
        let (_, _, s) = setup("fn wrap(i: usize, xs: &[u8]) -> usize { i % xs.len() }");
        assert_eq!(s.ret_contract("wrap"), Some(&RetContract::LtLenOfParam(1)));
    }

    #[test]
    fn min_const_clamp_gives_le_const() {
        let (_, _, s) = setup("fn cap(i: usize) -> usize { (i * 2).min(64) }");
        assert_eq!(s.ret_contract("cap"), Some(&RetContract::LeConst(64)));
    }

    #[test]
    fn tail_call_substitutes_through() {
        let (_, _, s) = setup(
            "fn wrap(i: usize, n: usize) -> usize { i % n }\n\
             fn outer(a: usize, b: usize) -> usize { wrap(a, b) }",
        );
        assert_eq!(s.ret_contract("outer"), Some(&RetContract::LtParam(1)));
    }

    #[test]
    fn explicit_return_defeats_contract() {
        let (_, _, s) =
            setup("fn wrap(i: usize, n: usize) -> usize { if n == 0 { return 0; } i % n }");
        assert_eq!(s.ret_contract("wrap"), None);
    }

    #[test]
    fn recursion_is_cut() {
        let (_, _, s) = setup("fn spin(i: usize, n: usize) -> usize { spin(i, n) }");
        assert_eq!(s.ret_contract("spin"), None);
    }

    #[test]
    fn ambiguous_bare_name_is_dropped() {
        let (_, _, s) = setup(
            "fn wrap(i: usize, n: usize) -> usize { i % n }\n\
             mod other { fn wrap(i: usize, n: usize) -> usize { i % n } }",
        );
        assert_eq!(s.ret_contract("wrap"), None);
    }

    #[test]
    fn collect_permute_gives_elems_contract() {
        let (_, _, s) = setup(
            "fn choose(n: usize, k: usize) -> Vec<usize> { \
               let mut idx: Vec<usize> = (0..n).collect(); \
               idx.swap(0, 1); idx.truncate(k); idx }",
        );
        assert_eq!(
            s.ret_contract("choose"),
            Some(&RetContract::ElemsLtParam(0))
        );
    }

    #[test]
    fn push_defeats_elems_contract() {
        let (_, _, s) = setup(
            "fn choose(n: usize) -> Vec<usize> { \
               let mut idx: Vec<usize> = (0..n).collect(); \
               idx.push(n + 7); idx }",
        );
        assert_eq!(s.ret_contract("choose"), None);
    }

    #[test]
    fn unguarded_param_index_flagged_against_short_array() {
        let (sources, parsed, s) = setup(
            "fn pick(xs: &[u32], i: usize) -> u32 { xs[i] }\n\
             fn caller() -> u32 { let a = [0u32; 4]; pick(&a, 9) }",
        );
        let mut out = Vec::new();
        summary_pass(&sources, &parsed, &s, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "flow.summary");
    }

    #[test]
    fn in_bounds_constant_not_flagged() {
        let (sources, parsed, s) = setup(
            "fn pick(xs: &[u32], i: usize) -> u32 { xs[i] }\n\
             fn caller() -> u32 { let a = [0u32; 4]; pick(&a, 3) }",
        );
        let mut out = Vec::new();
        summary_pass(&sources, &parsed, &s, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn guarded_callee_has_no_requirement() {
        let (sources, parsed, s) = setup(
            "fn pick(xs: &[u32], i: usize) -> u32 { if i < xs.len() { xs[i] } else { 0 } }\n\
             fn caller() -> u32 { let a = [0u32; 4]; pick(&a, 9) }",
        );
        let mut out = Vec::new();
        summary_pass(&sources, &parsed, &s, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }
}
