//! Interprocedural taint tracking over the wire trust boundary
//! (DESIGN.md §9.4).
//!
//! Everything a peer or a stored segment can influence is *tainted*:
//! values produced by the little-endian decode helpers (`Reader`'s
//! `u8`..`u64`, `from_le_bytes`), segment header metadata (`.meta()`),
//! buffers filled by `read_exact`, and fields destructured out of a
//! decoded `Message` (or `StreamPayload`) pattern. A tainted value must
//! not reach a *resource sink* — an allocation size (`with_capacity`,
//! `reserve`, `resize`, `vec![x; n]`) or an unbounded loop count — until
//! a recognized validation idiom clears it:
//!
//! * an early-exit guard that upper-bounds it against an untainted value
//!   (`if n > MAX_X { return Err(..) }`, `if n != expected { .. }`),
//! * a non-exit guard whose body the bound dominates (`if n <= cap { .. }`,
//!   `while i < len { .. }`),
//! * a `.min(untainted)` / `.clamp(..)` binding,
//! * rebinding/reassignment from untainted operands, or
//! * the `Reader::count()` idiom, which validates the declared element
//!   count against the remaining payload before returning it
//!   (`Reader::seq` calls it before it allocates).
//!
//! Direction matters: `if n < MIN { return }` establishes only a *lower*
//! bound and clears nothing.
//!
//! Sources and sanitizers are a fold over each fn's lowered statements
//! ([`crate::syntax`]) into scoped per-variable taint states; at a query
//! point the latest state in scope wins.
//!
//! The analysis is interprocedural: each function gets a bottom-up
//! summary of which parameters reach a sink, so passing a
//! tainted value into `fn grow(n: usize) { v.reserve(n) }` is flagged at
//! the call site. Calls bind through the parser's call table (DESIGN.md
//! §9.2). Cycles in the call graph are cut conservatively (the
//! back edge contributes no flows). Scope is limited to the three
//! wire-facing crates (`bsa-link`, `bsa-station`, `bsa-store`), for both
//! callers and callees — taint does not originate anywhere else.
//!
//! Rules: `taint.wire-alloc` (allocation/loop-bound sinks) and
//! `taint.wire-arith` (overflowable `+`/`*` on tainted operands feeding a
//! sink). A slice index is no sink here: `panic.indexing` rejects every
//! direct index, wire-derived or not.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::lexer::Token;
use crate::parser::{FnItem, FnRef, ParsedFile};
use crate::rules::{violation, Violation};
use crate::syntax::{
    depth0, final_call, find_cmp, last_segment, path_starting_at, repeat_count, tok_ident,
    tok_punct, Cmp, Effect, StmtKind,
};
use crate::workspace::SourceFile;

/// Path fragments selecting the wire-facing crates.
const WIRE_SCOPES: &[&str] = &["link/src/", "station/src/", "store/src/"];

/// Method/associated-fn names whose *result* is wire-derived.
const SOURCE_CALLS: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "meta",
    "from_le_bytes",
    "from_be_bytes",
];

/// Methods whose result preserves the receiver's magnitude — taint
/// propagates through them. Everything else drops receiver taint
/// (`.len()`, `.count()`, `.iter()`, … yield validated or structural
/// values).
const PROPAGATE_RECV: &[&str] = &[
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap",
    "expect",
    "max",
    "pow",
    "abs",
    "clone",
    "copied",
    "cloned",
    "to_owned",
];

/// Allocation-size sink methods.
const ALLOC_METHODS: &[&str] = &[
    "with_capacity",
    "reserve",
    "reserve_exact",
    "resize",
    "set_len",
];

/// Enum roots whose destructuring patterns bind wire-decoded fields.
const WIRE_ENUMS: &[&str] = &["Message", "StreamPayload"];

/// What a tainted value is (bitwise) — the wire itself, and/or one or
/// more of the enclosing function's parameters (for summaries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TaintSet {
    wire: bool,
    params: u64,
}

impl TaintSet {
    const EMPTY: Self = Self {
        wire: false,
        params: 0,
    };
    const WIRE: Self = Self {
        wire: true,
        params: 0,
    };

    fn param(k: usize) -> Self {
        Self {
            wire: false,
            params: 1u64 << k.min(63),
        }
    }

    fn is_empty(self) -> bool {
        !self.wire && self.params == 0
    }

    fn or(self, o: Self) -> Self {
        Self {
            wire: self.wire || o.wire,
            params: self.params | o.params,
        }
    }
}

/// One taint state: `taint` holds for `var` over `scope`, taking effect
/// at `start` (later starts shadow earlier ones). `None` is a cleanse (a
/// recognized validation idiom).
struct Event {
    start: usize,
    scope: Range<usize>,
    var: String,
    taint: Option<TaintSet>,
}

/// The taint states of one fn body, in the order they were made.
#[derive(Default)]
struct Events(Vec<Event>);

impl Events {
    fn push(
        &mut self,
        start: usize,
        scope: Range<usize>,
        (var, taint): (String, Option<TaintSet>),
    ) {
        self.0.push(Event {
            start,
            scope,
            var,
            taint,
        });
    }
}

/// The taint of `var` at `at`: the state made last among those whose
/// scope contains `at`.
fn query(events: &Events, var: &str, at: usize) -> TaintSet {
    events
        .0
        .iter()
        .filter(|e| e.scope.contains(&at) && e.var == var)
        .max_by_key(|e| e.start)
        .and_then(|e| e.taint)
        .unwrap_or(TaintSet::EMPTY)
}

/// Taint of an expression: the union over every value path read in it.
/// Method-call receivers contribute nothing unless the method preserves
/// magnitude; `SOURCE_CALLS` results add wire taint directly.
fn expr_taint(tokens: &[Token], range: &Range<usize>, events: &Events) -> TaintSet {
    let mut set = TaintSet::EMPTY;
    let mut j = range.start;
    while j < range.end {
        // Skip member/method segments (`x.field`) — but not the end of
        // a `..` range, where the preceding dot is doubled.
        let member = (tok_punct(tokens, j.wrapping_sub(1), '.')
            && !tok_punct(tokens, j.wrapping_sub(2), '.'))
            || tok_punct(tokens, j.wrapping_sub(1), ':');
        let path = path_starting_at(tokens, j).filter(|_| !member);
        let Some((path, after)) = path else {
            j += 1;
            continue;
        };
        let root = path.split(['.', ':']).next().unwrap_or("");
        if tok_punct(tokens, after, '(') {
            let m = last_segment(&path);
            if path.contains(['.', ':']) && SOURCE_CALLS.contains(&m) {
                set = set.or(TaintSet::WIRE);
            }
            if path.contains('.') && PROPAGATE_RECV.contains(&m) {
                set = set.or(query(events, root, j));
            }
            // Other calls: result treated as clean; their arguments are
            // still scanned as the walk continues.
        } else {
            // Plain value path: taints from its root variable (field
            // reads like `meta.rows` inherit `meta`'s).
            set = set.or(query(events, root, j));
        }
        j = after;
    }
    set
}

/// Folds one fn's lowered statements into scoped taint events.
/// Parameters start out tainted by themselves (for summaries).
fn collect_events(tokens: &[Token], f: &FnItem) -> Events {
    let mut ev = Events::default();
    for (k, p) in f.params.iter().enumerate() {
        if !p.name.is_empty() {
            let taint = Some(TaintSet::param(k));
            ev.push(f.body.start, f.body.clone(), (p.name.clone(), taint));
        }
    }
    for s in &f.stmts {
        match &s.kind {
            // `let X [: T] = RHS;` — X takes the RHS taint (possibly
            // empty, which shadows any earlier taint on the name). An RHS
            // ending in `.min(..)`/`.clamp(..)` with untainted arguments
            // is bounded.
            StmtKind::Let {
                var, rhs, scope, ..
            } => {
                let clamp = final_call(tokens, rhs, &["min", "clamp"]);
                let set = match clamp {
                    Some(args) if expr_taint(tokens, &args, &ev).is_empty() => TaintSet::EMPTY,
                    _ => expr_taint(tokens, rhs, &ev),
                };
                ev.push(rhs.end, scope.clone(), (var.clone(), Some(set)));
            }
            // `X = RHS;` / `X op= RHS;` — rebinding from untainted
            // operands clears. Fields are not tracked.
            StmtKind::Assign {
                target,
                op,
                rhs,
                scope,
            } if !target.contains(['.', ':']) => {
                let mut set = expr_taint(tokens, rhs, &ev);
                if op.is_some() {
                    set = set.or(query(&ev, target, s.at));
                }
                ev.push(rhs.end, scope.clone(), (target.clone(), Some(set)));
            }
            // The validation-idiom sanitizer. An exiting body clears any
            // variable the *negated* condition upper-bounds against an
            // untainted value, for the rest of the enclosing block
            // (¬(d1 ∨ d2 ∨ …) ⇒ every ¬dk); a non-exiting body clears
            // variables the condition itself upper-bounds (c1 ∧ c2 ∧ …),
            // inside the body only. The other connective bounds nothing
            // per variable.
            StmtKind::Guard {
                parts,
                joined_by,
                exits,
                body,
                after,
            } => {
                let (other, start, scope) = if *exits {
                    ('&', body.end - 1, after)
                } else {
                    ('|', body.start, body)
                };
                if *joined_by == Some(other) {
                    continue;
                }
                for part in parts {
                    if let Some(var) = bounded_var(tokens, part, &ev, *exits) {
                        ev.push(start, scope.clone(), (var, None));
                    }
                }
            }
            // `Message::Variant { a, b, .. } => ..` / tuple form — the
            // bindings are wire-decoded fields, tainted for the arm body.
            StmtKind::Arm {
                bindings,
                arrow,
                body,
            } if tok_ident(tokens, s.at).is_some_and(|e| WIRE_ENUMS.contains(&e)) => {
                for b in bindings {
                    ev.push(*arrow, body.clone(), (b.clone(), Some(TaintSet::WIRE)));
                }
            }
            // `recv.read_exact(&mut BUF)?` — BUF now holds wire bytes;
            // dotted/complex targets are untracked.
            StmtKind::Call {
                effect: Effect::Fill,
                args,
                after,
                ..
            } => {
                let mut j = args.start + usize::from(tok_punct(tokens, args.start, '&'));
                j += usize::from(tok_ident(tokens, j) == Some("mut"));
                if let Some(var) = tok_ident(tokens, j).filter(|_| j + 1 == args.end) {
                    let taint = Some(TaintSet::WIRE);
                    ev.push(after.start, after.clone(), (var.to_string(), taint));
                }
            }
            // `recv.push(X)` and friends — argument taint spreads to a
            // bare receiver variable.
            StmtKind::Call {
                effect: Effect::Grow,
                recv: Some(root),
                bare: true,
                args,
                after,
            } => {
                let set = expr_taint(tokens, args, &ev);
                if !set.is_empty() {
                    let set = Some(set.or(query(&ev, root, s.at)));
                    ev.push(after.start, after.clone(), (root.clone(), set));
                }
            }
            _ => {}
        }
    }
    ev
}

/// The variable a comparison upper-bounds (post-negation when `negated`)
/// against an untainted other side. `n < MIN` style lower bounds return
/// `None` — they validate nothing about allocation size.
fn bounded_var(
    tokens: &[Token],
    part: &Range<usize>,
    ev: &Events,
    negated: bool,
) -> Option<String> {
    let (lhs, op, rhs_start) = find_cmp(tokens, part)?;
    let rhs = rhs_start..part.end;
    let upper_on_lhs = if negated {
        // after `if v OP b { exit }`: ¬OP bounds v for Gt/Ge/Ne
        matches!(op, Cmp::Gt | Cmp::Ge | Cmp::Ne)
    } else {
        matches!(op, Cmp::Lt | Cmp::Le | Cmp::Eq)
    };
    let upper_on_rhs = if negated {
        matches!(op, Cmp::Lt | Cmp::Le | Cmp::Ne)
    } else {
        matches!(op, Cmp::Gt | Cmp::Ge | Cmp::Eq)
    };
    // The bound itself must not be wire-derived (`header_end > index_off`
    // with a tainted `index_off` validates nothing). A parameter-tainted
    // bound is fine: the value is then no worse than what the caller
    // already controls, and the parameter's own flows are summarized.
    if upper_on_lhs {
        if let Some(v) = simple_var(tokens, &lhs) {
            if !expr_taint(tokens, &rhs, ev).wire {
                return Some(v);
            }
        }
    }
    if upper_on_rhs {
        if let Some(v) = simple_var(tokens, &rhs) {
            if !expr_taint(tokens, &lhs, ev).wire {
                return Some(v);
            }
        }
    }
    None
}

/// A comparison side that is a single variable, modulo parentheses,
/// dereference and `as` casts: `n`, `(n as u64)`, `*n as usize`.
fn simple_var(tokens: &[Token], range: &Range<usize>) -> Option<String> {
    let mut j = range.start;
    while tok_punct(tokens, j, '(') || tok_punct(tokens, j, '*') || tok_punct(tokens, j, '&') {
        j += 1;
    }
    let var = tok_ident(tokens, j)?;
    let mut k = j + 1;
    while k < range.end {
        match tokens.get(k) {
            Some(t) if t.is_punct(')') => {}
            Some(t) if t.ident() == Some("as") => {}
            Some(t) if t.ident().is_some() && tok_ident(tokens, k - 1) == Some("as") => {
                let _ = t;
            }
            _ => return None,
        }
        k += 1;
    }
    Some(var.to_string())
}

// ---------------------------------------------------------------------------
// Sinks and interprocedural summaries
// ---------------------------------------------------------------------------

/// A binary `+` or `*` at depth 0 (overflow candidates feeding a sink).
fn depth0_arith(tokens: &[Token], range: &Range<usize>) -> bool {
    depth0(tokens, range.clone()).any(|j| binary_arith_at(tokens, range, j))
}

/// A binary `+` or `*` anywhere in the range, parenthesized or not —
/// used for `let t = (a * b) as usize;` bindings that feed a sink.
fn any_arith(tokens: &[Token], range: &Range<usize>) -> bool {
    (range.start..range.end).any(|j| binary_arith_at(tokens, range, j))
}

fn binary_arith_at(tokens: &[Token], range: &Range<usize>, j: usize) -> bool {
    let Some(t) = tokens.get(j) else { return false };
    if !(t.is_punct('+') || t.is_punct('*')) || j == range.start {
        return false;
    }
    // Binary, not unary/deref: an operand must precede.
    tokens
        .get(j.wrapping_sub(1))
        .is_some_and(|prev| prev.ident().is_some() || prev.is_punct(')') || prev.is_punct(']'))
}

struct Ctx<'a> {
    sources: &'a [SourceFile],
    parsed: &'a [ParsedFile],
    /// Per file: inside the wire-facing crates.
    in_scope: Vec<bool>,
}

type Key = FnRef;
/// The parameter positions whose value reaches a sink.
type Flows = Vec<usize>;

/// Bottom-up param→sink summary with conservative cycle cut: a back
/// edge (`visiting` hit) contributes no flows.
fn summarize(
    ctx: &Ctx,
    key: Key,
    memo: &mut BTreeMap<Key, Flows>,
    viols: &mut BTreeMap<Key, Vec<Violation>>,
    visiting: &mut BTreeSet<Key>,
) -> Flows {
    if let Some(m) = memo.get(&key) {
        return m.clone();
    }
    if !visiting.insert(key) {
        return Vec::new();
    }
    let (flows, v) = analyze_fn(ctx, key, memo, viols, visiting);
    visiting.remove(&key);
    memo.insert(key, flows.clone());
    viols.insert(key, v);
    flows
}

/// The sink findings and parameter flows of one function under scan.
struct Sinks<'a> {
    path: &'a str,
    tokens: &'a [Token],
    ev: &'a Events,
    params: usize,
    flows: Flows,
    out: Vec<Violation>,
    /// Sink arguments that carried wire taint.
    wire_args: Vec<Range<usize>>,
}

impl Sinks<'_> {
    /// A sink argument: wire taint is a finding, parameter taint a
    /// summary flow.
    fn sink(&mut self, range: Range<usize>, line: usize, what: &str) {
        let set = expr_taint(self.tokens, &range, self.ev);
        if set.wire {
            self.out.push(violation(
                self.path,
                line,
                "taint.wire-alloc",
                format!("wire-derived value reaches {what} without a recognized bounds check"),
            ));
            if depth0_arith(self.tokens, &range) {
                self.out.push(violation(
                    self.path,
                    line,
                    "taint.wire-arith",
                    format!("overflowable arithmetic on wire-derived operands feeds {what}"),
                ));
            }
            self.wire_args.push(range);
        }
        self.flow(set);
    }

    fn flow(&mut self, set: TaintSet) {
        for k in 0..self.params.min(64) {
            if set.params & (1u64 << k) != 0 {
                self.flows.push(k);
            }
        }
    }
}

/// Full sink scan of one function: wire-tainted sink reaches become
/// violations, parameter-tainted ones become summary flows.
fn analyze_fn(
    ctx: &Ctx,
    key: Key,
    memo: &mut BTreeMap<Key, Flows>,
    viols: &mut BTreeMap<Key, Vec<Violation>>,
    visiting: &mut BTreeSet<Key>,
) -> (Flows, Vec<Violation>) {
    let f = ctx.parsed.get(key.0).and_then(|pf| pf.fns.get(key.1));
    let (Some(sf), Some(f)) = (ctx.sources.get(key.0), f) else {
        return (Vec::new(), Vec::new());
    };
    let tokens = &sf.tokens;
    let ev = collect_events(tokens, f);
    let mut s = Sinks {
        path: &sf.path,
        tokens,
        ev: &ev,
        params: f.params.len(),
        flows: Vec::new(),
        out: Vec::new(),
        wire_args: Vec::new(),
    };
    let line_of = |i: usize| tokens.get(i).map_or(f.line, |t| t.line);

    // `vec![elem; count]`, a macro the statement model does not lower.
    for i in f.body.clone() {
        if tok_ident(tokens, i) == Some("vec") && tok_punct(tokens, i + 1, '!') {
            if let Some(count) =
                repeat_count(tokens, i + 2).filter(|_| tok_punct(tokens, i + 2, '['))
            {
                s.sink(count, line_of(i), "a `vec![elem; n]` length");
            }
        }
    }
    // `for P in A..B {` — an unvalidated count as iteration bound.
    for st in &f.stmts {
        let StmtKind::For { iter, .. } = &st.kind else {
            continue;
        };
        let dotdot = (iter.start..iter.end.saturating_sub(1))
            .any(|j| tok_punct(tokens, j, '.') && tok_punct(tokens, j + 1, '.'));
        if dotdot {
            s.sink(iter.clone(), line_of(st.at), "a loop bound");
        }
    }

    // Allocation methods are sinks; any other call is one where the
    // callee's summary says an argument position reaches a sink.
    for call in &f.calls {
        let name = call.callee();
        if ALLOC_METHODS.contains(&name) && (call.is_method || call.path.contains(':')) {
            let what = format!("`{name}`");
            s.sink(call.args.clone(), call.line, &what);
            continue;
        }
        let target = call
            .target
            .filter(|t| *t != key && ctx.in_scope.get(t.0) == Some(&true));
        let Some(target) = target else { continue };
        for k in summarize(ctx, target, memo, viols, visiting) {
            let Some(arg) = call.param_arg(tokens, k) else {
                continue;
            };
            let set = expr_taint(tokens, &arg, &ev);
            if set.wire {
                s.out.push(violation(
                    &sf.path,
                    call.line,
                    "taint.wire-alloc",
                    format!(
                        "wire-derived argument flows into `{name}`, \
                         where it reaches an allocation/loop bound unvalidated"
                    ),
                ));
                s.wire_args.push(arg);
            }
            s.flow(set);
        }
    }

    // One-hop arith feeding a sink: `let t = a * b; .. with_capacity(t)`.
    for st in &f.stmts {
        let StmtKind::Let { var, rhs, .. } = &st.kind else {
            continue;
        };
        if !any_arith(tokens, rhs) || !expr_taint(tokens, rhs, &ev).wire {
            continue;
        }
        let feeds = s.wire_args.iter().any(|r| {
            r.clone().any(|j| {
                tok_ident(tokens, j) == Some(var.as_str())
                    && !tok_punct(tokens, j.wrapping_sub(1), '.')
                    && !tok_punct(tokens, j.wrapping_sub(1), ':')
            })
        });
        if feeds {
            s.out.push(violation(
                &sf.path,
                line_of(st.at),
                "taint.wire-arith",
                format!("overflowable arithmetic on wire-derived operands binds `{var}`, which feeds a sink"),
            ));
        }
    }

    let (mut flows, out) = (s.flows, s.out);
    flows.sort_unstable();
    flows.dedup();
    (flows, out)
}

/// Workspace taint pass: analyzes every function in the wire-facing
/// crates, bottom-up over the call graph.
pub fn taint_pass(sources: &[SourceFile], parsed: &[ParsedFile], out: &mut Vec<Violation>) {
    let in_scope: Vec<bool> = sources
        .iter()
        .map(|s| WIRE_SCOPES.iter().any(|w| s.path.contains(w)))
        .collect();

    let ctx = Ctx {
        sources,
        parsed,
        in_scope,
    };

    let mut memo: BTreeMap<Key, Flows> = BTreeMap::new();
    let mut viols: BTreeMap<Key, Vec<Violation>> = BTreeMap::new();
    let mut visiting: BTreeSet<Key> = BTreeSet::new();
    let keys: Vec<Key> = parsed
        .iter()
        .enumerate()
        .filter(|(fi, _)| ctx.in_scope.get(*fi) == Some(&true))
        .flat_map(|(fi, pf)| (0..pf.fns.len()).map(move |gi| (fi, gi)))
        .collect();
    for &key in &keys {
        summarize(&ctx, key, &mut memo, &mut viols, &mut visiting);
    }
    let mut seen: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    for key in keys {
        for v in viols.remove(&key).unwrap_or_default() {
            if seen.insert((v.file.clone(), v.line, v.rule)) {
                out.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_workspace;

    fn run(src: &str) -> Vec<Violation> {
        run_at("crates/link/src/test.rs", src)
    }

    fn run_at(path: &str, src: &str) -> Vec<Violation> {
        let sf = SourceFile {
            path: path.to_string(),
            tokens: lex(src),
        };
        let sources = [sf];
        let mut out = Vec::new();
        taint_pass(&sources, &parse_workspace(&sources), &mut out);
        out
    }

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn wire_count_to_with_capacity_flagged() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               Vec::with_capacity(n) }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn upper_bound_exit_guard_sanitizes() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               if n > MAX_COUNT { return Vec::new(); } \
               Vec::with_capacity(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn lower_bound_guard_does_not_sanitize() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               if n < MIN_COUNT { return Vec::new(); } \
               Vec::with_capacity(n) }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn ne_exit_guard_sanitizes() {
        let v = run("fn f(b: [u8; 4], want: usize) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               if n != want { return Vec::new(); } \
               Vec::with_capacity(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn min_clamp_sanitizes() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = (u32::from_le_bytes(b) as usize).min(64); \
               Vec::with_capacity(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn reader_count_is_trusted() {
        let v = run("fn f(payload: &[u8]) -> Result<Vec<u8>, E> { \
               let mut r = Reader::new(payload); \
               let n = r.count(8, \"samples\")?; \
               Ok(Vec::with_capacity(n)) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn arith_in_sink_arg_doubles_up() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               Vec::with_capacity(n * 8) }");
        assert_eq!(
            rules(&v),
            ["taint.wire-alloc", "taint.wire-arith"],
            "{v:#?}"
        );
    }

    #[test]
    fn arith_let_feeding_sink_flagged() {
        let v = run("fn f(b: [u8; 8]) -> Vec<u8> { \
               let n = u64::from_le_bytes(b); \
               let total = (n * 8) as usize; \
               Vec::with_capacity(total) }");
        assert_eq!(
            rules(&v),
            ["taint.wire-alloc", "taint.wire-arith"],
            "{v:#?}"
        );
    }

    #[test]
    fn match_arm_binding_is_tainted() {
        let v = run("fn f(msg: Message) -> Vec<u8> { \
               match msg { \
                 Message::StreamRequest { frames, window } => { \
                   let _ = window; \
                   Vec::with_capacity(frames as usize) \
                 } \
                 _ => Vec::new(), \
               } }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn message_construction_binds_nothing() {
        let v = run("fn f(token: u64) -> Message { \
               let reply = Message::Pong { token }; \
               let _ = Vec::<u8>::with_capacity(token as usize); \
               reply }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn read_exact_buffer_then_decode_flagged() {
        let v = run("fn f(r: &mut R) -> Vec<u8> { \
               let mut hdr = [0u8; 4]; \
               r.read_exact(&mut hdr); \
               let n = u32::from_le_bytes(hdr) as usize; \
               vec![0u8; n] }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn loop_bound_flagged() {
        let v = run("fn f(b: [u8; 4]) -> u64 { \
               let n = u32::from_le_bytes(b); \
               let mut acc = 0u64; \
               for _ in 0..n { acc += 1; } \
               acc }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
    }

    #[test]
    fn reassignment_from_clean_clears() {
        let v = run("fn f(b: [u8; 4]) -> Vec<u8> { \
               let mut n = u32::from_le_bytes(b) as usize; \
               n = 4; \
               Vec::with_capacity(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn interprocedural_param_flow_flagged_at_call_site() {
        let v = run("fn grow(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n\
             fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               grow(n) }");
        assert_eq!(rules(&v), ["taint.wire-alloc"], "{v:#?}");
        assert!(v[0].message.contains("grow"), "{v:#?}");
    }

    #[test]
    fn interprocedural_guarded_callee_is_clean() {
        let v = run("fn grow(n: usize) -> Vec<u8> { \
               if n > MAX_N { return Vec::new(); } \
               Vec::with_capacity(n) }\n\
             fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               grow(n) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn recursion_cycle_is_cut() {
        let v = run("fn a(n: usize) -> Vec<u8> { b(n) }\n\
             fn b(n: usize) -> Vec<u8> { a(n) }\n\
             fn f(x: [u8; 4]) -> Vec<u8> { a(u32::from_le_bytes(x) as usize) }");
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn non_wire_crate_is_out_of_scope() {
        let v = run_at(
            "crates/dsp/src/test.rs",
            "fn f(b: [u8; 4]) -> Vec<u8> { \
               let n = u32::from_le_bytes(b) as usize; \
               Vec::with_capacity(n) }",
        );
        assert!(v.is_empty(), "{v:#?}");
    }
}
