//! Intraprocedural dataflow: unit inference and interval proofs
//! (DESIGN.md §9.3).
//!
//! Two folds over each fn's lowered statements ([`crate::syntax`]):
//!
//! * **`flow.unit`** — tracks the physical dimension of local bindings
//!   through let-bindings, assignments and additive arithmetic. Facts are
//!   seeded three ways: typed parameters (`f: Hertz`), `bsa-units`
//!   constructors (`Hertz::new(..)`), and dimension-suggesting names
//!   (`bias_v`, `dt_s`, via [`suggested_unit_type`]). Mixing dimensions
//!   in a sum or assigning across dimensions is flagged — sites the
//!   purely syntactic `units.raw-f64` signature rule cannot see.
//! * **`flow.range`** — a bounded-interval prover for indexing and
//!   division. Scoped facts (`i + k < xs.len()`, `xs.len() > k`,
//!   `i <= xs.len()`) are harvested from loop headers, guards, asserts
//!   and clamping bindings; each `panic.indexing` site the facts cover is
//!   *discharged* (subtracted from the allowlist pressure and hidden from
//!   `reach.panic`), while definitely-out-of-bounds indices and division
//!   by a constant zero are reported as violations.
//!
//! Both passes are intraprocedural and flow-insensitive within a fact's
//! scope: facts live in the shared scoped store and are cut short where
//! the lowering records a rebinding of their variable or a rebinding or
//! shrinking mutation of their sequence ([`Store::cut`]). Everything
//! unproven is simply left to the existing allowlist machinery — the
//! prover only ever *removes* pressure, so a missed pattern is
//! conservative, never unsound.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::lexer::{Token, TokenKind};
use crate::parser::{FnItem, ParsedFile};
use crate::rules::{index_site, suggested_unit_type, violation, Violation};
use crate::summary::{RetContract, Summaries};
use crate::syntax::{
    call_arg_path, const_expr, depth0, exact_path, final_call, find_cmp, last_depth0, last_segment,
    len_minus_expr, matching, path_ending_at, path_starting_at, repeat_count, split, tok_ident,
    tok_int, tok_punct, var_plus_const, Cmp, Effect, Scoped, StmtKind, Store,
};

/// The `bsa-units` newtypes recognised as dimension constructors.
const UNIT_TYPES: &[&str] = &[
    "Volt",
    "Ampere",
    "Farad",
    "Ohm",
    "Siemens",
    "Hertz",
    "Seconds",
    "Coulomb",
    "Kelvin",
    "Meter",
    "SquareMeter",
    "Molar",
];

/// Per-file interval-proof summary: for each source line, how many direct
/// index sites `panic.indexing` flags there and how many of them the
/// prover discharged.
#[derive(Debug, Default, Clone)]
pub struct FileProofs {
    /// line → (index sites on the line, sites proven in-bounds).
    pub lines: BTreeMap<usize, (usize, usize)>,
}

impl FileProofs {
    /// Lines where *every* index site is proven in-bounds. Violations on
    /// these lines are discharged before allowlist reconciliation, and
    /// `reach.panic` treats them as non-sinks.
    pub fn fully_proven(&self) -> BTreeSet<usize> {
        self.lines
            .iter()
            .filter(|(_, (sites, proven))| *sites > 0 && proven == sites)
            .map(|(line, _)| *line)
            .collect()
    }

    /// Total discharged sites (the JSON report's `proven_sites`).
    pub fn proven_sites(&self) -> usize {
        self.lines.values().map(|(_, proven)| *proven).sum()
    }
}

/// Runs both dataflow passes over one file. `check_units` gates the
/// `flow.unit` pass (dimensioned-value crates only); the interval prover
/// always runs so proofs line up with wherever `panic.indexing` applies.
pub fn flow_pass(
    file: &str,
    tokens: &[Token],
    parsed: &ParsedFile,
    check_units: bool,
    summaries: &Summaries,
    out: &mut Vec<Violation>,
) -> FileProofs {
    let mut proofs = FileProofs::default();
    // Denominator first: every index site in the file, attributed by line,
    // so per-line totals match `panic_pass` exactly.
    for (i, t) in tokens.iter().enumerate() {
        if index_site(tokens, i) {
            proofs.lines.entry(t.line).or_insert((0, 0)).0 += 1;
        }
    }

    let mut proven_positions: BTreeSet<usize> = BTreeSet::new();
    for f in &parsed.fns {
        let facts = collect_facts(tokens, f, summaries);
        prove_sites(file, tokens, f, &facts, &mut proven_positions, out);
        division_check(file, tokens, f, &facts, out);
        if check_units {
            unit_pass(file, tokens, f, out);
        }
    }
    for pos in &proven_positions {
        if let Some(t) = tokens.get(*pos) {
            if let Some(entry) = proofs.lines.get_mut(&t.line) {
                entry.1 += 1;
            }
        }
    }
    proofs
}

// ---------------------------------------------------------------------------
// Interval facts
// ---------------------------------------------------------------------------

/// One interval fact, valid over a token-index scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Fact {
    /// `var + max_off < seq.len()` — proves `seq[var + c]` for
    /// `c <= max_off`, plus the range positions `seq[var..]` / `seq[..var]`.
    VarBound {
        var: String,
        seq: String,
        max_off: u64,
    },
    /// `var <= seq.len()` — proves only range positions `seq[var..]` and
    /// `seq[..var]` (e.g. a `partition_point` result).
    UpToLen { var: String, seq: String },
    /// `seq.len() > min_len` — proves `seq[c]` for constant `c <= min_len`.
    MinLen { seq: String, min_len: u64 },
    /// `seq.len() == len` exactly (a `[e; N]` array binding) — proves
    /// constant indices below `len` and *refutes* those at or above it.
    ExactLen { seq: String, len: u64 },
    /// `seq.len() == path` for a symbolic count (a `vec![e; n]` binding or
    /// `assert_eq!(seq.len(), n)`) — combines with [`Fact::VarLtPath`]
    /// and with `seq[e % path]` modulo indices.
    EqLenPath { seq: String, path: String },
    /// `var < path` for a symbolic bound (a guard against a count
    /// variable, or a function-summary contract at a call site).
    VarLtPath { var: String, path: String },
    /// `var <= max` for a constant bound (a `.min(c)`-shaped function
    /// summary) — proves `seq[var + c]` once a length fact covers it.
    VarLeConst { var: String, max: u64 },
    /// `var` is bound to the integer constant zero (division tracking).
    ZeroConst { var: String },
}

/// The interval facts of one fn body.
pub(crate) type Facts = Store<Fact>;

/// Facts under collection. `Some(k)` marks a fact formed by a
/// `seq.len() - k` subtraction: it is only valid if `seq.len() >= k`
/// where it was formed — in a release build the subtraction would
/// otherwise wrap rather than panic, and the wrapped value reaches the
/// index — so [`collect_facts`] drops it unless an unconditional length
/// fact covers it.
type Pending = Store<(Fact, Option<u64>)>;

/// `fact` proves `seq.len() > k`.
fn len_exceeds(fact: &Fact, seq: &str, k: u64) -> bool {
    match fact {
        Fact::MinLen { seq: s, min_len } => s == seq && *min_len >= k,
        Fact::ExactLen { seq: s, len } => s == seq && *len > k,
        _ => false,
    }
}

/// The variable a fact dies with when rebound, and the sequences (last
/// path segments) it dies with when rebound or shrunk. A symbolic count
/// is cut like a sequence.
fn fact_names(fact: &Fact) -> (Option<&str>, Vec<&str>) {
    match fact {
        Fact::VarBound { var, seq, .. } | Fact::UpToLen { var, seq } => {
            (Some(var), vec![last_segment(seq)])
        }
        Fact::MinLen { seq, .. } | Fact::ExactLen { seq, .. } => (None, vec![last_segment(seq)]),
        Fact::EqLenPath { seq, path } => (None, vec![last_segment(seq), last_segment(path)]),
        Fact::VarLtPath { var, path } => (Some(var), vec![last_segment(path)]),
        Fact::VarLeConst { var, .. } | Fact::ZeroConst { var } => (Some(var), Vec::new()),
    }
}

/// Folds one fn's lowered statements into scoped interval facts.
/// `summaries` supplies cross-function return-bound contracts consumed
/// at call-site bindings and for-loop iterators (see `crate::summary`).
pub(crate) fn collect_facts(tokens: &[Token], f: &FnItem, summaries: &Summaries) -> Facts {
    let mut raw = Pending::default();
    for s in &f.stmts {
        match &s.kind {
            StmtKind::For { pat, iter, body } => {
                for_facts(tokens, pat, iter, body, summaries, &mut raw);
            }
            // Facts from a true condition hold inside the body whether
            // or not it falls through (for `while`, the scope cut keeps
            // only uses the loop-head check dominates); after an `if`
            // body that always exits, the negated condition holds for the
            // rest of the enclosing block.
            StmtKind::Guard {
                parts,
                joined_by,
                exits,
                body,
                after,
            } => {
                let mut add = |scope: &Range<usize>, negated: bool| {
                    for p in parts {
                        let fact = if negated {
                            negated_fact(tokens, p)
                        } else {
                            positive_fact(tokens, p)
                        };
                        if let Some(fact) = fact {
                            raw.push(scope.start, scope.clone(), (fact, None));
                        }
                    }
                };
                if *joined_by != Some('|') {
                    add(body, false);
                }
                if *exits && *joined_by != Some('&') {
                    add(after, true);
                }
            }
            StmtKind::Assert { eq, args, scope } => {
                let facts: Vec<Fact> = if *eq {
                    assert_eq_fact(tokens, args).into_iter().collect()
                } else if split(tokens, args, &['|', '|']).len() == 1 {
                    let conjuncts = split(tokens, args, &['&', '&']);
                    conjuncts
                        .iter()
                        .filter_map(|c| positive_fact(tokens, c))
                        .collect()
                } else {
                    Vec::new()
                };
                for fact in facts {
                    raw.push(scope.start, scope.clone(), (fact, None));
                }
            }
            StmtKind::Let {
                var, rhs, scope, ..
            } => {
                if let Some(fact) = let_fact(tokens, var, rhs, summaries) {
                    raw.push(scope.start, scope.clone(), fact);
                }
            }
            StmtKind::Call {
                effect: Effect::Window,
                args,
                ..
            } => window_closure_fact(tokens, args, &mut raw),
            _ => {}
        }
    }
    raw.cut(&f.rebinds, |(fact, _)| fact_names(fact));
    // Length-dependent facts stand only where the subtraction cannot
    // wrap: keep each one only if an unconditional fact proves
    // `seq.len() >= k` at its origin.
    let entries = raw
        .entries
        .iter()
        .filter(|e| match &e.value {
            (Fact::VarBound { seq, .. } | Fact::UpToLen { seq, .. }, Some(need)) => {
                raw.entries.iter().any(|g| {
                    g.value.1.is_none()
                        && g.scope.contains(&e.scope.start)
                        && len_exceeds(&g.value.0, seq, need - 1)
                })
            }
            _ => true,
        })
        .map(|e| Scoped {
            start: e.start,
            scope: e.scope.clone(),
            value: e.value.0.clone(),
        })
        .collect();
    Store { entries }
}

/// `for PAT in ITER { .. }` — bounds from the iterator shapes we
/// recognise: `0..len`-style ranges, `.iter().enumerate()`,
/// `windows(k)` / `chunks_exact(k)`, and calls to functions whose
/// summary promises every yielded element is below a parameter.
fn for_facts(
    tokens: &[Token],
    pat: &Range<usize>,
    iter: &Range<usize>,
    body: &Range<usize>,
    summaries: &Summaries,
    raw: &mut Pending,
) {
    // Pattern: a single ident, or a tuple whose first ident is the index.
    let tuple =
        tok_punct(tokens, pat.start, '(') && matching(tokens, pat.start) == Some(pat.end - 1);
    let var = match (pat.len(), tuple) {
        (1, _) => tok_ident(tokens, pat.start),
        (_, true) => tok_ident(tokens, pat.start + 1),
        _ => None,
    };
    let Some(var) = var.map(str::to_string) else {
        return;
    };
    let mut push = |fact, needs_len| raw.push(body.start, body.clone(), (fact, needs_len));

    // `0..PATH.len() [- k]` and the inclusive `0..=…` variants.
    if tok_int(tokens, iter.start) == Some(0)
        && tok_punct(tokens, iter.start + 1, '.')
        && tok_punct(tokens, iter.start + 2, '.')
    {
        let inclusive = tok_punct(tokens, iter.start + 3, '=');
        let expr = iter.start + 3 + usize::from(inclusive)..iter.end;
        if let Some((seq, k)) = len_minus_expr(tokens, &expr) {
            let fact = match (inclusive, k) {
                (true, 0) => Fact::UpToLen { var, seq },
                (true, k) => Fact::VarBound {
                    var,
                    seq,
                    max_off: k - 1,
                },
                (false, k) => Fact::VarBound {
                    var,
                    seq,
                    max_off: k,
                },
            };
            // `0..len - k` wraps in release when `len < k`, and the loop
            // then runs with wild indices.
            return push(fact, (k >= 1).then_some(k));
        }
    }
    let Some((path, after)) = path_starting_at(tokens, iter.start) else {
        return;
    };
    let args = matching(tokens, after)
        .filter(|c| tok_punct(tokens, after, '(') && c + 1 == iter.end)
        .map(|c| after + 1..c);
    // `PATH.iter().enumerate()` / `PATH.iter_mut().enumerate()`.
    let seq = path
        .strip_suffix(".iter")
        .or(path.strip_suffix(".iter_mut"));
    if let Some(seq) = seq {
        if tok_punct(tokens, after, '(')
            && tok_punct(tokens, after + 1, ')')
            && tok_punct(tokens, after + 2, '.')
            && tok_ident(tokens, after + 3) == Some("enumerate")
            && tok_punct(tokens, after + 4, '(')
            && tok_punct(tokens, after + 5, ')')
            && after + 6 == iter.end
        {
            let seq = seq.to_string();
            push(
                Fact::VarBound {
                    var,
                    seq,
                    max_off: 0,
                },
                None,
            );
        }
        return;
    }
    // `PATH.windows(k)` / `PATH.chunks_exact(k)`: the loop variable is
    // itself a slice of exactly `k` elements.
    if path.ends_with(".windows") || path.ends_with(".chunks_exact") {
        if let Some(len) = args
            .and_then(|a| const_expr(tokens, &a))
            .filter(|k| *k >= 1)
        {
            push(Fact::ExactLen { seq: var, len }, None);
        }
        return;
    }
    // `for v in f(a, b, ..) {}` where `f`'s summary promises every
    // yielded element is `< param k` — bind `v < arg_k` in the body.
    if let (Some(k), Some(args)) = (summaries.elems_lt_param(&path), args) {
        if let Some(path) = call_arg_path(tokens, &args, k) {
            push(Fact::VarLtPath { var, path }, None);
        }
    }
}

/// `.windows(k)` / `.chunks_exact(k)` followed by a closure-taking
/// adapter (`.filter(|w| ..)`, `.map(|w| ..)`): the closure parameter is a
/// slice of exactly `k` elements inside the closure body.
fn window_closure_fact(tokens: &[Token], args: &Range<usize>, raw: &mut Pending) {
    let Some(len) = const_expr(tokens, args).filter(|k| *k >= 1) else {
        return;
    };
    // Walk the adapter chain; bind the first closure parameter we find.
    let mut j = args.end + 1;
    while tok_punct(tokens, j, '.') && tok_ident(tokens, j + 1).is_some() {
        let Some(close) = matching(tokens, j + 2).filter(|_| tok_punct(tokens, j + 2, '(')) else {
            return;
        };
        let param = tok_ident(tokens, j + 4)
            .filter(|_| tok_punct(tokens, j + 3, '|') && tok_punct(tokens, j + 5, '|'));
        if let Some(param) = param {
            let seq = param.to_string();
            raw.push(j + 6, j + 6..close, (Fact::ExactLen { seq, len }, None));
            return;
        }
        j = close + 1;
    }
}

/// `PATH.is_empty()` spanning exactly `range`; returns `PATH`.
fn is_empty_call(tokens: &[Token], range: &Range<usize>) -> Option<String> {
    let (path, after) = path_starting_at(tokens, range.start)?;
    let seq = path.strip_suffix(".is_empty")?;
    (tok_punct(tokens, after, '(') && tok_punct(tokens, after + 1, ')') && after + 2 == range.end)
        .then(|| seq.to_string())
}

/// Facts a *true* conjunct establishes (used for `if COND {}` bodies and
/// `assert!(COND)` tails).
fn positive_fact(tokens: &[Token], conjunct: &Range<usize>) -> Option<Fact> {
    // `!PATH.is_empty()`
    if tok_punct(tokens, conjunct.start, '!') {
        let seq = is_empty_call(tokens, &(conjunct.start + 1..conjunct.end))?;
        return Some(Fact::MinLen { seq, min_len: 0 });
    }
    let (lhs, op, rhs_start) = find_cmp(tokens, conjunct)?;
    let rhs = rhs_start..conjunct.end;
    // `PATH.len() CMP k`
    if let Some((seq, 0)) = len_minus_expr(tokens, &lhs) {
        let k = const_expr(tokens, &rhs)?;
        return match op {
            Cmp::Gt => Some(Fact::MinLen { seq, min_len: k }),
            Cmp::Ge | Cmp::Eq if k >= 1 => Some(Fact::MinLen {
                seq,
                min_len: k - 1,
            }),
            _ => None,
        };
    }
    // `k CMP PATH.len()`
    if let Some(k) = const_expr(tokens, &lhs) {
        let (seq, 0) = len_minus_expr(tokens, &rhs)? else {
            return None;
        };
        return match op {
            Cmp::Lt => Some(Fact::MinLen { seq, min_len: k }),
            Cmp::Le | Cmp::Eq if k >= 1 => Some(Fact::MinLen {
                seq,
                min_len: k - 1,
            }),
            _ => None,
        };
    }
    // `var [+ c] CMP PATH.len() [- s]`
    let (var, c) = var_plus_const(tokens, &lhs)?;
    if let Some((seq, s)) = len_minus_expr(tokens, &rhs) {
        return match op {
            Cmp::Lt => Some(Fact::VarBound {
                var,
                seq,
                max_off: c + s,
            }),
            Cmp::Le if c + s >= 1 => Some(Fact::VarBound {
                var,
                seq,
                max_off: c + s - 1,
            }),
            Cmp::Le => Some(Fact::UpToLen { var, seq }),
            _ => None,
        };
    }
    // `[*]var < PATH` against a symbolic count (not a `.len()` call).
    let path = exact_path(tokens, &rhs).filter(|_| c == 0 && op == Cmp::Lt)?;
    Some(Fact::VarLtPath { var, path })
}

/// Facts the *negation* of a disjunct establishes (early-exit guards).
fn negated_fact(tokens: &[Token], disjunct: &Range<usize>) -> Option<Fact> {
    // `PATH.is_empty()` → ¬ → len ≥ 1.
    if let Some(seq) = is_empty_call(tokens, disjunct) {
        return Some(Fact::MinLen { seq, min_len: 0 });
    }
    let (lhs, op, rhs_start) = find_cmp(tokens, disjunct)?;
    let rhs = rhs_start..disjunct.end;
    // `PATH.len() < k` → ¬ → len ≥ k; `PATH.len() == 0` → ¬ → len ≥ 1.
    if let Some((seq, 0)) = len_minus_expr(tokens, &lhs) {
        let k = const_expr(tokens, &rhs)?;
        return match op {
            Cmp::Lt if k >= 1 => Some(Fact::MinLen {
                seq,
                min_len: k - 1,
            }),
            Cmp::Le => Some(Fact::MinLen { seq, min_len: k }),
            Cmp::Eq if k == 0 => Some(Fact::MinLen { seq, min_len: 0 }),
            _ => None,
        };
    }
    // `var [+ c] >= PATH.len()` → ¬ → var + c < len;
    // `var [+ c] > PATH.len()` → ¬ → var + c ≤ len.
    let (var, c) = var_plus_const(tokens, &lhs)?;
    if let Some((seq, s)) = len_minus_expr(tokens, &rhs) {
        return match op {
            _ if s != 0 => None,
            Cmp::Ge => Some(Fact::VarBound {
                var,
                seq,
                max_off: c,
            }),
            Cmp::Gt if c >= 1 => Some(Fact::VarBound {
                var,
                seq,
                max_off: c - 1,
            }),
            Cmp::Gt => Some(Fact::UpToLen { var, seq }),
            _ => None,
        };
    }
    // `[*]var >= PATH` → ¬ → var < PATH (symbolic count).
    let path = exact_path(tokens, &rhs).filter(|_| c == 0 && op == Cmp::Ge)?;
    Some(Fact::VarLtPath { var, path })
}

/// `assert_eq!(PATH.len(), k[, msg..])` (either operand order, a
/// trailing format message tolerated): `k` a literal gives an exact
/// length, `k` a path gives a symbolic length equation.
fn assert_eq_fact(tokens: &[Token], args: &Range<usize>) -> Option<Fact> {
    let parts = split(tokens, args, &[',']);
    let (a, b) = (parts.first()?, parts.get(1)?);
    for (len_side, k_side) in [(a, b), (b, a)] {
        let Some((seq, 0)) = len_minus_expr(tokens, len_side) else {
            continue;
        };
        if let Some(len) = const_expr(tokens, k_side).filter(|k| *k >= 1) {
            return Some(Fact::ExactLen { seq, len });
        }
        if let Some(path) = exact_path(tokens, k_side) {
            return Some(Fact::EqLenPath { seq, path });
        }
    }
    None
}

/// Bindings that create facts: constant zero, `[e; N]` arrays,
/// `vec![e; n]` lengths, calls to functions with a return-bound summary,
/// `partition_point` and clamps (`.min(PATH.len() - k)`).
fn let_fact(
    tokens: &[Token],
    var: &str,
    rhs: &Range<usize>,
    summaries: &Summaries,
) -> Option<(Fact, Option<u64>)> {
    let var = var.to_string();
    // `let v = 0;`
    if const_expr(tokens, rhs) == Some(0) {
        return Some((Fact::ZeroConst { var }, None));
    }
    // `let v = [e; N];` / `let v = vec![e; COUNT];` — a literal count
    // gives an exact length, a path count (`vec!` only) the symbolic
    // equation `v.len() == COUNT`.
    let is_vec = tok_ident(tokens, rhs.start) == Some("vec")
        && tok_punct(tokens, rhs.start + 1, '!')
        && tok_punct(tokens, rhs.start + 2, '[');
    if is_vec || tok_punct(tokens, rhs.start, '[') {
        let open = rhs.start + if is_vec { 2 } else { 0 };
        let count = repeat_count(tokens, open).filter(|c| c.end + 1 == rhs.end)?;
        if let Some(len) = const_expr(tokens, &count) {
            return (len >= 1).then_some((Fact::ExactLen { seq: var, len }, None));
        }
        let path = exact_path(tokens, &count).filter(|_| is_vec)?;
        return Some((Fact::EqLenPath { seq: var, path }, None));
    }
    // `let v = f(a, b, ..)[?];` with a return-bound summary for `f`: the
    // contract, instantiated with the call's arguments, bounds `v`.
    // `let v = PATH.partition_point(..);` — result ≤ PATH.len().
    if let Some((path, after)) = path_starting_at(tokens, rhs.start) {
        let close = matching(tokens, after).filter(|_| tok_punct(tokens, after, '('));
        if let Some(close) = close {
            let args = after + 1..close;
            let whole = close + 1 == rhs.end;
            let tried = tok_punct(tokens, close + 1, '?') && close + 2 == rhs.end;
            let contract = summaries.ret_contract(&path).filter(|_| whole || tried);
            let fact = contract.and_then(|contract| match contract {
                RetContract::LtParam(k) => {
                    call_arg_path(tokens, &args, *k).map(|path| Fact::VarLtPath {
                        var: var.clone(),
                        path,
                    })
                }
                RetContract::LtLenOfParam(k) => {
                    call_arg_path(tokens, &args, *k).map(|seq| Fact::VarBound {
                        var: var.clone(),
                        seq,
                        max_off: 0,
                    })
                }
                RetContract::LeConst(c) => Some(Fact::VarLeConst {
                    var: var.clone(),
                    max: *c,
                }),
                RetContract::ElemsLtParam(_) => None,
            });
            if let Some(fact) = fact {
                return Some((fact, None));
            }
            if let Some(seq) = path.strip_suffix(".partition_point").filter(|_| whole) {
                let seq = seq.to_string();
                return Some((Fact::UpToLen { var, seq }, None));
            }
        }
    }
    // `let v = EXPR.min(PATH.len() - k);` — the clamp must be the RHS's
    // final call so nothing widens the value afterwards. `.min(len() -
    // s)` wraps in release when `len < s`, clamping to nothing at all.
    let (seq, s) = len_minus_expr(tokens, &final_call(tokens, rhs, &["min"])?)?;
    let fact = if s >= 1 {
        Fact::VarBound {
            var,
            seq,
            max_off: s - 1,
        }
    } else {
        Fact::UpToLen { var, seq }
    };
    Some((fact, (s >= 1).then_some(s)))
}

// ---------------------------------------------------------------------------
// Site proving
// ---------------------------------------------------------------------------

/// Checks every `panic.indexing` site in `f`'s body against the facts;
/// proven sites land in `proven`, definite out-of-bounds accesses in
/// `out`. Index sites nested inside a checked index are not visited.
fn prove_sites(
    file: &str,
    tokens: &[Token],
    f: &FnItem,
    facts: &Facts,
    proven: &mut BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    let mut i = f.body.start;
    while i < f.body.end {
        let site = index_site(tokens, i) && !proven.contains(&i);
        if let Some(close) = matching(tokens, i).filter(|_| site) {
            if let Some(seq) = path_ending_at(tokens, i - 1) {
                match prove_index(tokens, &(i + 1..close), &seq, facts, i) {
                    Proof::InBounds => {
                        proven.insert(i);
                    }
                    Proof::OutOfBounds(msg) => {
                        let line = tokens.get(i).map_or(f.line, |t| t.line);
                        out.push(violation(file, line, "flow.range", msg));
                    }
                    Proof::Unknown => {}
                }
            }
            i = close;
        }
        i += 1;
    }
}

pub(crate) enum Proof {
    InBounds,
    OutOfBounds(String),
    Unknown,
}

impl From<bool> for Proof {
    fn from(proven: bool) -> Self {
        if proven {
            Proof::InBounds
        } else {
            Proof::Unknown
        }
    }
}

/// Decides one index expression `seq[expr]` at token position `at`.
pub(crate) fn prove_index(
    tokens: &[Token],
    expr: &Range<usize>,
    seq: &str,
    facts: &Facts,
    at: usize,
) -> Proof {
    let holds = |pred: &dyn Fn(&Fact) -> bool| facts.at(at).any(pred);
    // Range forms first: `[lo..]`, `[..hi]`, `[lo..hi]` (`..=` is not
    // proven).
    let dots = depth0(tokens, expr.clone())
        .find(|&j| j + 1 < expr.end && tok_punct(tokens, j, '.') && tok_punct(tokens, j + 1, '.'));
    if let Some(dots) = dots.filter(|&d| !tok_punct(tokens, d + 2, '=')) {
        let lo = expr.start..dots;
        let hi = dots + 2..expr.end;
        // `lo..hi` with both present also needs lo ≤ hi, which we only
        // prove when lo is empty, zero, or lo and hi are both constants.
        let ordered = lo.is_empty()
            || tok_int(tokens, lo.start) == Some(0)
            || match (const_expr(tokens, &lo), const_expr(tokens, &hi)) {
                (Some(a), Some(b)) => a <= b,
                _ => hi.is_empty(),
            };
        let ok = |side| range_pos_ok(tokens, side, seq, facts, at);
        return (ok(&lo) && ok(&hi) && ordered).into();
    }
    // `seq[E % COUNT]`: the remainder is `< COUNT`, so the index is in
    // bounds whenever `COUNT` equals `seq`'s length — either literally
    // (`E % seq.len()`) or via an `EqLenPath` equation. (An empty `seq`
    // makes the `%` itself panic before the index executes, so the index
    // site still cannot go out of bounds.)
    if let Some(m) = last_depth0(tokens, expr, '%') {
        let rhs = m + 1..expr.end;
        let by_len = len_minus_expr(tokens, &rhs).is_some_and(|(p, k)| k == 0 && p == seq);
        let by_eq = exact_path(tokens, &rhs).is_some_and(|p| {
            holds(&|f| matches!(f, Fact::EqLenPath { seq: s, path } if s == seq && *path == p))
        });
        return (by_len || by_eq).into();
    }
    // `seq[seq.len()]` / `seq[seq.len() - k]`. The subtraction wraps in a
    // release build when `len < k` and the wrapped index reaches the
    // slice, so `len() - k` is only proof once the length is known ≥ k.
    if let Some((path, k)) = len_minus_expr(tokens, expr) {
        return match k {
            _ if path != seq => Proof::Unknown,
            0 => Proof::OutOfBounds(format!(
                "`{seq}[{seq}.len()]` is always out of bounds — the last element is at `len() - 1`"
            )),
            k => holds(&|f| len_exceeds(f, seq, k - 1)).into(),
        };
    }
    // Constant index; an exact length *refutes* those at or above it.
    if let Some(c) = const_expr(tokens, expr) {
        if holds(&|f| len_exceeds(f, seq, c)) {
            return Proof::InBounds;
        }
        let exact = facts.at(at).find_map(|f| match f {
            Fact::ExactLen { seq: s, len } if s == seq && *len <= c => Some(*len),
            _ => None,
        });
        return match exact {
            Some(len) => Proof::OutOfBounds(format!(
                "index {c} is out of bounds for `{seq}`, which has exactly {len} element(s)"
            )),
            None => Proof::Unknown,
        };
    }
    // `seq[var]` / `seq[var + c]` / `seq[c + var]`.
    let commuted = || {
        let c = tok_int(tokens, expr.start)?;
        let v = tok_ident(tokens, expr.start + 2)?;
        (tok_punct(tokens, expr.start + 1, '+') && expr.start + 3 == expr.end)
            .then(|| (v.to_string(), c))
    };
    if let Some((var, c)) = var_plus_const(tokens, expr).or_else(commuted) {
        let bound = holds(
            &|f| matches!(f, Fact::VarBound { var: v, seq: s, max_off } if *v == var && s == seq && *max_off >= c),
        );
        // `var < count` joined with `seq.len() == count` (c must be 0 —
        // nothing relates `var + c` to the count).
        let joined = c == 0
            && holds(&|a| match a {
                Fact::VarLtPath { var: v, path } if *v == var => holds(
                    &|b| matches!(b, Fact::EqLenPath { seq: s, path: p } if s == seq && p == path),
                ),
                _ => false,
            });
        // `var <= m` (a `.min(m)`-shaped summary) joined with a length
        // fact proving `seq.len() > m + c`.
        let clamped = holds(&|a| match a {
            Fact::VarLeConst { var: v, max } if *v == var => {
                holds(&|f| len_exceeds(f, seq, max + c))
            }
            _ => false,
        });
        return (bound || joined || clamped).into();
    }
    // `seq[rng.gen_range(0..seq.len())]` — the sampled index is < len by
    // construction (an empty range panics in `gen_range`, not here).
    let Some((path, after)) = path_starting_at(tokens, expr.start) else {
        return Proof::Unknown;
    };
    let sampled = path.ends_with(".gen_range")
        && tok_int(tokens, after + 1) == Some(0)
        && tok_punct(tokens, after + 2, '.')
        && tok_punct(tokens, after + 3, '.')
        && matching(tokens, after).map(|c| c + 1) == Some(expr.end)
        && len_minus_expr(tokens, &(after + 4..expr.end - 1)) == Some((seq.to_string(), 0));
    sampled.into()
}

/// Is one side of a range position (`seq[pos..]` / `seq[..pos]`) proven
/// to satisfy `pos <= seq.len()`? An empty side trivially is.
fn range_pos_ok(
    tokens: &[Token],
    side: &Range<usize>,
    seq: &str,
    facts: &Facts,
    at: usize,
) -> bool {
    let holds = |pred: &dyn Fn(&Fact) -> bool| facts.at(at).any(pred);
    if side.is_empty() {
        return true;
    }
    // `seq[..c]` and `seq[..seq.len() - k]`: for `k >= 1` the subtraction
    // wraps in a release build when `len < k`, and the wrapped position
    // reaches the slice — require the length to be known ≥ k first.
    let need = match (const_expr(tokens, side), len_minus_expr(tokens, side)) {
        (Some(c), _) => Some(c),
        (None, Some((path, k))) if path == seq => Some(k),
        (None, Some(_)) => return false,
        (None, None) => None,
    };
    if let Some(k) = need {
        return k == 0 || holds(&|f| len_exceeds(f, seq, k - 1));
    }
    let var = tok_ident(tokens, side.start).filter(|_| side.start + 1 == side.end);
    var.is_some_and(|var| {
        holds(&|f| match f {
            Fact::VarBound { var: v, seq: s, .. } | Fact::UpToLen { var: v, seq: s } => {
                v == var && s == seq
            }
            _ => false,
        })
    })
}

// ---------------------------------------------------------------------------
// Division
// ---------------------------------------------------------------------------

/// Flags `x / 0`, `x % 0` (integer literal) and division by a binding
/// proven to be constant zero.
fn division_check(
    file: &str,
    tokens: &[Token],
    f: &FnItem,
    facts: &Facts,
    out: &mut Vec<Violation>,
) {
    let mut i = f.body.start;
    while i < f.body.end {
        let op = ['/', '%'].into_iter().find(|c| tok_punct(tokens, i, *c));
        if let Some(op) = op {
            let line = tokens.get(i).map_or(f.line, |t| t.line);
            // `x /= d` puts the divisor one token later than `x / d`;
            // `//` cannot appear (comments are stripped by the lexer).
            let d = if tok_punct(tokens, i + 1, '=') {
                i + 2
            } else {
                i + 1
            };
            // The lexer folds float literals into one token, so a `.`
            // after the `0` here means a method call on it.
            if tok_int(tokens, d) == Some(0) && !tok_punct(tokens, d + 1, '.') {
                out.push(violation(
                    file,
                    line,
                    "flow.range",
                    format!(
                        "`{op} 0` always panics (or yields NaN) — divisor is the constant zero"
                    ),
                ));
            } else if let Some(var) = tok_ident(tokens, d) {
                let bare = !tok_punct(tokens, d + 1, '.') && !tok_punct(tokens, d + 1, '(');
                let zero = facts
                    .at(i)
                    .any(|fa| matches!(fa, Fact::ZeroConst { var: v } if v == var));
                if bare && zero {
                    out.push(violation(
                        file,
                        line,
                        "flow.range",
                        format!("`{op} {var}` divides by a binding that is constantly zero here"),
                    ));
                }
            }
        }
        if tok_punct(tokens, i, '=') && tok_punct(tokens, i + 1, '=') {
            i += 1; // don't look inside `==` chains
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Unit inference (flow.unit)
// ---------------------------------------------------------------------------

/// Infers the dimension of each local binding and flags cross-dimension
/// sums and assignments. Parameters seed the environment: `name: Hertz`
/// takes the declared dimension, `name: f64` the dimension the *name*
/// implies (precisely the case `units.raw-f64` tolerates in private
/// fns). `let` bindings and `=`/`+=`/`-=` assignments then propagate it;
/// `*=` and friends change dimension and are not judged.
fn unit_pass(file: &str, tokens: &[Token], f: &FnItem, out: &mut Vec<Violation>) {
    let mut env: BTreeMap<String, &'static str> = f
        .params
        .iter()
        .filter(|p| !p.name.is_empty())
        .filter_map(|p| Some((p.name.clone(), type_unit(tokens, &p.ty, &p.name)?)))
        .collect();
    for s in &f.stmts {
        let (name, explicit, rhs) = match &s.kind {
            StmtKind::Let { var, ty, rhs, .. } => {
                let explicit = ty.as_ref().and_then(|ty| type_unit(tokens, ty, var));
                (var.as_str(), explicit, rhs)
            }
            StmtKind::Assign {
                target,
                op: None | Some('+' | '-'),
                rhs,
                ..
            } => (last_segment(target), None, rhs),
            _ => continue,
        };
        let target = explicit
            .or_else(|| env.get(name).copied())
            .or_else(|| known_unit(suggested_unit_type(name)));
        let line = tokens.get(rhs.start).map_or(f.line, |t| t.line);
        let rhs_unit = infer_terms(file, tokens, rhs, &env, line, out);
        if let (Some(t), Some(r)) = (target, rhs_unit) {
            if t != r {
                out.push(violation(
                    file,
                    line,
                    "flow.unit",
                    format!("assigning a {r}-valued expression to `{name}`, which carries {t}"),
                ));
            }
        }
        if let Some(u) = rhs_unit.or(target) {
            env.insert(name.to_string(), u);
        }
    }
}

/// Narrows `suggested_unit_type` results to the dimensions the dataflow
/// lattice tracks (it suggests only the four core types today, but stay
/// robust to growth).
fn known_unit(suggested: Option<&'static str>) -> Option<&'static str> {
    suggested.filter(|u| UNIT_TYPES.contains(u))
}

/// The dimension a declared type gives the binding `name`: a `bsa-units`
/// newtype's own, or for `f64` the one the name implies. References,
/// lifetimes and `mut` are looked through.
fn type_unit(tokens: &[Token], ty: &Range<usize>, name: &str) -> Option<&'static str> {
    let first = ty.clone().find(|&j| {
        let lifetime = matches!(tokens.get(j).map(|t| &t.kind), Some(TokenKind::Lifetime(_)));
        !(tok_punct(tokens, j, '&') || tok_ident(tokens, j) == Some("mut") || lifetime)
    })?;
    match tok_ident(tokens, first)? {
        "f64" => known_unit(suggested_unit_type(name)),
        ty => UNIT_TYPES.iter().find(|u| **u == ty).copied(),
    }
}

/// Splits `rhs` into its depth-0 additive terms, infers each term's
/// dimension, flags mixed-dimension sums, and returns the common
/// dimension if every *known* term agrees (`None` = unknown).
fn infer_terms(
    file: &str,
    tokens: &[Token],
    rhs: &Range<usize>,
    env: &BTreeMap<String, &'static str>,
    line: usize,
    out: &mut Vec<Violation>,
) -> Option<&'static str> {
    let mut terms: Vec<Range<usize>> = Vec::new();
    let mut start = rhs.start;
    for j in depth0(tokens, rhs.clone()) {
        // Binary only: a `+`/`-` after an operand. Unary signs and
        // `->`/`..`-adjacent dashes don't split terms.
        let operand = j > rhs.start
            && tokens.get(j - 1).is_some_and(|p| {
                p.ident().is_some()
                    || matches!(&p.kind, TokenKind::Literal(_))
                    || p.is_punct(')')
                    || p.is_punct(']')
            });
        let sign = tok_punct(tokens, j, '+') || tok_punct(tokens, j, '-');
        if sign && operand && !tok_punct(tokens, j + 1, '>') {
            terms.push(start..j);
            start = j + 1;
        }
    }
    terms.push(start..rhs.end);

    let units: Vec<Option<&'static str>> =
        terms.iter().map(|t| term_unit(tokens, t, env)).collect();
    let mut inferred: Vec<&'static str> = Vec::new();
    for u in units.iter().flatten() {
        if !inferred.contains(u) {
            inferred.push(u);
        }
    }
    if inferred.len() > 1 {
        out.push(violation(
            file,
            line,
            "flow.unit",
            format!(
                "sum mixes dimensions: {} — convert explicitly before adding",
                inferred.join(" + ")
            ),
        ));
        return None;
    }
    // Propagate only when every term's dimension is known — a sum with an
    // opaque term could be anything.
    inferred
        .first()
        .copied()
        .filter(|_| units.iter().all(Option::is_some))
}

/// The dimension of one additive term, if statically known. Terms with
/// multiplicative structure are `None`: products and quotients change
/// dimension and the lattice does not model compound dimensions.
fn term_unit(
    tokens: &[Token],
    term: &Range<usize>,
    env: &BTreeMap<String, &'static str>,
) -> Option<&'static str> {
    // Trim a leading unary minus.
    let start = term.start + usize::from(tok_punct(tokens, term.start, '-'));
    if start >= term.end {
        return None;
    }
    // Parenthesised term: only a *single* additive group keeps its
    // dimension.
    if tok_punct(tokens, start, '(') {
        let close = matching(tokens, start).filter(|c| c + 1 == term.end)?;
        let inner = start + 1..close;
        let mut inferred = None;
        let mut seg = inner.start;
        let signs = depth0(tokens, inner.clone())
            .filter(|&j| tok_punct(tokens, j, '+') || tok_punct(tokens, j, '-'));
        for j in signs.chain([inner.end]) {
            if j <= seg && j != inner.end {
                continue;
            }
            let u = term_unit(tokens, &(seg..j), env)?;
            if inferred.is_some_and(|prev| prev != u) {
                return None;
            }
            inferred = Some(u);
            seg = j + 1;
        }
        return inferred;
    }
    // Any depth-0 `*`, `/`, `%`, `as` inside the term → unknown dimension.
    let product = depth0(tokens, start..term.end).any(|j| {
        ['*', '/', '%'].iter().any(|c| tok_punct(tokens, j, *c))
            || tok_ident(tokens, j) == Some("as")
    });
    if product {
        return None;
    }
    let (path, after) = path_starting_at(tokens, start)?;
    if let [ty, member] = path.split("::").collect::<Vec<_>>().as_slice() {
        let unit = UNIT_TYPES.iter().find(|u| *u == ty).copied();
        // `Unit::new(..)` / `Unit::from_*(..)` constructor.
        if unit.is_some() && tok_punct(tokens, after, '(') {
            return unit.filter(|_| matching(tokens, after).map(|c| c + 1) == Some(term.end));
        }
        // `Unit::ZERO`-style associated consts.
        let konst = member.chars().all(|c| c.is_ascii_uppercase() || c == '_');
        if unit.is_some() && konst && after == term.end {
            return unit;
        }
    }
    // A plain path (possibly dotted): a call result is unknown; a bare
    // value takes its dimension from the environment, else its name.
    if after != term.end {
        return None;
    }
    let last = last_segment(&path);
    env.get(last)
        .copied()
        .or_else(|| known_unit(suggested_unit_type(last)))
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run(src: &str, check_units: bool) -> (Vec<Violation>, FileProofs) {
        let tokens = lex(src);
        let parsed = parse_file("test.rs", &tokens);
        // Summaries computed from the same snippet, so cross-function
        // contract tests exercise the real pipeline shape.
        let sources = vec![crate::workspace::SourceFile {
            path: "test.rs".to_string(),
            tokens: tokens.clone(),
        }];
        let parsed_files = vec![parse_file("test.rs", &tokens)];
        let summaries = crate::summary::compute_summaries(&sources, &parsed_files);
        let mut out = Vec::new();
        let proofs = flow_pass(
            "test.rs",
            &tokens,
            &parsed,
            check_units,
            &summaries,
            &mut out,
        );
        (out, proofs)
    }

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn for_range_len_proves_index() {
        let (out, proofs) = run(
            "fn f(xs: &[f64]) -> f64 { let mut s = 0.0; for i in 0..xs.len() { s += xs[i]; } s }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
        assert_eq!(proofs.fully_proven().len(), 1);
    }

    #[test]
    fn for_range_len_minus_k_proves_offset() {
        // The `is_empty` guard proves `len >= 1`, which licenses the
        // `len() - 1` subtraction the range needs.
        let (out, proofs) = run(
            "fn f(xs: &[f64]) -> f64 { let mut s = 0.0; if xs.is_empty() { return s; } for i in 0..xs.len() - 1 { s += xs[i + 1]; } s }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn offset_beyond_bound_not_proven() {
        let (_, proofs) = run(
            "fn f(xs: &[f64]) -> f64 { let mut s = 0.0; for i in 0..xs.len() { s += xs[i + 1]; } s }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }

    #[test]
    fn enumerate_proves_index() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], ys: &[f64]) { for (i, _x) in xs.iter().enumerate() { let _ = xs[i]; } }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn enumerate_does_not_prove_other_slice() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], ys: &[f64]) { for (i, _x) in xs.iter().enumerate() { let _ = ys[i]; } }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }

    #[test]
    fn min_clamp_proves_index() {
        let (_, proofs) = run(
            "fn f(rows: &[f64], c: u32) -> f64 { if rows.is_empty() { return 0.0; } let k = (c as usize).min(rows.len() - 1); rows[k] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn unguarded_len_minus_subtractions_prove_nothing() {
        // `len() - 1` wraps in release builds when the sequence is empty,
        // so without a nonemptiness fact none of these forms is a proof.
        for src in [
            "fn f(rows: &[f64], c: u32) -> f64 { let k = (c as usize).min(rows.len() - 1); rows[k] }",
            "fn f(xs: &[f64]) -> f64 { let mut s = 0.0; for i in 0..xs.len() - 1 { s += xs[i + 1]; } s }",
            "fn f(xs: &[f64]) -> f64 { xs[xs.len() - 1] }",
            "fn f(xs: &[f64]) -> &[f64] { &xs[..xs.len() - 2] }",
        ] {
            let (out, proofs) = run(src, false);
            assert!(out.is_empty(), "{src}: {out:#?}");
            assert_eq!(proofs.proven_sites(), 0, "{src}");
        }
    }

    #[test]
    fn windows_closure_proves_pair() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], level: f64) -> usize { xs.windows(2).filter(|w| w[0] <= level && w[1] > level).count() }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 2);
    }

    #[test]
    fn windows_closure_does_not_prove_out_of_window() {
        let (out, proofs) = run(
            "fn f(xs: &[f64]) -> f64 { xs.windows(2).map(|w| w[2]).sum() }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
        // The exact window length refutes w[2] outright.
        assert_eq!(rules(&out), vec!["flow.range"]);
    }

    #[test]
    fn early_exit_guard_proves_rest_of_block() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], i: usize) -> f64 { if i + 1 >= xs.len() { return 0.0; } xs[i] + xs[i + 1] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 2);
    }

    #[test]
    fn plain_guard_scopes_to_block() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], i: usize) -> f64 { if i < xs.len() { return xs[i]; } xs[i] }",
            false,
        );
        // First site proven, second (outside the guard) is not.
        assert_eq!(proofs.proven_sites(), 1);
        assert!(proofs.fully_proven().is_empty() || proofs.lines.len() > 1);
    }

    #[test]
    fn is_empty_guard_proves_first_element() {
        let (_, proofs) = run(
            "fn f(xs: &[f64]) -> f64 { if !xs.is_empty() { xs[0] } else { 0.0 } }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn assert_proves_rest_of_fn() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], i: usize) -> f64 { assert!(i < xs.len()); xs[i] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn debug_assert_proves_nothing() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], i: usize) -> f64 { debug_assert!(i < xs.len()); xs[i] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }

    #[test]
    fn partition_point_proves_range_from() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], t: f64) -> f64 { let s = xs.partition_point(|x| *x < t); xs[s..].iter().sum() }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn partition_point_does_not_prove_direct_index() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], t: f64) -> f64 { let s = xs.partition_point(|x| *x < t); xs[s] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }

    #[test]
    fn gen_range_over_len_proves_index() {
        let (_, proofs) = run(
            "fn f<R: Rng>(rng: &mut R) -> Base { Base::ALL[rng.gen_range(0..Base::ALL.len())] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn shrinking_mutation_kills_fact() {
        let (_, proofs) = run(
            "fn f(xs: &mut Vec<f64>, i: usize) -> f64 { assert!(i < xs.len()); xs.truncate(1); xs[i] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }

    #[test]
    fn reassignment_kills_fact() {
        let (_, proofs) = run(
            "fn f(xs: &[f64], mut i: usize) -> f64 { assert!(i < xs.len()); i = i + 2; xs[i] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }

    #[test]
    fn index_at_len_is_definite_oob() {
        let (out, _) = run("fn f(xs: &[f64]) -> f64 { xs[xs.len()] }", false);
        assert_eq!(rules(&out), vec!["flow.range"]);
    }

    #[test]
    fn index_at_len_minus_one_is_proven_behind_guard() {
        let (out, proofs) = run(
            "fn f(xs: &[f64]) -> f64 { if xs.is_empty() { return 0.0; } xs[xs.len() - 1] }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn const_array_oob_is_definite() {
        let (out, _) = run("fn f() -> f64 { let a = [0.0; 4]; a[4] }", false);
        assert_eq!(rules(&out), vec!["flow.range"]);
    }

    #[test]
    fn const_array_in_bounds_is_proven() {
        let (out, proofs) = run("fn f() -> f64 { let a = [0.0; 4]; a[3] }", false);
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn division_by_literal_zero_flagged() {
        let (out, _) = run("fn f(x: u32) -> u32 { x % 0 }", false);
        assert_eq!(rules(&out), vec!["flow.range"]);
    }

    #[test]
    fn division_by_zero_binding_flagged() {
        let (out, _) = run("fn f(x: u32) -> u32 { let d = 0; x / d }", false);
        assert_eq!(rules(&out), vec!["flow.range"]);
    }

    #[test]
    fn division_by_nonzero_ok() {
        let (out, _) = run("fn f(x: u32) -> u32 { let d = 2; x / d + x / 2 }", false);
        assert!(out.is_empty());
    }

    #[test]
    fn unit_mixed_sum_flagged() {
        let (out, _) = run(
            "fn f(bias_v: f64, f_clk_hz: f64) -> f64 { let y = bias_v + f_clk_hz; y }",
            true,
        );
        assert_eq!(rules(&out), vec!["flow.unit"]);
    }

    #[test]
    fn unit_cross_assignment_flagged() {
        let (out, _) = run("fn f(bias_v: f64) -> f64 { let t_s = bias_v; t_s }", true);
        assert_eq!(rules(&out), vec!["flow.unit"]);
    }

    #[test]
    fn unit_constructor_seeds_binding() {
        let (out, _) = run(
            "fn f() -> f64 { let fc = Hertz::new(10.0); let dt_s = fc; 0.0 }",
            true,
        );
        assert_eq!(rules(&out), vec!["flow.unit"]);
    }

    #[test]
    fn unit_consistent_sum_ok() {
        let (out, _) = run(
            "fn f(f_lo_hz: f64, f_hi_hz: f64) -> f64 { let span_hz = f_hi_hz - f_lo_hz; span_hz }",
            true,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn unit_product_is_dimensionless_to_the_lattice() {
        let (out, _) = run(
            "fn f(bias_v: f64, gain: f64) -> f64 { let x = bias_v * gain; let t_s = x; t_s }",
            true,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn unit_typed_param_seeds_env() {
        let (out, _) = run("fn f(fc: Hertz) -> Hertz { let bias_v = fc; fc }", true);
        assert_eq!(rules(&out), vec!["flow.unit"]);
    }

    #[test]
    fn unit_pass_gated_off() {
        let (out, _) = run(
            "fn f(bias_v: f64, f_clk_hz: f64) -> f64 { bias_v + f_clk_hz }",
            false,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn while_head_proves_uses_before_mutation() {
        let (out, proofs) = run(
            "fn f(xs: &[u8]) -> usize { let mut j = 0; let mut n = 0; while j < xs.len() { if xs[j] == 1 { n += 1; } j += 1; } n }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn while_head_does_not_prove_uses_after_mutation() {
        let (_, proofs) = run(
            "fn f(xs: &[u8]) -> usize { let mut j = 0; let mut n = 0; while j < xs.len() { j += 1; n += xs[j] as usize; } n }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }

    #[test]
    fn vec_count_guard_proves_deref_index() {
        let (out, proofs) = run(
            "fn f(labels: &[usize], k: usize) -> Vec<usize> { let mut sizes = vec![0usize; k]; for l in labels { if *l < k { sizes[*l] += 1; } } sizes }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn vec_count_without_guard_not_proven() {
        let (_, proofs) = run(
            "fn f(labels: &[usize], k: usize) -> Vec<usize> { let mut sizes = vec![0usize; k]; for l in labels { sizes[*l] += 1; } sizes }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }

    #[test]
    fn vec_literal_count_refutes_constant_index() {
        let (out, _) = run("fn f() -> u8 { let v = vec![0u8; 4]; v[4] }", false);
        assert_eq!(rules(&out), vec!["flow.range"]);
    }

    #[test]
    fn modulo_by_len_proves_index() {
        let (out, proofs) = run(
            "fn f(xs: &[u8], i: usize) -> u8 { xs[i % xs.len()] }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn modulo_by_eq_len_path_proves_index() {
        let (out, proofs) = run(
            "fn f(n: usize, i: usize) -> u8 { let v = vec![0u8; n]; v[i % n] }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn modulo_by_unrelated_count_not_proven() {
        let (_, proofs) = run(
            "fn f(n: usize, m: usize, i: usize) -> u8 { let v = vec![0u8; n]; v[i % m] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }

    #[test]
    fn assert_eq_with_message_gives_symbolic_length() {
        let (out, proofs) = run(
            "fn f(per: &[u8], n: usize, spot: usize) -> u8 { assert_eq!(per.len(), n, \"want {} got {}\", n, per.len()); per[spot % n] }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn summary_contract_bounds_call_result() {
        let (out, proofs) = run(
            "fn wrap(i: usize, n: usize) -> usize { i % n }\n\
             fn f(i: usize, n: usize) -> u8 { let v = vec![0u8; n]; let k = wrap(i, n); v[k] }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn summary_len_contract_bounds_call_result() {
        let (out, proofs) = run(
            "fn wrap(i: usize, xs: &[u8]) -> usize { i % xs.len() }\n\
             fn f(i: usize, xs: &[u8]) -> u8 { let k = wrap(i, xs); xs[k] }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn elems_contract_bounds_loop_variable() {
        let (out, proofs) = run(
            "fn choose(n: usize, k: usize) -> Vec<usize> { let mut idx: Vec<usize> = (0..n).collect(); idx.truncate(k); idx }\n\
             fn f(n: usize) -> u8 { let v = vec![0u8; n]; let mut acc = 0; for i in choose(n, 3) { acc += v[i]; } acc }",
            false,
        );
        assert!(out.is_empty());
        assert_eq!(proofs.proven_sites(), 1);
    }

    #[test]
    fn reassigned_count_kills_symbolic_length() {
        let (_, proofs) = run(
            "fn f(mut n: usize, i: usize) -> u8 { let v = vec![0u8; n]; n = n + 4; v[i % n] }",
            false,
        );
        assert_eq!(proofs.proven_sites(), 0);
    }
}
