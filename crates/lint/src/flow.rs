//! Intraprocedural dataflow: unit inference and interval proofs
//! (DESIGN.md §9.3).
//!
//! Two passes over each parsed function body:
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
//! scope: facts carry a token range and are killed early by reassignment
//! or shrinking mutation of the sequence they constrain (see
//! [`kill_scan`]). Everything unproven is simply left to the existing
//! allowlist machinery — the prover only ever *removes* pressure, so a
//! missed pattern is conservative, never unsound.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::lexer::Token;
use crate::parser::{FnItem, ParsedFile};
use crate::rules::{index_site, suggested_unit_type, violation, Violation};
use crate::summary::{RetContract, Summaries};

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

    /// Total discharged sites (for the JSON report).
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

#[derive(Debug, Clone)]
pub(crate) struct ScopedFact {
    pub(crate) fact: Fact,
    /// Token-index range (absolute within the file) where the fact holds.
    pub(crate) scope: Range<usize>,
    /// When `Some(k)`, the fact came from a `seq.len() - k` subtraction
    /// and is only valid if `seq.len() >= k` where it was formed — in a
    /// release build the subtraction would otherwise wrap rather than
    /// panic, and the wrapped value reaches the index. Such facts are
    /// dropped after collection unless an unconditional length fact
    /// covers them (see [`collect_facts`]).
    needs_len: Option<u64>,
}

/// Sequence methods that can shrink a `Vec`/`String`, invalidating any
/// captured length bound. Growth (`push`, `extend`, …) preserves every
/// fact we track and is deliberately not listed.
const SHRINK_METHODS: &[&str] = &[
    "clear",
    "truncate",
    "pop",
    "remove",
    "retain",
    "drain",
    "resize",
    "swap_remove",
    "split_off",
    "dedup",
];

pub(crate) fn tok_ident(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| t.ident())
}

pub(crate) fn tok_punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(c))
}

pub(crate) fn tok_int(tokens: &[Token], i: usize) -> Option<u64> {
    tokens.get(i).and_then(|t| t.int_value())
}

/// Finds the matching close bracket for the open bracket at `open`
/// (`(`, `[` or `{`), counting nesting of that pair only.
pub(crate) fn matching(tokens: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match tokens.get(open) {
        Some(t) if t.is_punct('(') => ('(', ')'),
        Some(t) if t.is_punct('[') => ('[', ']'),
        Some(t) if t.is_punct('{') => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// End of the innermost block enclosing position `from` (exclusive): the
/// first `}` whose matching `{` opened before `from`. Scanning forward,
/// that is the first point where brace depth goes negative.
pub(crate) fn enclosing_block_end(tokens: &[Token], from: usize, limit: usize) -> usize {
    let mut depth = 0i64;
    let mut j = from;
    while j < limit {
        match tokens.get(j) {
            Some(t) if t.is_punct('{') => depth += 1,
            Some(t) if t.is_punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    limit
}

/// Parses a dotted/`::` path *ending* at token `end` (inclusive), walking
/// backwards. Returns the normalized path string (`self.rows`,
/// `Base::ALL`). `None` if `end` is not an identifier.
pub(crate) fn path_ending_at(tokens: &[Token], end: usize) -> Option<String> {
    tok_ident(tokens, end)?;
    let mut parts: Vec<String> = Vec::new();
    let mut i = end;
    loop {
        let seg = tok_ident(tokens, i)?;
        parts.push(seg.to_string());
        if i >= 2 && tok_punct(tokens, i - 1, '.') && tok_ident(tokens, i - 2).is_some() {
            parts.push(".".to_string());
            i -= 2;
        } else if i >= 3
            && tok_punct(tokens, i - 1, ':')
            && tok_punct(tokens, i - 2, ':')
            && tok_ident(tokens, i - 3).is_some()
        {
            parts.push("::".to_string());
            i -= 3;
        } else {
            break;
        }
    }
    parts.reverse();
    Some(parts.concat())
}

/// Parses a dotted/`::` path *starting* at token `start`. Returns the
/// normalized string and the index one past its last token.
pub(crate) fn path_starting_at(tokens: &[Token], start: usize) -> Option<(String, usize)> {
    tok_ident(tokens, start)?;
    let mut end = start;
    loop {
        if tok_punct(tokens, end + 1, '.') && tok_ident(tokens, end + 2).is_some() {
            end += 2;
        } else if tok_punct(tokens, end + 1, ':')
            && tok_punct(tokens, end + 2, ':')
            && tok_ident(tokens, end + 3).is_some()
        {
            end += 3;
        } else {
            break;
        }
    }
    path_ending_at(tokens, end).map(|p| (p, end + 1))
}

/// Matches `PATH . len ( )` starting at `start`; returns the path and the
/// index one past the closing paren.
pub(crate) fn len_call_at(tokens: &[Token], start: usize) -> Option<(String, usize)> {
    let (path, after) = path_starting_at(tokens, start)?;
    // The path parser swallowed `.len` as its final segment.
    let stripped = path.strip_suffix(".len")?;
    if tok_punct(tokens, after, '(') && tok_punct(tokens, after + 1, ')') {
        Some((stripped.to_string(), after + 2))
    } else {
        None
    }
}

/// Matches `PATH . len ( ) [- k]` filling `range`; `k = 0` when there is
/// no subtraction. Returns `(path, k)` only if the tokens span exactly
/// `range` (no trailing residue).
pub(crate) fn len_minus_expr(tokens: &[Token], range: &Range<usize>) -> Option<(String, u64)> {
    let (path, after) = len_call_at(tokens, range.start)?;
    if after == range.end {
        return Some((path, 0));
    }
    if tok_punct(tokens, after, '-') {
        let k = tok_int(tokens, after + 1)?;
        if after + 2 == range.end {
            return Some((path, k));
        }
    }
    None
}

/// Last segment of a normalized path (`self.rows` → `rows`).
pub(crate) fn last_segment(path: &str) -> &str {
    path.rsplit(['.', ':']).next().unwrap_or(path)
}

/// Harvests scoped interval facts from one function body. `summaries`
/// supplies cross-function return-bound contracts consumed at call-site
/// bindings and for-loop iterators (see `crate::summary`).
pub(crate) fn collect_facts(
    tokens: &[Token],
    f: &FnItem,
    summaries: &Summaries,
) -> Vec<ScopedFact> {
    let body = f.body.clone();
    let mut facts: Vec<ScopedFact> = Vec::new();
    let mut i = body.start;
    while i < body.end {
        if let Some(name) = tok_ident(tokens, i) {
            match name {
                "for" => for_loop_facts(tokens, i, &body, summaries, &mut facts),
                "while" => while_facts(tokens, i, &body, &mut facts),
                "if" => if_facts(tokens, i, &body, &mut facts),
                "assert" | "assert_eq" => assert_facts(tokens, i, &body, &mut facts),
                "let" => let_facts(tokens, i, &body, summaries, &mut facts),
                "windows" | "chunks_exact" => {
                    closure_window_facts(tokens, i, &body, &mut facts);
                }
                _ => {}
            }
        }
        i += 1;
    }
    for sf in &mut facts {
        kill_scan(tokens, sf);
    }
    // Length-dependent facts (formed by a `len() - k` subtraction) stand
    // only where the subtraction cannot wrap: keep each one only if an
    // unconditional fact proves `seq.len() >= k` at its origin.
    let keep: Vec<bool> = facts
        .iter()
        .map(|sf| {
            let Some(need) = sf.needs_len else {
                return true;
            };
            let seq = match &sf.fact {
                Fact::VarBound { seq, .. } | Fact::UpToLen { seq, .. } => seq,
                _ => return true,
            };
            let at = sf.scope.start;
            facts.iter().any(|g| {
                g.needs_len.is_none()
                    && g.scope.contains(&at)
                    && match &g.fact {
                        Fact::MinLen { seq: s, min_len } => s == seq && min_len + 1 >= need,
                        Fact::ExactLen { seq: s, len } => s == seq && *len >= need,
                        _ => false,
                    }
            })
        })
        .collect();
    let mut idx = 0;
    facts.retain(|_| {
        let k = keep.get(idx).copied().unwrap_or(false);
        idx += 1;
        k
    });
    facts
}

/// `for PAT in ITER { .. }` — bounds from the iterator shapes we
/// recognise: `0..len`-style ranges, `.iter().enumerate()`,
/// `windows(k)` / `chunks_exact(k)`, and calls to functions whose
/// summary promises every yielded element is below a parameter.
fn for_loop_facts(
    tokens: &[Token],
    at: usize,
    body: &Range<usize>,
    summaries: &Summaries,
    facts: &mut Vec<ScopedFact>,
) {
    // Pattern: single ident, or a tuple whose first ident is the index.
    let (var, mut j) = if let Some(v) = tok_ident(tokens, at + 1) {
        (v.to_string(), at + 2)
    } else if tok_punct(tokens, at + 1, '(') {
        let close = match matching(tokens, at + 1) {
            Some(c) => c,
            None => return,
        };
        let first = match tok_ident(tokens, at + 2) {
            Some(v) => v.to_string(),
            None => return,
        };
        (first, close + 1)
    } else {
        return;
    };
    if tok_ident(tokens, j) != Some("in") {
        return;
    }
    j += 1;
    // Iterator expression runs to the first `{` at zero bracket depth.
    let mut depth = 0i64;
    let mut open = None;
    let mut k = j;
    while k < body.end {
        match tokens.get(k) {
            Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
            Some(t) if t.is_punct('{') && depth == 0 => {
                open = Some(k);
                break;
            }
            _ => {}
        }
        k += 1;
    }
    let Some(open) = open else { return };
    let Some(close) = matching(tokens, open) else {
        return;
    };
    let iter = j..open;
    let scope = open..close + 1;

    // `0..PATH.len() [- k]` and the inclusive `0..=…` variants.
    if tok_int(tokens, iter.start) == Some(0)
        && tok_punct(tokens, iter.start + 1, '.')
        && tok_punct(tokens, iter.start + 2, '.')
    {
        let inclusive = tok_punct(tokens, iter.start + 3, '=');
        let expr_start = if inclusive {
            iter.start + 4
        } else {
            iter.start + 3
        };
        if let Some((seq, k)) = len_minus_expr(tokens, &(expr_start..iter.end)) {
            let fact = if inclusive {
                if k >= 1 {
                    Fact::VarBound {
                        var: var.clone(),
                        seq,
                        max_off: k - 1,
                    }
                } else {
                    Fact::UpToLen {
                        var: var.clone(),
                        seq,
                    }
                }
            } else {
                Fact::VarBound {
                    var: var.clone(),
                    seq,
                    max_off: k,
                }
            };
            facts.push(ScopedFact {
                fact,
                scope,
                // `0..len - k` wraps in release when `len < k`, and the
                // loop then runs with wild indices.
                needs_len: (k >= 1).then_some(k),
            });
            return;
        }
    }

    // `PATH.iter().enumerate()` / `PATH.iter_mut().enumerate()`.
    if let Some((path, after)) = path_starting_at(tokens, iter.start) {
        for stripped in [".iter", ".iter_mut"] {
            if let Some(seq) = path.strip_suffix(stripped) {
                if tok_punct(tokens, after, '(')
                    && tok_punct(tokens, after + 1, ')')
                    && tok_punct(tokens, after + 2, '.')
                    && tok_ident(tokens, after + 3) == Some("enumerate")
                    && tok_punct(tokens, after + 4, '(')
                    && tok_punct(tokens, after + 5, ')')
                    && after + 6 == iter.end
                {
                    facts.push(ScopedFact {
                        needs_len: None,
                        fact: Fact::VarBound {
                            var: var.clone(),
                            seq: seq.to_string(),
                            max_off: 0,
                        },
                        scope,
                    });
                    return;
                }
            }
        }
        // `PATH.windows(k)` / `PATH.chunks_exact(k)`: the loop variable is
        // itself a slice of exactly `k` elements.
        for stripped in [".windows", ".chunks_exact"] {
            if path.strip_suffix(stripped).is_some()
                && tok_punct(tokens, after, '(')
                && tok_punct(tokens, after + 2, ')')
                && after + 3 == iter.end
            {
                if let Some(k) = tok_int(tokens, after + 1) {
                    if k >= 1 {
                        facts.push(ScopedFact {
                            needs_len: None,
                            fact: Fact::ExactLen { seq: var, len: k },
                            scope,
                        });
                    }
                }
                return;
            }
        }
        // `for v in f(a, b, ..) {}` where `f`'s summary promises every
        // yielded element is `< param k` — bind `v < arg_k` in the body.
        if let Some(k) = summaries.elems_lt_param(&path) {
            if tok_punct(tokens, after, '(')
                && matching(tokens, after).map(|c| c + 1) == Some(iter.end)
            {
                if let Some(close) = matching(tokens, after) {
                    if let Some(arg) = call_arg_path(tokens, after + 1, close, k) {
                        facts.push(ScopedFact {
                            needs_len: None,
                            fact: Fact::VarLtPath { var, path: arg },
                            scope,
                        });
                    }
                }
            }
        }
    }
}

/// Splits the argument list in `(open+1..close)` on depth-0 commas and
/// returns argument `k` as a normalized path (a leading `&`/`&mut` is
/// stripped); `None` when the argument is not a bare path.
pub(crate) fn call_arg_path(
    tokens: &[Token],
    args_start: usize,
    close: usize,
    k: usize,
) -> Option<String> {
    let range = call_arg_range(tokens, args_start, close, k)?;
    let mut start = range.start;
    if tok_punct(tokens, start, '&') {
        start += 1;
        if tok_ident(tokens, start) == Some("mut") {
            start += 1;
        }
    }
    let (path, after) = path_starting_at(tokens, start)?;
    (after == range.end).then_some(path)
}

/// Token range of argument `k` in the argument list `(args_start..close)`.
pub(crate) fn call_arg_range(
    tokens: &[Token],
    args_start: usize,
    close: usize,
    k: usize,
) -> Option<Range<usize>> {
    let mut depth = 0i64;
    let mut idx = 0usize;
    let mut start = args_start;
    let mut j = args_start;
    while j < close {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => depth -= 1,
            Some(t) if t.is_punct(',') && depth == 0 => {
                if idx == k {
                    return Some(start..j);
                }
                idx += 1;
                start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    (idx == k && start < close).then_some(start..close)
}

/// `.windows(k)` / `.chunks_exact(k)` followed by a closure-taking
/// adapter (`.filter(|w| ..)`, `.map(|w| ..)`): the closure parameter is a
/// slice of exactly `k` elements inside the closure body.
fn closure_window_facts(
    tokens: &[Token],
    at: usize,
    _body: &Range<usize>,
    facts: &mut Vec<ScopedFact>,
) {
    // `at` is the `windows` / `chunks_exact` ident; require method position.
    if at == 0 || !tok_punct(tokens, at - 1, '.') || !tok_punct(tokens, at + 1, '(') {
        return;
    }
    let Some(k) = tok_int(tokens, at + 2) else {
        return;
    };
    if k == 0 || !tok_punct(tokens, at + 3, ')') {
        return;
    }
    // Walk the adapter chain; bind the first closure parameter we find.
    let mut j = at + 4;
    while tok_punct(tokens, j, '.') && tok_ident(tokens, j + 1).is_some() {
        if !tok_punct(tokens, j + 2, '(') {
            break;
        }
        let Some(close) = matching(tokens, j + 2) else {
            return;
        };
        if tok_punct(tokens, j + 3, '|') {
            if let Some(param) = tok_ident(tokens, j + 4) {
                if tok_punct(tokens, j + 5, '|') {
                    facts.push(ScopedFact {
                        needs_len: None,
                        fact: Fact::ExactLen {
                            seq: param.to_string(),
                            len: k,
                        },
                        scope: j + 6..close,
                    });
                    return;
                }
            }
        }
        j = close + 1;
    }
}

/// Splits a condition range on a depth-0 two-token punct pair (`&&` as
/// `('&','&')`, `||` as `('|','|')`). Returns `None` if the *other* pair
/// appears at depth 0 (mixed conjunction/disjunction — give up).
pub(crate) fn split_condition(
    tokens: &[Token],
    cond: &Range<usize>,
    pair: char,
    reject: char,
) -> Option<Vec<Range<usize>>> {
    let mut parts = Vec::new();
    let mut depth = 0i64;
    let mut start = cond.start;
    let mut j = cond.start;
    while j < cond.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
            Some(t) if depth == 0 && t.is_punct(pair) && tok_punct(tokens, j + 1, pair) => {
                parts.push(start..j);
                j += 1;
                start = j + 1;
            }
            Some(t) if depth == 0 && t.is_punct(reject) && tok_punct(tokens, j + 1, reject) => {
                return None;
            }
            _ => {}
        }
        j += 1;
    }
    parts.push(start..cond.end);
    Some(parts)
}

/// A comparison operator split out of the token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Finds the first depth-0 comparison in `range`; returns
/// (lhs, op, rhs-start).
pub(crate) fn find_cmp(
    tokens: &[Token],
    range: &Range<usize>,
) -> Option<(Range<usize>, Cmp, usize)> {
    let mut depth = 0i64;
    let mut j = range.start;
    while j < range.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
            Some(t) if depth == 0 => {
                let two_eq = tok_punct(tokens, j + 1, '=');
                let op = if t.is_punct('<') {
                    Some(if two_eq { (Cmp::Le, 2) } else { (Cmp::Lt, 1) })
                } else if t.is_punct('>') {
                    Some(if two_eq { (Cmp::Ge, 2) } else { (Cmp::Gt, 1) })
                } else if t.is_punct('=') && two_eq {
                    Some((Cmp::Eq, 2))
                } else if t.is_punct('!') && two_eq {
                    Some((Cmp::Ne, 2))
                } else {
                    None
                };
                if let Some((op, width)) = op {
                    return Some((range.start..j, op, j + width));
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Matches `[*]var [+ c]` spanning exactly `range`; returns (var, c).
/// A leading `*` (deref of a copied index) binds the same variable.
pub(crate) fn var_plus_const(tokens: &[Token], range: &Range<usize>) -> Option<(String, u64)> {
    let mut start = range.start;
    if tok_punct(tokens, start, '*') && tok_ident(tokens, start + 1).is_some() {
        start += 1;
    }
    let var = tok_ident(tokens, start)?;
    // Reject dotted paths as the variable — bounds on fields are killed
    // too coarsely to be worth tracking.
    if start + 1 == range.end {
        return Some((var.to_string(), 0));
    }
    if tok_punct(tokens, start + 1, '+') && start + 3 == range.end {
        let c = tok_int(tokens, start + 2)?;
        return Some((var.to_string(), c));
    }
    None
}

/// Facts a *true* conjunct establishes (used for `if COND {}` bodies and
/// `assert!(COND)` tails).
fn positive_fact(tokens: &[Token], conjunct: &Range<usize>) -> Option<Fact> {
    // `!PATH.is_empty()`
    if tok_punct(tokens, conjunct.start, '!') {
        if let Some((path, after)) = path_starting_at(tokens, conjunct.start + 1) {
            if let Some(seq) = path.strip_suffix(".is_empty") {
                if tok_punct(tokens, after, '(')
                    && tok_punct(tokens, after + 1, ')')
                    && after + 2 == conjunct.end
                {
                    return Some(Fact::MinLen {
                        seq: seq.to_string(),
                        min_len: 0,
                    });
                }
            }
        }
        return None;
    }
    let (lhs, op, rhs_start) = find_cmp(tokens, conjunct)?;
    let rhs = rhs_start..conjunct.end;
    // `PATH.len() CMP k`
    if let Some((seq, 0)) = len_minus_expr(tokens, &lhs) {
        let k = tok_int(tokens, rhs.start)?;
        if rhs.start + 1 != rhs.end {
            return None;
        }
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
    if let Some(k) = tok_int(tokens, lhs.start) {
        if lhs.start + 1 == lhs.end {
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
    if c == 0 && op == Cmp::Lt {
        if let Some((path, after)) = path_starting_at(tokens, rhs.start) {
            if after == rhs.end {
                return Some(Fact::VarLtPath { var, path });
            }
        }
    }
    None
}

/// Facts the *negation* of a disjunct establishes (early-exit guards).
fn negated_fact(tokens: &[Token], disjunct: &Range<usize>) -> Option<Fact> {
    // `PATH.is_empty()` → ¬ → len ≥ 1.
    if let Some((path, after)) = path_starting_at(tokens, disjunct.start) {
        if let Some(seq) = path.strip_suffix(".is_empty") {
            if tok_punct(tokens, after, '(')
                && tok_punct(tokens, after + 1, ')')
                && after + 2 == disjunct.end
            {
                return Some(Fact::MinLen {
                    seq: seq.to_string(),
                    min_len: 0,
                });
            }
        }
    }
    let (lhs, op, rhs_start) = find_cmp(tokens, disjunct)?;
    let rhs = rhs_start..disjunct.end;
    // `PATH.len() < k` → ¬ → len ≥ k; `PATH.len() == 0` → ¬ → len ≥ 1.
    if let Some((seq, 0)) = len_minus_expr(tokens, &lhs) {
        let k = tok_int(tokens, rhs.start)?;
        if rhs.start + 1 != rhs.end {
            return None;
        }
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
        if s != 0 {
            return None;
        }
        return match op {
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
    if c == 0 && op == Cmp::Ge {
        if let Some((path, after)) = path_starting_at(tokens, rhs.start) {
            if after == rhs.end {
                return Some(Fact::VarLtPath { var, path });
            }
        }
    }
    None
}

/// `if COND { .. }`: either a plain guard (facts hold inside the block) or
/// an early exit (`{ return/break/continue .. }` — the negated condition
/// holds for the rest of the enclosing block).
fn if_facts(tokens: &[Token], at: usize, body: &Range<usize>, facts: &mut Vec<ScopedFact>) {
    // `else if` chains and `if let` are out of scope for the prover.
    if tok_ident(tokens, at + 1) == Some("let") {
        return;
    }
    let mut depth = 0i64;
    let mut open = None;
    let mut j = at + 1;
    while j < body.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
            Some(t) if t.is_punct('{') && depth == 0 => {
                open = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let Some(open) = open else { return };
    let Some(close) = matching(tokens, open) else {
        return;
    };
    let cond = at + 1..open;

    // Facts from the condition being true hold inside the block whether
    // or not the block falls through.
    if let Some(conjuncts) = split_condition(tokens, &cond, '&', '|') {
        for c in conjuncts {
            if let Some(fact) = positive_fact(tokens, &c) {
                facts.push(ScopedFact {
                    needs_len: None,
                    fact,
                    scope: open..close + 1,
                });
            }
        }
    }
    // If the block unconditionally exits, the *negated* condition holds
    // for the rest of the enclosing block.
    let exits = matches!(
        tok_ident(tokens, open + 1),
        Some("return") | Some("break") | Some("continue")
    );
    if exits {
        if let Some(disjuncts) = split_condition(tokens, &cond, '|', '&') {
            let scope = close + 1..enclosing_block_end(tokens, close + 1, body.end);
            for d in disjuncts {
                if let Some(fact) = negated_fact(tokens, &d) {
                    facts.push(ScopedFact {
                        needs_len: None,
                        fact,
                        scope: scope.clone(),
                    });
                }
            }
        }
    }
}

/// `while COND { .. }`: facts from the condition hold inside the body.
/// This is sound with the shared [`kill_scan`]: the condition re-holds at
/// the top of every iteration, and the scan truncates each fact at the
/// first in-body mutation of anything it mentions, so only uses dominated
/// by the loop-head check remain covered.
fn while_facts(tokens: &[Token], at: usize, body: &Range<usize>, facts: &mut Vec<ScopedFact>) {
    if tok_ident(tokens, at + 1) == Some("let") {
        return;
    }
    let mut depth = 0i64;
    let mut open = None;
    let mut j = at + 1;
    while j < body.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
            Some(t) if t.is_punct('{') && depth == 0 => {
                open = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let Some(open) = open else { return };
    let Some(close) = matching(tokens, open) else {
        return;
    };
    let cond = at + 1..open;
    if let Some(conjuncts) = split_condition(tokens, &cond, '&', '|') {
        for c in conjuncts {
            if let Some(fact) = positive_fact(tokens, &c) {
                facts.push(ScopedFact {
                    needs_len: None,
                    fact,
                    scope: open..close + 1,
                });
            }
        }
    }
}

/// `assert!(COND)` / `assert_eq!(PATH.len(), k)` hold for the rest of the
/// enclosing block. `debug_assert!` is deliberately ignored — it vanishes
/// in release builds, so it proves nothing.
fn assert_facts(tokens: &[Token], at: usize, body: &Range<usize>, facts: &mut Vec<ScopedFact>) {
    if !tok_punct(tokens, at + 1, '!') || !tok_punct(tokens, at + 2, '(') {
        return;
    }
    let Some(close) = matching(tokens, at + 2) else {
        return;
    };
    let scope = close + 1..enclosing_block_end(tokens, close + 1, body.end);
    let inner = at + 3..close;
    if tok_ident(tokens, at) == Some("assert_eq") {
        // `assert_eq!(PATH.len(), k[, msg..])` (either operand order, a
        // trailing format message tolerated): `k` a literal gives an
        // exact length, `k` a path gives a symbolic length equation.
        let mut depth = 0i64;
        let mut commas = Vec::new();
        let mut j = inner.start;
        while j < inner.end {
            match tokens.get(j) {
                Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
                Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
                Some(t) if t.is_punct(',') && depth == 0 => commas.push(j),
                _ => {}
            }
            j += 1;
        }
        let Some(first) = commas.first().copied() else {
            return;
        };
        let second = commas.get(1).copied().unwrap_or(inner.end);
        let (a, b) = (inner.start..first, first + 1..second);
        for (len_side, k_side) in [(&a, &b), (&b, &a)] {
            if let Some((seq, 0)) = len_minus_expr(tokens, len_side) {
                if let Some(k) = tok_int(tokens, k_side.start) {
                    if k_side.start + 1 == k_side.end && k >= 1 {
                        facts.push(ScopedFact {
                            needs_len: None,
                            fact: Fact::ExactLen { seq, len: k },
                            scope,
                        });
                        return;
                    }
                }
                if let Some((path, after)) = path_starting_at(tokens, k_side.start) {
                    if after == k_side.end {
                        facts.push(ScopedFact {
                            needs_len: None,
                            fact: Fact::EqLenPath { seq, path },
                            scope,
                        });
                        return;
                    }
                }
            }
        }
        return;
    }
    // Trailing message arguments would confuse the conjunct parser; only
    // bare `assert!(COND)` is recognised.
    if let Some(conjuncts) = split_condition(tokens, &inner, '&', '|') {
        for c in conjuncts {
            if let Some(fact) = positive_fact(tokens, &c) {
                facts.push(ScopedFact {
                    needs_len: None,
                    fact,
                    scope: scope.clone(),
                });
            }
        }
    }
}

/// Bindings that create facts: clamps (`.min(PATH.len() - k)`),
/// `partition_point`, constant zero, `[e; N]` arrays, `vec![e; n]`
/// lengths, and calls to functions with a return-bound summary.
fn let_facts(
    tokens: &[Token],
    at: usize,
    body: &Range<usize>,
    summaries: &Summaries,
    facts: &mut Vec<ScopedFact>,
) {
    let mut j = at + 1;
    if tok_ident(tokens, j) == Some("mut") {
        j += 1;
    }
    let Some(var) = tok_ident(tokens, j) else {
        return;
    };
    let var = var.to_string();
    // Skip an optional `: Type` annotation up to the `=`.
    let mut eq = j + 1;
    let mut depth = 0i64;
    while eq < body.end {
        match tokens.get(eq) {
            Some(t) if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') => depth += 1,
            Some(t) if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') => depth -= 1,
            Some(t) if t.is_punct('=') && depth == 0 => break,
            Some(t) if t.is_punct(';') && depth == 0 => return,
            _ => {}
        }
        eq += 1;
    }
    // Statement end: `;` at depth 0 after the `=`.
    let mut end = eq + 1;
    let mut depth = 0i64;
    while end < body.end {
        match tokens.get(end) {
            Some(t) if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => depth -= 1,
            Some(t) if t.is_punct(';') && depth == 0 => break,
            _ => {}
        }
        end += 1;
    }
    if end >= body.end {
        return;
    }
    let rhs = eq + 1..end;
    let scope = end + 1..enclosing_block_end(tokens, end + 1, body.end);

    // `let v = 0;`
    if tok_int(tokens, rhs.start) == Some(0) && rhs.start + 1 == rhs.end {
        facts.push(ScopedFact {
            needs_len: None,
            fact: Fact::ZeroConst { var },
            scope,
        });
        return;
    }
    // `let v = [e; N];`
    if tok_punct(tokens, rhs.start, '[') {
        if let Some(close) = matching(tokens, rhs.start) {
            if close + 1 == rhs.end {
                let mut depth = 0i64;
                let mut k = rhs.start + 1;
                while k < close {
                    match tokens.get(k) {
                        Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
                        Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
                        Some(t) if t.is_punct(';') && depth == 0 => {
                            if let Some(n) = tok_int(tokens, k + 1) {
                                if k + 2 == close && n >= 1 {
                                    facts.push(ScopedFact {
                                        needs_len: None,
                                        fact: Fact::ExactLen { seq: var, len: n },
                                        scope,
                                    });
                                }
                            }
                            return;
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        return;
    }
    // `let v = vec![e; COUNT];` — a literal count gives an exact length,
    // a path count gives the symbolic equation `v.len() == COUNT`.
    if tok_ident(tokens, rhs.start) == Some("vec")
        && tok_punct(tokens, rhs.start + 1, '!')
        && tok_punct(tokens, rhs.start + 2, '[')
    {
        if let Some(close) = matching(tokens, rhs.start + 2) {
            if close + 1 == rhs.end {
                let mut depth = 0i64;
                let mut semi = None;
                for k in rhs.start + 3..close {
                    match tokens.get(k) {
                        Some(t) if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => {
                            depth += 1;
                        }
                        Some(t) if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => {
                            depth -= 1;
                        }
                        Some(t) if t.is_punct(';') && depth == 0 => semi = Some(k),
                        _ => {}
                    }
                }
                if let Some(semi) = semi {
                    let count = semi + 1..close;
                    if let Some(n) = const_expr(tokens, &count) {
                        if n >= 1 {
                            facts.push(ScopedFact {
                                needs_len: None,
                                fact: Fact::ExactLen { seq: var, len: n },
                                scope,
                            });
                        }
                    } else if let Some((path, after)) = path_starting_at(tokens, count.start) {
                        if after == count.end {
                            facts.push(ScopedFact {
                                needs_len: None,
                                fact: Fact::EqLenPath { seq: var, path },
                                scope,
                            });
                        }
                    }
                }
            }
        }
        return;
    }
    // `let v = f(a, b, ..)[?];` with a return-bound summary for `f`:
    // the contract, instantiated with the call's arguments, bounds `v`.
    if let Some((path, after)) = path_starting_at(tokens, rhs.start) {
        if tok_punct(tokens, after, '(') {
            if let Some(close) = matching(tokens, after) {
                let tail_ok = close + 1 == rhs.end
                    || (tok_punct(tokens, close + 1, '?') && close + 2 == rhs.end);
                if tail_ok {
                    if let Some(contract) = summaries.ret_contract(&path) {
                        let fact = match contract {
                            RetContract::LtParam(k) => call_arg_path(tokens, after + 1, close, *k)
                                .map(|arg| Fact::VarLtPath {
                                    var: var.clone(),
                                    path: arg,
                                }),
                            RetContract::LtLenOfParam(k) => {
                                call_arg_path(tokens, after + 1, close, *k).map(|arg| {
                                    Fact::VarBound {
                                        var: var.clone(),
                                        seq: arg,
                                        max_off: 0,
                                    }
                                })
                            }
                            RetContract::LeConst(c) => Some(Fact::VarLeConst {
                                var: var.clone(),
                                max: *c,
                            }),
                            RetContract::ElemsLtParam(_) => None,
                        };
                        if let Some(fact) = fact {
                            facts.push(ScopedFact {
                                needs_len: None,
                                fact,
                                scope,
                            });
                            return;
                        }
                    }
                }
            }
        }
    }
    // `let v = PATH.partition_point(..);` — result ≤ PATH.len().
    if let Some((path, after)) = path_starting_at(tokens, rhs.start) {
        if let Some(seq) = path.strip_suffix(".partition_point") {
            if tok_punct(tokens, after, '(') {
                if let Some(close) = matching(tokens, after) {
                    if close + 1 == rhs.end {
                        facts.push(ScopedFact {
                            needs_len: None,
                            fact: Fact::UpToLen {
                                var,
                                seq: seq.to_string(),
                            },
                            scope,
                        });
                        return;
                    }
                }
            }
        }
    }
    // `let v = EXPR.min(PATH.len() - k);` — the clamp must be the RHS's
    // final call so nothing widens the value afterwards.
    let mut k = rhs.start;
    while k + 1 < rhs.end {
        if tok_punct(tokens, k, '.') && tok_ident(tokens, k + 1) == Some("min") {
            if let Some(close) = matching(tokens, k + 2) {
                if close + 1 == rhs.end {
                    if let Some((seq, s)) = len_minus_expr(tokens, &(k + 3..close)) {
                        let fact = if s >= 1 {
                            Fact::VarBound {
                                var,
                                seq,
                                max_off: s - 1,
                            }
                        } else {
                            Fact::UpToLen { var, seq }
                        };
                        facts.push(ScopedFact {
                            fact,
                            scope,
                            // `.min(len() - s)` wraps in release when
                            // `len < s`, clamping to nothing at all.
                            needs_len: (s >= 1).then_some(s),
                        });
                        return;
                    }
                }
            }
        }
        k += 1;
    }
}

/// Shrinks a fact's scope to end at the first event that could invalidate
/// it: reassignment of the bound variable, or reassignment / shrinking
/// mutation of the sequence. Matches on last path segments, which kills
/// more than strictly necessary — the safe direction for a prover.
fn kill_scan(tokens: &[Token], sf: &mut ScopedFact) {
    let (var, mut seqs): (Option<String>, Vec<String>) = match &sf.fact {
        Fact::VarBound { var, seq, .. } | Fact::UpToLen { var, seq } => {
            (Some(var.clone()), vec![last_segment(seq).to_string()])
        }
        Fact::MinLen { seq, .. } | Fact::ExactLen { seq, .. } => {
            (None, vec![last_segment(seq).to_string()])
        }
        // The symbolic count is killed like a sequence: a reassignment of
        // its last segment invalidates the equation / bound.
        Fact::EqLenPath { seq, path } => (
            None,
            vec![
                last_segment(seq).to_string(),
                last_segment(path).to_string(),
            ],
        ),
        Fact::VarLtPath { var, path } => (Some(var.clone()), vec![last_segment(path).to_string()]),
        Fact::VarLeConst { var, .. } | Fact::ZeroConst { var } => (Some(var.clone()), Vec::new()),
    };
    seqs.dedup();
    let mut j = sf.scope.start;
    while j < sf.scope.end {
        if let Some(name) = tok_ident(tokens, j) {
            let hits_var = var.as_deref() == Some(name);
            let hits_seq = seqs.iter().any(|s| s == name);
            if hits_var || hits_seq {
                if reassigned_at(tokens, j) {
                    sf.scope.end = j;
                    return;
                }
                if hits_seq && shrunk_at(tokens, j) {
                    sf.scope.end = j;
                    return;
                }
            }
        }
        j += 1;
    }
}

/// `true` if the identifier at `i` is (re)bound here: `x = ..` (not
/// `==`/`<=`/..), compound `x += ..`, or a fresh `let x`.
fn reassigned_at(tokens: &[Token], i: usize) -> bool {
    if i >= 1
        && matches!(
            tok_ident(tokens, i - 1),
            Some("let") | Some("mut") | Some("ref")
        )
    {
        return true;
    }
    // Simple assignment: `x =` where the `=` is not part of `==`, `<=`,
    // `>=`, `!=`, `=>` — and `x` is not a field of something (`.x =`).
    if i >= 1 && tok_punct(tokens, i - 1, '.') {
        return false;
    }
    if tok_punct(tokens, i + 1, '=') {
        return !tok_punct(tokens, i + 2, '=') && !tok_punct(tokens, i + 2, '>');
    }
    // Compound assignment: `x OP=`.
    if let Some(t) = tokens.get(i + 1) {
        for op in ['+', '-', '*', '/', '%', '&', '|', '^'] {
            if t.is_punct(op) && tok_punct(tokens, i + 2, '=') {
                return true;
            }
        }
    }
    false
}

/// `true` if the identifier at `i` is a sequence receiving a shrinking
/// method call: `xs.truncate(..)`, `xs.pop()`, ….
fn shrunk_at(tokens: &[Token], i: usize) -> bool {
    tok_punct(tokens, i + 1, '.')
        && matches!(tok_ident(tokens, i + 2), Some(m) if SHRINK_METHODS.contains(&m))
        && tok_punct(tokens, i + 3, '(')
}

// ---------------------------------------------------------------------------
// Site proving
// ---------------------------------------------------------------------------

fn fact_active(facts: &[ScopedFact], at: usize, pred: impl Fn(&Fact) -> bool) -> bool {
    facts
        .iter()
        .any(|sf| sf.scope.contains(&at) && pred(&sf.fact))
}

/// Checks every `panic.indexing` site in `f`'s body against the facts;
/// proven sites land in `proven`, definite out-of-bounds accesses in
/// `out`.
fn prove_sites(
    file: &str,
    tokens: &[Token],
    f: &FnItem,
    facts: &[ScopedFact],
    proven: &mut BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    let mut i = f.body.start;
    while i < f.body.end {
        if index_site(tokens, i) && !proven.contains(&i) {
            let Some(close) = matching(tokens, i) else {
                i += 1;
                continue;
            };
            if let Some(seq) = path_ending_at(tokens, i - 1) {
                match prove_index(tokens, &(i + 1..close), &seq, facts, i) {
                    Proof::InBounds => {
                        proven.insert(i);
                    }
                    Proof::OutOfBounds(msg) => {
                        let line = tokens.get(i).map(|t| t.line).unwrap_or(f.line);
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

/// Decides one index expression `seq[expr]` at token position `at`.
pub(crate) fn prove_index(
    tokens: &[Token],
    expr: &Range<usize>,
    seq: &str,
    facts: &[ScopedFact],
    at: usize,
) -> Proof {
    // Range forms first: `[lo..]`, `[..hi]`, `[lo..hi]`.
    if let Some(dots) = depth0_dotdot(tokens, expr) {
        let lo = expr.start..dots;
        let hi = dots + 2..expr.end;
        let lo_ok = range_pos_ok(tokens, &lo, seq, facts, at, true);
        let hi_ok = range_pos_ok(tokens, &hi, seq, facts, at, false);
        // `lo..hi` with both present also needs lo ≤ hi, which we only
        // prove when lo is empty, zero, or lo and hi are both constants.
        let ordered = lo.is_empty()
            || tok_int(tokens, lo.start) == Some(0)
            || match (const_expr(tokens, &lo), const_expr(tokens, &hi)) {
                (Some(a), Some(b)) => a <= b,
                _ => hi.is_empty(),
            };
        return if lo_ok && hi_ok && ordered {
            Proof::InBounds
        } else {
            Proof::Unknown
        };
    }
    // `seq[E % COUNT]`: the remainder is `< COUNT`, so the index is in
    // bounds whenever `COUNT` equals `seq`'s length — either literally
    // (`E % seq.len()`) or via an `EqLenPath` equation. (An empty `seq`
    // makes the `%` itself panic before the index executes, so the index
    // site still cannot go out of bounds.)
    if let Some(m) = last_depth0_percent(tokens, expr) {
        let rhs = m + 1..expr.end;
        if let Some((p, 0)) = len_minus_expr(tokens, &rhs) {
            if p == seq {
                return Proof::InBounds;
            }
        }
        if let Some((p, after)) = path_starting_at(tokens, rhs.start) {
            if after == rhs.end
                && fact_active(
                    facts,
                    at,
                    |f| matches!(f, Fact::EqLenPath { seq: s, path } if s == seq && *path == p),
                )
            {
                return Proof::InBounds;
            }
        }
        return Proof::Unknown;
    }
    // `seq[seq.len()]` / `seq[seq.len() - k]`. The subtraction wraps in a
    // release build when `len < k` and the wrapped index reaches the
    // slice, so `len() - k` is only proof once the length is known ≥ k.
    if let Some((path, k)) = len_minus_expr(tokens, expr) {
        if path == seq {
            if k == 0 {
                return Proof::OutOfBounds(format!(
                    "`{seq}[{seq}.len()]` is always out of bounds — the last element is at `len() - 1`"
                ));
            }
            let long_enough = fact_active(facts, at, |f| {
                matches!(f, Fact::MinLen { seq: s, min_len } if s == seq && min_len + 1 >= k)
                    || matches!(f, Fact::ExactLen { seq: s, len } if s == seq && *len >= k)
            });
            return if long_enough {
                Proof::InBounds
            } else {
                Proof::Unknown
            };
        }
        return Proof::Unknown;
    }
    // Constant index.
    if let Some(c) = const_expr(tokens, expr) {
        if fact_active(facts, at, |f| {
            matches!(f, Fact::MinLen { seq: s, min_len } if s == seq && *min_len >= c)
                || matches!(f, Fact::ExactLen { seq: s, len } if s == seq && *len > c)
        }) {
            return Proof::InBounds;
        }
        // An exact length *refutes* constant indices at or above it.
        let oob = facts.iter().find(|sf| {
            sf.scope.contains(&at)
                && matches!(&sf.fact, Fact::ExactLen { seq: s, len } if s == seq && *len <= c)
        });
        if let Some(sf) = oob {
            if let Fact::ExactLen { len, .. } = &sf.fact {
                return Proof::OutOfBounds(format!(
                    "index {c} is out of bounds for `{seq}`, which has exactly {len} element(s)"
                ));
            }
        }
        return Proof::Unknown;
    }
    // `seq[var]` / `seq[var + c]` / `seq[c + var]`.
    if let Some((var, c)) = var_plus_const(tokens, expr).or_else(|| {
        // `c + var` commuted form.
        let c = tok_int(tokens, expr.start)?;
        if tok_punct(tokens, expr.start + 1, '+') && expr.start + 3 == expr.end {
            let v = tok_ident(tokens, expr.start + 2)?;
            Some((v.to_string(), c))
        } else {
            None
        }
    }) {
        if fact_active(facts, at, |f| {
            matches!(f, Fact::VarBound { var: v, seq: s, max_off }
                if *v == var && s == seq && *max_off >= c)
        }) {
            return Proof::InBounds;
        }
        // `var < count` joined with `seq.len() == count` (c must be 0 —
        // nothing relates `var + c` to the count).
        if c == 0 {
            let join = facts.iter().any(|a| {
                a.scope.contains(&at)
                    && match &a.fact {
                        Fact::VarLtPath { var: v, path } if *v == var => facts.iter().any(|b| {
                            b.scope.contains(&at)
                                && matches!(&b.fact, Fact::EqLenPath { seq: s, path: p }
                                        if s == seq && p == path)
                        }),
                        _ => false,
                    }
            });
            if join {
                return Proof::InBounds;
            }
        }
        // `var <= m` (a `.min(m)`-shaped summary) joined with a length
        // fact proving `seq.len() > m + c`.
        let le_join = facts.iter().any(|a| {
            a.scope.contains(&at)
                && match &a.fact {
                    Fact::VarLeConst { var: v, max } if *v == var => {
                        let need = max + c;
                        fact_active(facts, at, |f| {
                            matches!(f, Fact::MinLen { seq: s, min_len } if s == seq && *min_len >= need)
                                || matches!(f, Fact::ExactLen { seq: s, len } if s == seq && *len > need)
                        })
                    }
                    _ => false,
                }
        });
        if le_join {
            return Proof::InBounds;
        }
        return Proof::Unknown;
    }
    // `seq[rng.gen_range(0..seq.len())]` — the sampled index is < len by
    // construction (an empty range panics in `gen_range`, not here, and
    // only where `seq` could be empty — which the rule's other facts
    // would have to establish; we accept the pattern as the RNG contract).
    if let Some((path, after)) = path_starting_at(tokens, expr.start) {
        if path.ends_with(".gen_range")
            && tok_punct(tokens, after, '(')
            && tok_int(tokens, after + 1) == Some(0)
            && tok_punct(tokens, after + 2, '.')
            && tok_punct(tokens, after + 3, '.')
        {
            if let Some((inner, 0)) = len_minus_expr(tokens, &(after + 4..expr.end - 1)) {
                if inner == seq && matching(tokens, after).map(|c| c + 1) == Some(expr.end) {
                    return Proof::InBounds;
                }
            }
        }
    }
    Proof::Unknown
}

/// Last depth-0 binary `%` in `expr`, if any (a remainder, never the
/// start of the expression).
fn last_depth0_percent(tokens: &[Token], expr: &Range<usize>) -> Option<usize> {
    let mut depth = 0i64;
    let mut found = None;
    for j in expr.start..expr.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
            Some(t) if depth == 0 && t.is_punct('%') && j > expr.start => found = Some(j),
            _ => {}
        }
    }
    found
}

/// First depth-0 `..` in `expr`, if any.
fn depth0_dotdot(tokens: &[Token], expr: &Range<usize>) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = expr.start;
    while j + 1 < expr.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
            Some(t) if depth == 0 && t.is_punct('.') && tok_punct(tokens, j + 1, '.') => {
                // Only plain `..`; `..=` ranges are not proven.
                if tok_punct(tokens, j + 2, '=') {
                    return None;
                }
                return Some(j);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// A bare integer literal spanning exactly `range`.
pub(crate) fn const_expr(tokens: &[Token], range: &Range<usize>) -> Option<u64> {
    if range.start + 1 == range.end {
        tok_int(tokens, range.start)
    } else {
        None
    }
}

/// Is one side of a range position (`seq[pos..]` / `seq[..pos]`) proven
/// to satisfy `pos <= seq.len()`? An empty side trivially is.
fn range_pos_ok(
    tokens: &[Token],
    side: &Range<usize>,
    seq: &str,
    facts: &[ScopedFact],
    at: usize,
    _is_lo: bool,
) -> bool {
    if side.is_empty() {
        return true;
    }
    if let Some(c) = const_expr(tokens, side) {
        if c == 0 {
            return true;
        }
        return fact_active(facts, at, |f| {
            matches!(f, Fact::MinLen { seq: s, min_len } if s == seq && *min_len >= c - 1)
                || matches!(f, Fact::ExactLen { seq: s, len } if s == seq && *len >= c)
        });
    }
    if let Some((path, k)) = len_minus_expr(tokens, side) {
        // `seq[..seq.len() - k]`: for `k >= 1` the subtraction wraps in a
        // release build when `len < k`, and the wrapped position reaches
        // the slice — require the length to be known ≥ k first.
        return path == seq
            && (k == 0
                || fact_active(facts, at, |f| {
                    matches!(f, Fact::MinLen { seq: s, min_len } if s == seq && min_len + 1 >= k)
                        || matches!(f, Fact::ExactLen { seq: s, len } if s == seq && *len >= k)
                }));
    }
    if let Some(var) = tok_ident(tokens, side.start) {
        if side.start + 1 == side.end {
            return fact_active(facts, at, |f| {
                matches!(f, Fact::VarBound { var: v, seq: s, .. } if v == var && s == seq)
                    || matches!(f, Fact::UpToLen { var: v, seq: s } if v == var && s == seq)
            });
        }
    }
    false
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
    facts: &[ScopedFact],
    out: &mut Vec<Violation>,
) {
    let mut i = f.body.start;
    while i < f.body.end {
        let is_div = tok_punct(tokens, i, '/');
        let is_rem = tok_punct(tokens, i, '%');
        if is_div || is_rem {
            let op = if is_div { "/" } else { "%" };
            // `x /= d` puts the divisor one token later than `x / d`;
            // `//` cannot appear (comments are stripped by the lexer).
            let d = if tok_punct(tokens, i + 1, '=') {
                i + 2
            } else {
                i + 1
            };
            if tok_int(tokens, d) == Some(0)
                // The lexer folds float literals into one token, so a `.`
                // after the `0` here means a method call on it.
                && !tok_punct(tokens, d + 1, '.')
            {
                let line = tokens.get(i).map(|t| t.line).unwrap_or(f.line);
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
                if bare
                    && fact_active(
                        facts,
                        i,
                        |fa| matches!(fa, Fact::ZeroConst { var: v } if v == var),
                    )
                {
                    let line = tokens.get(i).map(|t| t.line).unwrap_or(f.line);
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
/// sums and assignments.
fn unit_pass(file: &str, tokens: &[Token], f: &FnItem, out: &mut Vec<Violation>) {
    let mut env: BTreeMap<String, &'static str> = BTreeMap::new();
    seed_params(tokens, f, &mut env);

    let mut i = f.body.start;
    while i < f.body.end {
        // `let [mut] name [: Type] = RHS ;` or `path [op]= RHS ;`.
        if let Some((name, explicit, rhs)) = assignment_at(tokens, i, &f.body) {
            let target = explicit
                .or_else(|| env.get(&name).copied())
                .or_else(|| known_unit(suggested_unit_type(&name)));
            let line = tokens.get(rhs.start).map(|t| t.line).unwrap_or(f.line);
            let rhs_unit = infer_terms(file, tokens, &rhs, &env, line, out);
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
                env.insert(name, u);
            }
            i = rhs.end;
            continue;
        }
        i += 1;
    }
}

/// Narrows `suggested_unit_type` results to the dimensions the dataflow
/// lattice tracks (it suggests only the four core types today, but stay
/// robust to growth).
fn known_unit(suggested: Option<&'static str>) -> Option<&'static str> {
    suggested.filter(|u| UNIT_TYPES.contains(u))
}

/// Seeds the environment from the parameter list: `name: Hertz` takes the
/// declared dimension; `name: f64` takes the dimension the *name* implies
/// (that is precisely the case `units.raw-f64` tolerates in private fns).
fn seed_params(tokens: &[Token], f: &FnItem, env: &mut BTreeMap<String, &'static str>) {
    let mut open = None;
    for j in f.sig.clone() {
        if tok_punct(tokens, j, '(') {
            open = Some(j);
            break;
        }
    }
    let Some(open) = open else { return };
    let Some(close) = matching(tokens, open) else {
        return;
    };
    let mut j = open + 1;
    while j < close {
        if let Some(name) = tok_ident(tokens, j) {
            if tok_punct(tokens, j + 1, ':')
                && !tok_punct(tokens, j + 2, ':')
                && !tok_punct(tokens, j - 1, ':')
            {
                // First type token, past `&`, lifetimes and `mut`.
                let mut t = j + 2;
                loop {
                    match tokens.get(t) {
                        Some(tk) if tk.is_punct('&') => t += 1,
                        Some(tk) if matches!(&tk.kind, crate::lexer::TokenKind::Lifetime(_)) => {
                            t += 1;
                        }
                        Some(tk) if tk.is_ident("mut") => t += 1,
                        _ => break,
                    }
                }
                if let Some(ty) = tok_ident(tokens, t) {
                    let unit = if UNIT_TYPES.contains(&ty) {
                        Some(ty_to_static(ty))
                    } else if ty == "f64" {
                        known_unit(suggested_unit_type(name))
                    } else {
                        None
                    };
                    if let Some(u) = unit {
                        env.insert(name.to_string(), u);
                    }
                }
            }
        }
        j += 1;
    }
}

fn ty_to_static(ty: &str) -> &'static str {
    UNIT_TYPES
        .iter()
        .find(|u| **u == ty)
        .copied()
        .unwrap_or("f64")
}

/// Recognises an assignment statement at `i`. Returns the target's last
/// segment, an explicitly annotated unit (let bindings only) and the RHS
/// token range (exclusive of the terminating `;`).
fn assignment_at(
    tokens: &[Token],
    i: usize,
    body: &Range<usize>,
) -> Option<(String, Option<&'static str>, Range<usize>)> {
    // `let [mut] name [: Type] =`
    if tok_ident(tokens, i) == Some("let") {
        let mut j = i + 1;
        if tok_ident(tokens, j) == Some("mut") {
            j += 1;
        }
        let name = tok_ident(tokens, j)?.to_string();
        let mut explicit = None;
        let mut k = j + 1;
        if tok_punct(tokens, k, ':') && !tok_punct(tokens, k + 1, ':') {
            if let Some(ty) = tok_ident(tokens, k + 1) {
                if UNIT_TYPES.contains(&ty) {
                    explicit = Some(ty_to_static(ty));
                } else if ty == "f64" {
                    explicit = known_unit(suggested_unit_type(&name));
                }
            }
            // Skip the annotation to the `=` at depth 0.
            let mut depth = 0i64;
            while k < body.end {
                match tokens.get(k) {
                    Some(t) if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') => depth += 1,
                    Some(t) if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') => depth -= 1,
                    Some(t) if t.is_punct('=') && depth == 0 => break,
                    Some(t) if t.is_punct(';') && depth == 0 => return None,
                    _ => {}
                }
                k += 1;
            }
        }
        if !tok_punct(tokens, k, '=') || tok_punct(tokens, k + 1, '=') {
            return None;
        }
        let end = statement_end(tokens, k + 1, body)?;
        return Some((name, explicit, k + 1..end));
    }
    // `path = RHS ;` / `path += RHS ;` — only when the statement starts
    // here (previous token ends a statement or block).
    let starts = i == body.start + 1
        || matches!(tokens.get(i.wrapping_sub(1)), Some(t) if t.is_punct(';') || t.is_punct('{') || t.is_punct('}'));
    if !starts {
        return None;
    }
    let (path, after) = path_starting_at(tokens, i)?;
    let name = last_segment(&path).to_string();
    let eq = if tok_punct(tokens, after, '=') && !tok_punct(tokens, after + 1, '=') {
        after
    } else if (tok_punct(tokens, after, '+') || tok_punct(tokens, after, '-'))
        && tok_punct(tokens, after + 1, '=')
    {
        after + 1
    } else {
        return None;
    };
    let end = statement_end(tokens, eq + 1, body)?;
    Some((name, None, eq + 1..end))
}

/// First `;` at depth 0 from `from`.
pub(crate) fn statement_end(tokens: &[Token], from: usize, body: &Range<usize>) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = from;
    while j < body.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => depth -= 1,
            Some(t) if t.is_punct(';') && depth == 0 => return Some(j),
            _ => {}
        }
        j += 1;
    }
    None
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
    let mut depth = 0i64;
    let mut start = rhs.start;
    let mut j = rhs.start;
    while j < rhs.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => depth -= 1,
            Some(t) if depth == 0 && (t.is_punct('+') || t.is_punct('-')) => {
                // Binary only: a `+`/`-` after an operand. Unary signs and
                // `->`/`..`-adjacent dashes don't split terms.
                let binary = j > rhs.start
                    && matches!(tokens.get(j - 1), Some(p) if p.ident().is_some()
                        || matches!(&p.kind, crate::lexer::TokenKind::Literal(_))
                        || p.is_punct(')') || p.is_punct(']'));
                let arrow = tok_punct(tokens, j + 1, '>');
                if binary && !arrow {
                    terms.push(start..j);
                    start = j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    terms.push(start..rhs.end);

    let mut inferred: Vec<&'static str> = Vec::new();
    let mut known = 0usize;
    for term in &terms {
        if let Some(u) = term_unit(tokens, term, env) {
            known += 1;
            if !inferred.contains(&u) {
                inferred.push(u);
            }
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
    if known == terms.len() {
        inferred.first().copied()
    } else {
        None
    }
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
    let mut start = term.start;
    if tok_punct(tokens, start, '-') {
        start += 1;
    }
    if start >= term.end {
        return None;
    }
    // Parenthesised term: recurse when the parens span the whole term.
    if tok_punct(tokens, start, '(') {
        if let Some(close) = matching(tokens, start) {
            if close + 1 == term.end {
                let inner = start + 1..close;
                // Only a *single* additive group keeps its dimension.
                let mut inferred = None;
                let mut depth = 0i64;
                let mut j = inner.start;
                let mut seg = inner.start;
                while j <= inner.end {
                    let split = j == inner.end
                        || (depth == 0
                            && matches!(tokens.get(j), Some(t) if t.is_punct('+') || t.is_punct('-'))
                            && j > seg);
                    if split {
                        let u = term_unit(tokens, &(seg..j), env)?;
                        match inferred {
                            None => inferred = Some(u),
                            Some(prev) if prev == u => {}
                            _ => return None,
                        }
                        seg = j + 1;
                    } else if let Some(t) = tokens.get(j) {
                        if t.is_punct('(') || t.is_punct('[') {
                            depth += 1;
                        } else if t.is_punct(')') || t.is_punct(']') {
                            depth -= 1;
                        }
                    }
                    j += 1;
                }
                return inferred;
            }
        }
        return None;
    }
    // Any depth-0 `*`, `/`, `%`, `as` inside the term → unknown dimension.
    let mut depth = 0i64;
    for j in start..term.end {
        match tokens.get(j) {
            Some(t) if t.is_punct('(') || t.is_punct('[') => depth += 1,
            Some(t) if t.is_punct(')') || t.is_punct(']') => depth -= 1,
            Some(t)
                if depth == 0
                    && (t.is_punct('*')
                        || t.is_punct('/')
                        || t.is_punct('%')
                        || t.is_ident("as")) =>
            {
                return None;
            }
            _ => {}
        }
    }
    // `Unit::new(..)` / `Unit::from_*(..)` constructor.
    let (path, after) = path_starting_at(tokens, start)?;
    let segments: Vec<&str> = path.split("::").collect();
    if let [ty, _ctor] = segments.as_slice() {
        if UNIT_TYPES.contains(ty) && tok_punct(tokens, after, '(') {
            if matching(tokens, after).map(|c| c + 1) == Some(term.end) {
                return Some(ty_to_static(ty));
            }
            return None;
        }
    }
    // `Unit::ZERO`-style associated consts.
    if let [ty, konst] = segments.as_slice() {
        if UNIT_TYPES.contains(ty)
            && konst.chars().all(|c| c.is_ascii_uppercase() || c == '_')
            && after == term.end
        {
            return Some(ty_to_static(ty));
        }
    }
    // A plain path (possibly dotted): a call result is unknown; a bare
    // value takes its dimension from the environment, else its name.
    if after != term.end || tok_punct(tokens, after, '(') {
        return None;
    }
    let last = last_segment(&path);
    if let Some(u) = env.get(last) {
        return Some(u);
    }
    known_unit(suggested_unit_type(last))
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
