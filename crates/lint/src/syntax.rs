//! Statement lowering: the one place that decides what statements a fn
//! body contains and over which token range each one holds (DESIGN.md
//! §9.3).
//!
//! The parser lowers every fn item once ([`lower`]): the statements of
//! its body ([`Stmt`]) — `let` bindings, assignments, `if`/`while`
//! guards, `for` loops, asserts, the method calls that grow, fill or
//! window a sequence, and enum match arms — plus every point where a
//! local name is rebound or its sequence shrunk ([`Rebind`]). The
//! dataflow passes (`flow`, `summary`, `taint`) are folds over that
//! output, each with its own lattice, sharing the token helpers below
//! and one scoped [`Store`].
//!
//! Like the rest of the analyzer it is bounds-checked throughout: a
//! degenerate token stream lowers to nonsense, never to a panic.

use std::ops::Range;

use crate::lexer::{Token, TokenKind};

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

pub(crate) fn tok_ident(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(Token::ident)
}

pub(crate) fn tok_punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(c))
}

pub(crate) fn tok_int(tokens: &[Token], i: usize) -> Option<u64> {
    tokens.get(i).and_then(Token::int_value)
}

/// `+1` for an opening bracket, `-1` for a closing one, `0` otherwise.
/// With `angles`, `<`/`>` nest too (type position; the `>` of `->` does
/// not close).
fn nesting(tokens: &[Token], j: usize, angles: bool) -> Option<i8> {
    let t = tokens.get(j)?;
    Some(match &t.kind {
        TokenKind::Punct('(' | '[' | '{') => 1,
        TokenKind::Punct(')' | ']' | '}') => -1,
        TokenKind::Punct('<') if angles => 1,
        TokenKind::Punct('>') if angles && !tok_punct(tokens, j.wrapping_sub(1), '-') => -1,
        _ => 0,
    })
}

fn scan(tokens: &[Token], range: Range<usize>, angles: bool) -> impl Iterator<Item = usize> + '_ {
    let mut depth = Some(0usize);
    range
        .map_while(move |j| {
            let d = depth?;
            depth = match nesting(tokens, j, angles)? {
                1 => Some(d + 1),
                -1 => d.checked_sub(1),
                _ => Some(d),
            };
            Some((d == 0).then_some(j))
        })
        .flatten()
}

/// The positions in `range` at bracket depth 0, in order. An opening
/// bracket belongs to the outer level; the walk ends at a closing
/// bracket whose opener lies before `range` (that closer is the last
/// position yielded), so it never leaves the enclosing group.
pub(crate) fn depth0(tokens: &[Token], range: Range<usize>) -> impl Iterator<Item = usize> + '_ {
    scan(tokens, range, false)
}

/// [`depth0`] in type position, where `<…>` nests as well.
pub(crate) fn type_depth0(
    tokens: &[Token],
    range: Range<usize>,
) -> impl Iterator<Item = usize> + '_ {
    scan(tokens, range, true)
}

fn is_closer(tokens: &[Token], j: usize) -> bool {
    nesting(tokens, j, false) == Some(-1)
}

/// Index of the bracket closing the one opened at `open` (`(`, `[` or
/// `{`; the three kinds nest as one family).
pub(crate) fn matching(tokens: &[Token], open: usize) -> Option<usize> {
    if nesting(tokens, open, false) != Some(1) {
        return None;
    }
    depth0(tokens, open + 1..tokens.len())
        .last()
        .filter(|&j| is_closer(tokens, j))
}

/// From an opening `<`, the index one past its matching `>`.
pub(crate) fn skip_angles(tokens: &[Token], open: usize) -> Option<usize> {
    if !tok_punct(tokens, open, '<') {
        return None;
    }
    let close = type_depth0(tokens, open + 1..tokens.len()).last()?;
    tok_punct(tokens, close, '>').then_some(close + 1)
}

/// End (exclusive) of the innermost group enclosing `from`: the first
/// closing bracket whose opener lies before `from`, else `limit`.
pub(crate) fn enclosing_block_end(tokens: &[Token], from: usize, limit: usize) -> usize {
    depth0(tokens, from..limit)
        .find(|&j| is_closer(tokens, j))
        .unwrap_or(limit)
}

/// First depth-0 `;` at or after `from` inside `body`.
pub(crate) fn statement_end(tokens: &[Token], from: usize, body: &Range<usize>) -> Option<usize> {
    depth0(tokens, from..body.end).find(|&j| tok_punct(tokens, j, ';'))
}

/// Last depth-0 occurrence of punct `c` in `range` that is not its
/// first token (a binary operator, never a prefix).
pub(crate) fn last_depth0(tokens: &[Token], range: &Range<usize>, c: char) -> Option<usize> {
    depth0(tokens, range.clone())
        .filter(|&j| j > range.start && tok_punct(tokens, j, c))
        .last()
}

/// Splits `range` at every depth-0 occurrence of the punct sequence
/// `sep` (`&[',']`, `&['&', '&']`, …).
pub(crate) fn split(tokens: &[Token], range: &Range<usize>, sep: &[char]) -> Vec<Range<usize>> {
    let mut parts = Vec::new();
    let mut start = range.start;
    for j in depth0(tokens, range.clone()) {
        let hit = sep
            .iter()
            .enumerate()
            .all(|(k, c)| tok_punct(tokens, j + k, *c));
        if j >= start && hit {
            parts.push(start..j);
            start = j + sep.len();
        }
    }
    parts.push(start..range.end);
    parts
}

/// Parses a dotted/`::` path *ending* at token `end` (inclusive), walking
/// backwards. Returns the normalized path string (`self.rows`,
/// `Base::ALL`). `None` if `end` is not an identifier.
pub(crate) fn path_ending_at(tokens: &[Token], end: usize) -> Option<String> {
    path_span_ending_at(tokens, end).map(|(path, _)| path)
}

/// [`path_ending_at`], also returning the token index the path starts at.
pub(crate) fn path_span_ending_at(tokens: &[Token], end: usize) -> Option<(String, usize)> {
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
    Some((parts.concat(), i))
}

/// One past the last token of the dotted/`::` path starting at `start`.
fn path_end(tokens: &[Token], start: usize) -> Option<usize> {
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
            return Some(end + 1);
        }
    }
}

/// Parses a dotted/`::` path *starting* at token `start`. Returns the
/// normalized string and the index one past its last token.
pub(crate) fn path_starting_at(tokens: &[Token], start: usize) -> Option<(String, usize)> {
    let after = path_end(tokens, start)?;
    path_ending_at(tokens, after - 1).map(|p| (p, after))
}

/// Last segment of a normalized path (`self.rows` → `rows`).
pub(crate) fn last_segment(path: &str) -> &str {
    path.rsplit(['.', ':']).next().unwrap_or(path)
}

/// A path spanning exactly `range`.
pub(crate) fn exact_path(tokens: &[Token], range: &Range<usize>) -> Option<String> {
    let (path, after) = path_starting_at(tokens, range.start)?;
    (after == range.end).then_some(path)
}

/// Matches `PATH . len ( ) [- k]` filling `range`; `k = 0` when there is
/// no subtraction. Returns `(path, k)` only if the tokens span exactly
/// `range` (no trailing residue).
pub(crate) fn len_minus_expr(tokens: &[Token], range: &Range<usize>) -> Option<(String, u64)> {
    let (path, after) = path_starting_at(tokens, range.start)?;
    // The path parser swallowed `.len` as its final segment.
    let seq = path.strip_suffix(".len")?.to_string();
    if !tok_punct(tokens, after, '(') || !tok_punct(tokens, after + 1, ')') {
        return None;
    }
    if after + 2 == range.end {
        return Some((seq, 0));
    }
    let k = tok_int(tokens, after + 3).filter(|_| tok_punct(tokens, after + 2, '-'))?;
    (after + 4 == range.end).then_some((seq, k))
}

/// A bare integer literal spanning exactly `range`.
pub(crate) fn const_expr(tokens: &[Token], range: &Range<usize>) -> Option<u64> {
    if range.start + 1 == range.end {
        tok_int(tokens, range.start)
    } else {
        None
    }
}

/// Matches `[*]var [+ c]` spanning exactly `range`; returns (var, c).
/// A leading `*` (deref of a copied index) binds the same variable.
/// Dotted paths are rejected — bounds on fields are cut too coarsely to
/// be worth tracking.
pub(crate) fn var_plus_const(tokens: &[Token], range: &Range<usize>) -> Option<(String, u64)> {
    let mut start = range.start;
    if tok_punct(tokens, start, '*') && tok_ident(tokens, start + 1).is_some() {
        start += 1;
    }
    let var = tok_ident(tokens, start)?.to_string();
    if start + 1 == range.end {
        return Some((var, 0));
    }
    let c = tok_int(tokens, start + 2).filter(|_| tok_punct(tokens, start + 1, '+'))?;
    (start + 3 == range.end).then_some((var, c))
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
    depth0(tokens, range.clone()).find_map(|j| {
        let eq = tok_punct(tokens, j + 1, '=');
        let op = match tokens.get(j)?.kind {
            TokenKind::Punct('<') if eq => Cmp::Le,
            TokenKind::Punct('<') => Cmp::Lt,
            TokenKind::Punct('>') if eq => Cmp::Ge,
            TokenKind::Punct('>') => Cmp::Gt,
            TokenKind::Punct('=') if eq => Cmp::Eq,
            TokenKind::Punct('!') if eq => Cmp::Ne,
            _ => return None,
        };
        let width = if eq { 2 } else { 1 };
        Some((range.start..j, op, j + width))
    })
}

/// Token range of argument `k` in the argument list `args` (the tokens
/// between a call's parentheses).
pub(crate) fn call_arg_range(
    tokens: &[Token],
    args: &Range<usize>,
    k: usize,
) -> Option<Range<usize>> {
    split(tokens, args, &[','])
        .into_iter()
        .nth(k)
        .filter(|r| !r.is_empty())
}

/// Argument `k` of `args` as a normalized path (a leading `&`/`&mut` is
/// stripped); `None` when the argument is not a bare path.
pub(crate) fn call_arg_path(tokens: &[Token], args: &Range<usize>, k: usize) -> Option<String> {
    let range = call_arg_range(tokens, args, k)?;
    let mut start = range.start;
    if tok_punct(tokens, start, '&') {
        start += 1;
        if tok_ident(tokens, start) == Some("mut") {
            start += 1;
        }
    }
    exact_path(tokens, &(start..range.end))
}

/// `RECV.name(args)` as the last call of `range` — its parentheses close
/// at the end of `range` — for one of `names`. Returns the argument
/// range.
pub(crate) fn final_call(
    tokens: &[Token],
    range: &Range<usize>,
    names: &[&str],
) -> Option<Range<usize>> {
    depth0(tokens, range.clone()).find_map(|k| {
        tok_ident(tokens, k + 1).filter(|n| tok_punct(tokens, k, '.') && names.contains(n))?;
        let close = matching(tokens, k + 2).filter(|c| c + 1 == range.end)?;
        Some(k + 3..close)
    })
}

/// For `[e; N]` with `[` at `open`: the count `N`'s range.
pub(crate) fn repeat_count(tokens: &[Token], open: usize) -> Option<Range<usize>> {
    let close = matching(tokens, open)?;
    let semi = depth0(tokens, open + 1..close)
        .filter(|&j| tok_punct(tokens, j, ';'))
        .last()?;
    Some(semi + 1..close)
}

// ---------------------------------------------------------------------------
// Lowered statements
// ---------------------------------------------------------------------------

/// One fn parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Bound name (`mut`/`&` stripped); empty for destructuring patterns.
    pub name: String,
    /// Token index of the parameter's first token.
    pub at: usize,
    /// Token range of the declared type.
    pub ty: Range<usize>,
}

/// Lowers the parameter list between `open` and its matching `close`
/// parenthesis. Returns the argument-position parameters (a `self`
/// receiver is dropped) and whether there was a receiver.
pub(crate) fn lower_params(tokens: &[Token], open: usize, close: usize) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let ends = type_depth0(tokens, open + 1..close)
        .filter(|&j| tok_punct(tokens, j, ','))
        .chain([close]);
    let mut start = open + 1;
    for end in ends {
        let seg = start..end;
        start = end + 1;
        if seg.is_empty() {
            continue;
        }
        let mut p = seg.start;
        while tok_punct(tokens, p, '&')
            || tok_ident(tokens, p) == Some("mut")
            || matches!(tokens.get(p).map(|t| &t.kind), Some(TokenKind::Lifetime(_)))
        {
            p += 1;
        }
        if tok_ident(tokens, p) == Some("self") {
            has_self = true;
            continue;
        }
        let colon = type_depth0(tokens, seg.clone()).find(|&j| {
            tok_punct(tokens, j, ':')
                && !tok_punct(tokens, j + 1, ':')
                && !tok_punct(tokens, j - 1, ':')
        });
        let name = match (tok_ident(tokens, p), colon) {
            (Some(name), Some(c)) if c == p + 1 => name.to_string(),
            _ => String::new(),
        };
        let ty = colon.map_or(seg.end..seg.end, |c| c + 1..seg.end);
        params.push(Param {
            name,
            at: seg.start,
            ty,
        });
    }
    (params, has_self)
}

/// A method call with a dataflow effect on its receiver or argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// `push`, `extend`, … — the arguments flow into the receiver.
    Grow,
    /// `read_exact(&mut buf)` — the argument now holds peer bytes.
    Fill,
    /// `windows(k)` / `chunks_exact(k)` — yields `k`-element slices.
    Window,
}

/// Methods that can shrink a `Vec`/`String`, invalidating any captured
/// length bound. Growth preserves every length fact tracked.
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

/// Methods that write their arguments into the receiver collection.
const GROW_METHODS: &[&str] = &[
    "push",
    "extend",
    "extend_from_slice",
    "insert",
    "append",
    "push_str",
    "copy_from_slice",
];

/// One lowered statement of a fn body, anchored at its first token.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Anchor: the keyword, target, method name or enum name.
    pub at: usize,
    pub kind: StmtKind,
}

/// The statement shapes the dataflow passes consume. Every `scope`,
/// `body` and `after` is the token range over which the statement's
/// binding or condition holds.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `let [mut] var [: ty] = rhs;` — holds after the `;` (`rhs.end`)
    /// to the end of the enclosing block.
    Let {
        var: String,
        ty: Option<Range<usize>>,
        rhs: Range<usize>,
        scope: Range<usize>,
    },
    /// `target [op]= rhs;` for a (possibly dotted) path target.
    Assign {
        target: String,
        op: Option<char>,
        rhs: Range<usize>,
        scope: Range<usize>,
    },
    /// `if COND { body }` / `while COND { body }` (not `if let`/`while
    /// let`). `parts` are COND's conjuncts (`joined_by` `&`) or
    /// disjuncts (`|`), or COND whole (`None`); empty when COND mixes
    /// both. `exits` marks an `if` whose body starts with
    /// `return`/`break`/`continue`; `after` runs from the body's close to
    /// the end of the enclosing block.
    Guard {
        parts: Vec<Range<usize>>,
        joined_by: Option<char>,
        exits: bool,
        body: Range<usize>,
        after: Range<usize>,
    },
    /// `for pat in iter { body }`.
    For {
        pat: Range<usize>,
        iter: Range<usize>,
        body: Range<usize>,
    },
    /// `assert!(args)` / `assert_eq!(args)` — holds for the rest of the
    /// enclosing block. `debug_assert!` proves nothing in release builds
    /// and is not lowered.
    Assert {
        eq: bool,
        args: Range<usize>,
        scope: Range<usize>,
    },
    /// `recv.method(args)` for a method with an [`Effect`]; `recv` is the
    /// ident before the dot, `bare` when it is the whole receiver path.
    Call {
        effect: Effect,
        recv: Option<String>,
        bare: bool,
        args: Range<usize>,
        after: Range<usize>,
    },
    /// `Enum::Variant { .. } => body` / `Enum::Variant(..) => body`: the
    /// pattern's bindings hold in the arm body.
    Arm {
        bindings: Vec<String>,
        arrow: usize,
        body: Range<usize>,
    },
}

/// A point where a local name stops meaning what it meant: a fresh
/// binding (`let x`, `mut x`, `ref x`, and `&mut x`, which lends it out
/// mutably), an assignment to a path ending in `name`, or — `shrink` —
/// a shrinking method call on `name`.
#[derive(Debug, Clone)]
pub struct Rebind {
    pub at: usize,
    pub name: String,
    pub shrink: bool,
}

/// Lowers one fn body (`body` includes both braces).
pub(crate) fn lower(tokens: &[Token], body: &Range<usize>) -> (Vec<Stmt>, Vec<Rebind>) {
    let mut stmts = Vec::new();
    let mut rebinds = Vec::new();
    for at in body.clone() {
        let Some(name) = tok_ident(tokens, at) else {
            continue;
        };
        let prev = at.wrapping_sub(1);
        let method = tok_punct(tokens, prev, '.') && tok_punct(tokens, at + 1, '(');
        if matches!(tok_ident(tokens, prev), Some("let" | "mut" | "ref")) {
            rebinds.push(Rebind {
                at,
                name: name.to_string(),
                shrink: false,
            });
        }
        let kind = match name {
            "let" => lower_let(tokens, at, body),
            "if" | "while" => lower_guard(tokens, at, body),
            "for" => lower_for(tokens, at, body),
            "assert" | "assert_eq" => lower_assert(tokens, at, body),
            m if method && SHRINK_METHODS.contains(&m) => {
                if let Some(recv) = tok_ident(tokens, at.wrapping_sub(2)) {
                    rebinds.push(Rebind {
                        at: at - 2,
                        name: recv.to_string(),
                        shrink: true,
                    });
                }
                None
            }
            m if method => lower_call(tokens, at, m, body),
            _ if tok_punct(tokens, at + 1, ':') && tok_punct(tokens, at + 2, ':') => {
                lower_arm(tokens, at, body)
            }
            _ => {
                // Every assignment rebinds, even one with no `;` after it
                // (a block tail, a match arm, a closure body); only those
                // with one become an `Assign` statement.
                let assign = assign_at(tokens, at);
                if let Some((target, ..)) = &assign {
                    rebinds.push(Rebind {
                        at,
                        name: last_segment(target).to_string(),
                        shrink: false,
                    });
                }
                assign.and_then(|(target, op, rhs_start)| {
                    let end = statement_end(tokens, rhs_start, body)?;
                    Some(StmtKind::Assign {
                        target,
                        op,
                        rhs: rhs_start..end,
                        scope: end + 1..enclosing_block_end(tokens, end + 1, body.end),
                    })
                })
            }
        };
        if let Some(kind) = kind {
            stmts.push(Stmt { at, kind });
        }
    }
    (stmts, rebinds)
}

fn lower_let(tokens: &[Token], at: usize, body: &Range<usize>) -> Option<StmtKind> {
    let mut j = at + 1;
    if tok_ident(tokens, j) == Some("mut") {
        j += 1;
    }
    let var = tok_ident(tokens, j)?.to_string();
    let (ty, eq) = if tok_punct(tokens, j + 1, ':') {
        let eq = type_depth0(tokens, j + 2..body.end)
            .find(|&k| tok_punct(tokens, k, '=') || tok_punct(tokens, k, ';'))?;
        (Some(j + 2..eq), eq)
    } else {
        (None, j + 1)
    };
    if !tok_punct(tokens, eq, '=') || tok_punct(tokens, eq + 1, '=') {
        return None;
    }
    let end = statement_end(tokens, eq + 1, body)?;
    Some(StmtKind::Let {
        var,
        ty,
        rhs: eq + 1..end,
        scope: end + 1..enclosing_block_end(tokens, end + 1, body.end),
    })
}

/// `PATH =` or `PATH op=` starting at `at`: the target path, the
/// compound operator, and where the right-hand side starts.
fn assign_at(tokens: &[Token], at: usize) -> Option<(String, Option<char>, usize)> {
    let prev = at.wrapping_sub(1);
    if tok_punct(tokens, prev, '.') || tok_punct(tokens, prev, ':') {
        return None;
    }
    if matches!(tok_ident(tokens, prev), Some("let" | "mut" | "ref")) {
        return None;
    }
    let after = path_end(tokens, at)?;
    let (op, rhs_start) = if tok_punct(tokens, after, '=') {
        if tok_punct(tokens, after + 1, '=') || tok_punct(tokens, after + 1, '>') {
            return None;
        }
        (None, after + 1)
    } else {
        let op = "+-*/%&|^".chars().find(|c| tok_punct(tokens, after, *c))?;
        if !tok_punct(tokens, after + 1, '=') {
            return None;
        }
        (Some(op), after + 2)
    };
    Some((path_ending_at(tokens, after - 1)?, op, rhs_start))
}

/// The `{` opening the block of a header that starts at `from`.
fn block_open(tokens: &[Token], from: usize, body: &Range<usize>) -> Option<usize> {
    depth0(tokens, from..body.end).find(|&j| tok_punct(tokens, j, '{'))
}

fn lower_guard(tokens: &[Token], at: usize, body: &Range<usize>) -> Option<StmtKind> {
    if tok_ident(tokens, at + 1) == Some("let") {
        return None;
    }
    let open = block_open(tokens, at + 1, body)?;
    let close = matching(tokens, open)?;
    let cond = at + 1..open;
    let conj = split(tokens, &cond, &['&', '&']);
    let disj = split(tokens, &cond, &['|', '|']);
    let (parts, joined_by) = match (conj.len() > 1, disj.len() > 1) {
        (true, true) => (Vec::new(), None),
        (true, false) => (conj, Some('&')),
        (false, true) => (disj, Some('|')),
        (false, false) => (conj, None),
    };
    let exits = tok_ident(tokens, at) == Some("if")
        && matches!(
            tok_ident(tokens, open + 1),
            Some("return" | "break" | "continue")
        );
    Some(StmtKind::Guard {
        parts,
        joined_by,
        exits,
        body: open..close + 1,
        after: close + 1..enclosing_block_end(tokens, close + 1, body.end),
    })
}

fn lower_for(tokens: &[Token], at: usize, body: &Range<usize>) -> Option<StmtKind> {
    let open = block_open(tokens, at + 1, body)?;
    let close = matching(tokens, open)?;
    let in_at = depth0(tokens, at + 1..open).find(|&j| tok_ident(tokens, j) == Some("in"))?;
    Some(StmtKind::For {
        pat: at + 1..in_at,
        iter: in_at + 1..open,
        body: open..close + 1,
    })
}

fn lower_assert(tokens: &[Token], at: usize, body: &Range<usize>) -> Option<StmtKind> {
    if !tok_punct(tokens, at + 1, '!') {
        return None;
    }
    let close = matching(tokens, at + 2).filter(|_| tok_punct(tokens, at + 2, '('))?;
    Some(StmtKind::Assert {
        eq: tok_ident(tokens, at) == Some("assert_eq"),
        args: at + 3..close,
        scope: close + 1..enclosing_block_end(tokens, close + 1, body.end),
    })
}

fn lower_call(tokens: &[Token], at: usize, name: &str, body: &Range<usize>) -> Option<StmtKind> {
    let effect = match name {
        "read_exact" => Effect::Fill,
        "windows" | "chunks_exact" => Effect::Window,
        m if GROW_METHODS.contains(&m) => Effect::Grow,
        _ => return None,
    };
    let close = matching(tokens, at + 1)?;
    let deeper = tok_ident(tokens, at.wrapping_sub(3)).is_some()
        || tok_punct(tokens, at.wrapping_sub(3), '.');
    Some(StmtKind::Call {
        effect,
        recv: tok_ident(tokens, at.wrapping_sub(2)).map(str::to_string),
        bare: at >= 2 && !deeper,
        args: at + 2..close,
        after: close..enclosing_block_end(tokens, close, body.end),
    })
}

fn lower_arm(tokens: &[Token], at: usize, body: &Range<usize>) -> Option<StmtKind> {
    tok_ident(tokens, at + 3)?;
    let pat_open = at + 4;
    if !tok_punct(tokens, pat_open, '{') && !tok_punct(tokens, pat_open, '(') {
        return None; // unit variant: nothing bound
    }
    let pat_close = matching(tokens, pat_open)?;
    // Pattern, not construction: an arm arrow must follow at depth 0.
    let arrow = depth0(tokens, pat_close + 1..body.end).find(|&j| {
        tok_punct(tokens, j, ',')
            || tok_punct(tokens, j, ';')
            || is_closer(tokens, j)
            || (tok_punct(tokens, j, '=') && tok_punct(tokens, j + 1, '>'))
    })?;
    if !tok_punct(tokens, arrow, '=') {
        return None;
    }
    // Arm body: a brace block, or everything up to the arm's `,` / the
    // match's closing `}`.
    let start = arrow + 2;
    let end = if tok_punct(tokens, start, '{') {
        matching(tokens, start)? + 1
    } else {
        depth0(tokens, start..body.end)
            .find(|&j| tok_punct(tokens, j, ',') || is_closer(tokens, j))
            .unwrap_or(body.end)
    };
    // Bindings: idents not introducing a field name (`field: pat`) and
    // not pattern keywords. A stray nested-enum segment binds a name no
    // expression reads — harmless.
    let bindings = (pat_open + 1..pat_close)
        .filter_map(|k| {
            let name = tok_ident(tokens, k)?;
            let skip = matches!(name, "mut" | "ref" | "_") || tok_punct(tokens, k + 1, ':');
            (!skip).then(|| name.to_string())
        })
        .collect();
    Some(StmtKind::Arm {
        bindings,
        arrow,
        body: start..end,
    })
}

// ---------------------------------------------------------------------------
// The scoped store
// ---------------------------------------------------------------------------

/// One binding in a [`Store`]: `value` holds over `scope`, taking effect
/// at `start` (later starts shadow earlier ones).
#[derive(Debug, Clone)]
pub struct Scoped<T> {
    pub start: usize,
    pub scope: Range<usize>,
    pub value: T,
}

/// The scoped bindings of one fn body, in the order they were made.
#[derive(Debug, Clone)]
pub struct Store<T> {
    pub entries: Vec<Scoped<T>>,
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

impl<T> Store<T> {
    pub fn push(&mut self, start: usize, scope: Range<usize>, value: T) {
        self.entries.push(Scoped {
            start,
            scope,
            value,
        });
    }

    /// Every value holding at `at`.
    pub fn at(&self, at: usize) -> impl Iterator<Item = &T> {
        self.entries
            .iter()
            .filter(move |e| e.scope.contains(&at))
            .map(|e| &e.value)
    }

    /// Among the values holding at `at` that `pred` accepts, the one
    /// bound last.
    pub fn latest(&self, at: usize, pred: impl Fn(&T) -> bool) -> Option<&T> {
        self.entries
            .iter()
            .filter(|e| e.scope.contains(&at) && pred(&e.value))
            .max_by_key(|e| e.start)
            .map(|e| &e.value)
    }

    /// Cuts each binding short at the first [`Rebind`] inside its scope
    /// that rebinds its variable or rebinds or shrinks one of its
    /// sequences. `names` gives a value's variable and sequences (last
    /// path segments).
    pub fn cut(&mut self, rebinds: &[Rebind], names: impl Fn(&T) -> (Option<&str>, Vec<&str>)) {
        for e in &mut self.entries {
            let (var, seqs) = names(&e.value);
            let first = rebinds
                .iter()
                .filter(|r| {
                    let name = Some(r.name.as_str());
                    e.scope.contains(&r.at)
                        && (seqs.contains(&r.name.as_str()) || (!r.shrink && var == name))
                })
                .map(|r| r.at)
                .min();
            if let Some(at) = first {
                e.scope.end = at;
            }
        }
    }
}
