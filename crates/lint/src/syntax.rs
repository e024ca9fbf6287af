//! Statement lowering: the one place that decides what statements a fn
//! body contains and over which token range each one holds (DESIGN.md
//! §9.3).
//!
//! The parser lowers every fn item once (`lower`) into the statements
//! of its body ([`Stmt`]): `let` bindings and assignments. `flow.unit`
//! is a fold over that output, and the parser and the passes share the
//! token helpers below.
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

/// Index of the bracket closing the one opened at `open` (`(`, `[` or
/// `{`; the three kinds nest as one family).
pub(crate) fn matching(tokens: &[Token], open: usize) -> Option<usize> {
    if nesting(tokens, open, false) != Some(1) {
        return None;
    }
    depth0(tokens, open + 1..tokens.len())
        .last()
        .filter(|&j| nesting(tokens, j, false) == Some(-1))
}

/// From an opening `<`, the index one past its matching `>`.
pub(crate) fn skip_angles(tokens: &[Token], open: usize) -> Option<usize> {
    if !tok_punct(tokens, open, '<') {
        return None;
    }
    let close = type_depth0(tokens, open + 1..tokens.len()).last()?;
    tok_punct(tokens, close, '>').then_some(close + 1)
}

/// First depth-0 `;` at or after `from` inside `body`.
pub(crate) fn statement_end(tokens: &[Token], from: usize, body: &Range<usize>) -> Option<usize> {
    depth0(tokens, from..body.end).find(|&j| tok_punct(tokens, j, ';'))
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
/// parenthesis into its argument-position parameters (a `self` receiver
/// is dropped).
pub(crate) fn lower_params(tokens: &[Token], open: usize, close: usize) -> Vec<Param> {
    let mut params = Vec::new();
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
    params
}

/// One lowered statement of a fn body. `rhs` is the token range of the
/// right-hand side, up to (not including) the closing `;`.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let [mut] var [: ty] = rhs;`
    Let {
        var: String,
        ty: Option<Range<usize>>,
        rhs: Range<usize>,
    },
    /// `target [op]= rhs;` for a (possibly dotted) path target.
    Assign {
        target: String,
        op: Option<char>,
        rhs: Range<usize>,
    },
}

/// Lowers one fn body (`body` includes both braces).
pub(crate) fn lower(tokens: &[Token], body: &Range<usize>) -> Vec<Stmt> {
    let stmts = body.clone().filter_map(|at| {
        if tok_ident(tokens, at)? == "let" {
            return lower_let(tokens, at, body);
        }
        let (target, op, rhs_start) = assign_at(tokens, at)?;
        let end = statement_end(tokens, rhs_start, body)?;
        Some(Stmt::Assign {
            target,
            op,
            rhs: rhs_start..end,
        })
    });
    stmts.collect()
}

fn lower_let(tokens: &[Token], at: usize, body: &Range<usize>) -> Option<Stmt> {
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
    Some(Stmt::Let {
        var,
        ty,
        rhs: eq + 1..end,
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
