//! Intraprocedural unit inference, `flow.unit` (DESIGN.md §9.3).
//!
//! A fold over each fn's lowered statements ([`crate::syntax`]) that
//! tracks the physical dimension of local bindings through let-bindings,
//! assignments and additive arithmetic. Facts are seeded three ways:
//! typed parameters (`f: Hertz`), `bsa-units` constructors
//! (`Hertz::new(..)`), and dimension-suggesting names (`bias_v`, `dt_s`,
//! via [`suggested_unit_type`]). Mixing dimensions in a sum or assigning
//! across dimensions is flagged — sites the purely syntactic
//! `units.raw-f64` signature rule cannot see.
//!
//! Index bounds and divisors are not this pass's business: every direct
//! index is a `panic.indexing` finding in library code, and rustc's
//! deny-by-default `unconditional_panic` lint already rejects a constant
//! index past a fixed-length array and a division by a constant zero.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::lexer::{Token, TokenKind};
use crate::parser::{FnItem, ParsedFile};
use crate::rules::{suggested_unit_type, violation, Violation};
use crate::syntax::{depth0, last_segment, matching, path_starting_at, tok_ident, tok_punct, Stmt};

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

/// Runs `flow.unit` over every fn of one parsed file.
pub fn flow_pass(tokens: &[Token], parsed: &ParsedFile, out: &mut Vec<Violation>) {
    for f in &parsed.fns {
        unit_pass(&parsed.path, tokens, f, out);
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
        let (name, explicit, rhs) = match s {
            Stmt::Let { var, ty, rhs } => {
                let explicit = ty.as_ref().and_then(|ty| type_unit(tokens, ty, var));
                (var.as_str(), explicit, rhs)
            }
            Stmt::Assign {
                target,
                op: None | Some('+' | '-'),
                rhs,
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
                    || matches!(&p.kind, TokenKind::Literal)
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

    fn run(src: &str) -> Vec<Violation> {
        let tokens = lex(src);
        let mut out = Vec::new();
        flow_pass(&tokens, &parse_file("test.rs", &tokens), &mut out);
        out
    }

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unit_mixed_sum_flagged() {
        let out = run("fn f(bias_v: f64, f_clk_hz: f64) -> f64 { let y = bias_v + f_clk_hz; y }");
        assert_eq!(rules(&out), vec!["flow.unit"]);
    }

    #[test]
    fn unit_cross_assignment_flagged() {
        let out = run("fn f(bias_v: f64) -> f64 { let t_s = bias_v; t_s }");
        assert_eq!(rules(&out), vec!["flow.unit"]);
    }

    #[test]
    fn unit_constructor_seeds_binding() {
        let out = run("fn f() -> f64 { let fc = Hertz::new(10.0); let dt_s = fc; 0.0 }");
        assert_eq!(rules(&out), vec!["flow.unit"]);
    }

    #[test]
    fn unit_consistent_sum_ok() {
        let out = run(
            "fn f(f_lo_hz: f64, f_hi_hz: f64) -> f64 { let span_hz = f_hi_hz - f_lo_hz; span_hz }",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn unit_product_is_dimensionless_to_the_lattice() {
        let out =
            run("fn f(bias_v: f64, gain: f64) -> f64 { let x = bias_v * gain; let t_s = x; t_s }");
        assert!(out.is_empty());
    }

    #[test]
    fn unit_typed_param_seeds_env() {
        let out = run("fn f(fc: Hertz) -> Hertz { let bias_v = fc; fc }");
        assert_eq!(rules(&out), vec!["flow.unit"]);
    }
}
