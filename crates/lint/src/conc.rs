//! `conc.*` — concurrency discipline in the serving layer.
//!
//! The station's `/stats` counters are plain `AtomicU64`s updated from
//! many session threads; the bugs worth catching are not data races (the
//! type system forbids those) but *logic* races and lock misuse:
//!
//! * `conc.atomic-rmw` — a `load` of an atomic followed, in the same fn,
//!   by a mutation of (or a `&`-escape of) the same field is a
//!   check-then-act window: another thread can interleave between the
//!   read and the write. Functions that use `compare_exchange`/
//!   `compare_exchange_weak`/`fetch_update` anywhere are exempt — that
//!   *is* the sanctioned read-modify-write shape.
//! * `conc.ordering` — one counter accessed with several different
//!   `Ordering`s across the crate usually means someone strengthened a
//!   single site and left the rest behind; pick one per counter.
//! * `conc.hold-and-block` — a blocking call (socket write, channel
//!   recv, thread join…) made after `.lock(…)` in the same fn body
//!   stalls every other thread contending for that mutex.
//!
//! Field identity is by name (`self.sessions_active` and
//! `stats.sessions_active` are the same counter); see DESIGN.md §9.2 for
//! the approximations this buys and costs.

use crate::parser::ParsedFile;
use crate::rules::{violation, Violation};
use crate::workspace::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Where the concurrency rules apply: the multi-threaded serving layer.
pub const STATION_PREFIX: &str = "crates/station/src/";

/// The recovery controller also gets the concurrency rules: it calls
/// blocking link requests and backoff sleeps, and must never do so
/// while holding a lock.
pub const CONTROL_PREFIX: &str = "crates/control/src/";

/// The frame store runs a dedicated writer thread behind a bounded
/// queue, so it gets the concurrency rules too.
pub const STORE_PREFIX: &str = "crates/store/src/";

/// Atomic methods that carry an `Ordering` argument.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Methods that mutate the atomic's value.
const MUTATORS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
];

/// The sanctioned read-modify-write primitives: their presence in a fn
/// exempts it from `conc.atomic-rmw`.
const RMW_PRIMITIVES: &[&str] = &["compare_exchange", "compare_exchange_weak", "fetch_update"];

/// Calls that block the current thread (socket/channel/thread APIs used in
/// this workspace).
const BLOCKING_CALLS: &[&str] = &[
    "write_all",
    "write_message",
    "read_message",
    "read_exact",
    "read_to_end",
    "recv",
    "recv_timeout",
    "send",
    "join",
    "accept",
    "flush",
    "wait",
    "wait_timeout",
    "park",
    "sleep",
];

/// One atomic operation site inside a fn body.
struct AtomicOp {
    field: String,
    method: String,
    line: usize,
    /// Absolute token index of the method ident.
    pos: usize,
    orderings: Vec<String>,
}

/// Runs the concurrency rules over files under `prefix`. `sources` and
/// `parsed` must be index-aligned.
pub fn conc_pass(
    sources: &[SourceFile],
    parsed: &[ParsedFile],
    prefix: &str,
    out: &mut Vec<Violation>,
) {
    // (field -> orderings seen, with first site for the report).
    let mut orderings: BTreeMap<String, (BTreeSet<String>, String, usize)> = BTreeMap::new();

    for (fi, pf) in parsed.iter().enumerate() {
        if !pf.path.starts_with(prefix) {
            continue;
        }
        let Some(src) = sources.get(fi) else { continue };
        for f in &pf.fns {
            let ops = collect_ops(&src.tokens, f.body.clone());
            for op in &ops {
                let entry = orderings
                    .entry(op.field.clone())
                    .or_insert_with(|| (BTreeSet::new(), pf.path.clone(), op.line));
                entry.0.extend(op.orderings.iter().cloned());
            }
            rmw_check(&src.tokens, f.body.clone(), &ops, &pf.path, out);
            hold_and_block_check(&src.tokens, f.body.clone(), &pf.path, out);
        }
    }

    for (field, (set, file, line)) in &orderings {
        if set.len() > 1 {
            let list = set.iter().cloned().collect::<Vec<_>>().join(", ");
            out.push(violation(
                file,
                *line,
                "conc.ordering",
                format!(
                    "atomic `{field}` is accessed with mixed memory orderings ({list}); \
                     pick one ordering per counter"
                ),
            ));
        }
    }
}

/// Finds `receiver.method(… Ordering::X …)` atomic operations in a body.
fn collect_ops(tokens: &[crate::lexer::Token], body: std::ops::Range<usize>) -> Vec<AtomicOp> {
    let mut ops = Vec::new();
    for k in body {
        let Some(t) = tokens.get(k) else { break };
        let Some(name) = t.ident() else { continue };
        if !ATOMIC_METHODS.contains(&name) {
            continue;
        }
        let dotted = k
            .checked_sub(1)
            .and_then(|p| tokens.get(p))
            .is_some_and(|t| t.is_punct('.'));
        let called = matches!(tokens.get(k + 1), Some(t) if t.is_punct('('));
        if !dotted || !called {
            continue;
        }
        let Some(field) = k
            .checked_sub(2)
            .and_then(|p| tokens.get(p))
            .and_then(|t| t.ident())
        else {
            continue;
        };
        let ords = argument_orderings(tokens, k + 1);
        if ords.is_empty() {
            // `load`/`swap`/… on a non-atomic receiver (Vec::swap, a file
            // read…) — not our business.
            continue;
        }
        ops.push(AtomicOp {
            field: field.to_string(),
            method: name.to_string(),
            line: t.line,
            pos: k,
            orderings: ords,
        });
    }
    ops
}

/// Collects `Ordering::X` idents inside the balanced argument list opening
/// at `open` (which must be a `(`).
fn argument_orderings(tokens: &[crate::lexer::Token], open: usize) -> Vec<String> {
    let mut ords = Vec::new();
    let mut depth = 0usize;
    let mut k = open;
    while let Some(t) = tokens.get(k) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                break;
            }
        } else if t.is_ident("Ordering") {
            let colons = matches!(tokens.get(k + 1), Some(t) if t.is_punct(':'))
                && matches!(tokens.get(k + 2), Some(t) if t.is_punct(':'));
            if colons {
                if let Some(v) = tokens.get(k + 3).and_then(|t| t.ident()) {
                    ords.push(v.to_string());
                }
            }
        }
        k += 1;
    }
    ords
}

/// `conc.atomic-rmw`: a `load` followed by a mutation or `&`-escape of the
/// same field later in the body.
fn rmw_check(
    tokens: &[crate::lexer::Token],
    body: std::ops::Range<usize>,
    ops: &[AtomicOp],
    file: &str,
    out: &mut Vec<Violation>,
) {
    if ops
        .iter()
        .any(|o| RMW_PRIMITIVES.contains(&o.method.as_str()))
    {
        return;
    }
    for load in ops.iter().filter(|o| o.method == "load") {
        let mutated = ops.iter().any(|o| {
            o.pos > load.pos && o.field == load.field && MUTATORS.contains(&o.method.as_str())
        });
        let escaped = field_escapes_after(tokens, body.clone(), load.pos, &load.field);
        if mutated || escaped {
            out.push(violation(
                file,
                load.line,
                "conc.atomic-rmw",
                format!(
                    "atomic `{}` is `load`ed and then modified in the same fn — another \
                     thread can interleave; use a single RMW op or a compare_exchange loop",
                    load.field
                ),
            ));
        }
    }
}

/// `true` if `field` is passed by reference (to a helper that can mutate
/// it) after token `after` within the body: ident preceded by `.` or `&`
/// and followed by `,` or `)`.
fn field_escapes_after(
    tokens: &[crate::lexer::Token],
    body: std::ops::Range<usize>,
    after: usize,
    field: &str,
) -> bool {
    for k in body {
        if k <= after {
            continue;
        }
        let Some(t) = tokens.get(k) else { break };
        if !t.is_ident(field) {
            continue;
        }
        let prev_ok = k
            .checked_sub(1)
            .and_then(|p| tokens.get(p))
            .is_some_and(|t| t.is_punct('.') || t.is_punct('&'));
        let next_ok = matches!(tokens.get(k + 1), Some(t) if t.is_punct(',') || t.is_punct(')'));
        if prev_ok && next_ok {
            return true;
        }
    }
    false
}

/// `conc.hold-and-block`: a blocking call after a `.lock(` in the same fn.
fn hold_and_block_check(
    tokens: &[crate::lexer::Token],
    body: std::ops::Range<usize>,
    file: &str,
    out: &mut Vec<Violation>,
) {
    let mut lock_pos: Option<usize> = None;
    for k in body {
        let Some(t) = tokens.get(k) else { break };
        let Some(name) = t.ident() else { continue };
        let dotted = k
            .checked_sub(1)
            .and_then(|p| tokens.get(p))
            .is_some_and(|t| t.is_punct('.'));
        let called = matches!(tokens.get(k + 1), Some(t) if t.is_punct('('));
        if !called {
            continue;
        }
        if dotted && name == "lock" {
            lock_pos = Some(k);
            continue;
        }
        if let Some(lp) = lock_pos {
            if k > lp && BLOCKING_CALLS.contains(&name) {
                out.push(violation(
                    file,
                    t.line,
                    "conc.hold-and-block",
                    format!(
                        "blocking call `{name}` after `.lock()` in the same fn; \
                         drop the guard (or clone the data out) before blocking"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};
    use crate::parser::parse_file;

    fn run(src: &str) -> Vec<Violation> {
        let source = SourceFile {
            path: "crates/station/src/test.rs".to_string(),
            tokens: strip_test_code(&lex(src)),
        };
        let parsed = parse_file(&source.path, &source.tokens);
        let mut out = Vec::new();
        conc_pass(&[source], &[parsed], STATION_PREFIX, &mut out);
        out
    }

    #[test]
    fn load_then_store_is_flagged() {
        let src = r#"
            fn bump(&self) {
                let n = self.count.load(Ordering::Relaxed);
                self.count.store(n + 1, Ordering::Relaxed);
            }
        "#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:#?}");
        let f = v.first().expect("one");
        assert_eq!(f.rule, "conc.atomic-rmw");
        assert_eq!(f.line, 3);
    }

    #[test]
    fn load_then_ref_escape_is_flagged() {
        let src = r#"
            fn admit(&self) -> bool {
                let active = self.sessions.load(Ordering::Relaxed);
                if active >= self.max { return false; }
                Stats::add(&self.sessions, 1);
                true
            }
        "#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v.first().expect("one").rule, "conc.atomic-rmw");
    }

    #[test]
    fn compare_exchange_loop_is_exempt() {
        let src = r#"
            fn sub(&self) {
                let mut cur = self.count.load(Ordering::Relaxed);
                loop {
                    let next = cur.saturating_sub(1);
                    match self.count.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                        Ok(_) => return,
                        Err(now) => cur = now,
                    }
                }
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn fetch_add_alone_and_plain_reads_are_fine() {
        let src = r#"
            fn add(&self) { self.count.fetch_add(1, Ordering::Relaxed); }
            fn read(&self) -> u64 { self.count.load(Ordering::Relaxed) }
            fn both(&self) -> u64 {
                self.other.fetch_add(1, Ordering::Relaxed);
                self.count.load(Ordering::Relaxed)
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn non_atomic_receivers_are_ignored() {
        // Vec::swap / slice load-alikes carry no Ordering argument.
        let src = "fn f(v: &mut Vec<u8>) { v.swap(0, 1); let x = file.read_exact(&mut buf); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn mixed_orderings_on_one_field_are_flagged_once() {
        let src = r#"
            fn a(&self) { self.flag.store(true, Ordering::SeqCst); }
            fn b(&self) -> bool { self.flag.load(Ordering::Relaxed) }
            fn c(&self) -> bool { self.flag.load(Ordering::Relaxed) }
        "#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:#?}");
        let f = v.first().expect("one");
        assert_eq!(f.rule, "conc.ordering");
        assert!(f.message.contains("Relaxed") && f.message.contains("SeqCst"));
    }

    #[test]
    fn blocking_call_under_lock_is_flagged() {
        let src = r#"
            fn broadcast(&self, msg: &[u8]) {
                let peers = self.peers.lock();
                for p in peers.iter() {
                    p.write_all(msg);
                }
            }
        "#;
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:#?}");
        let f = v.first().expect("one");
        assert_eq!(f.rule, "conc.hold-and-block");
        assert!(f.message.contains("write_all"));
    }

    #[test]
    fn blocking_before_lock_or_without_lock_is_fine() {
        let src = r#"
            fn ok(&self, msg: &[u8]) {
                self.stream.write_all(msg);
                let n = self.peers.lock();
            }
            fn plain(&self, msg: &[u8]) { self.stream.write_all(msg); }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn out_of_prefix_files_are_skipped() {
        let src = "fn f(&self) { let n = self.c.load(Ordering::Relaxed); self.c.store(n, Ordering::Relaxed); }";
        let source = SourceFile {
            path: "crates/core/src/lib.rs".to_string(),
            tokens: strip_test_code(&lex(src)),
        };
        let parsed = parse_file(&source.path, &source.tokens);
        let mut out = Vec::new();
        conc_pass(&[source], &[parsed], STATION_PREFIX, &mut out);
        assert!(out.is_empty());
    }
}
