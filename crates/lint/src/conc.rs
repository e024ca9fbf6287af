//! `conc.*` — concurrency discipline in the serving layer: the station,
//! the recovery controller (blocking link requests and backoff sleeps)
//! and the store (a writer thread behind a bounded queue).
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
//!   `Ordering`s across the serving crates usually means someone
//!   strengthened a single site and left the rest behind; pick one per
//!   counter.
//! * `conc.hold-and-block` — a blocking call (socket write, channel
//!   recv, thread join…) made after `.lock(…)` in the same fn body
//!   stalls every other thread contending for that mutex.
//! * `conc.lock-order` — a cycle in the global acquisition-order graph
//!   (DESIGN.md §9.3), a potential deadlock: two threads entering the
//!   cycle at different nodes can each hold what the other wants. Every
//!   mutex guard and blocking channel endpoint is a node; an edge `A → B`
//!   means some path acquires (or blocks on) `B` while `A` is still held,
//!   either later in the same body (guards live to the end of their
//!   scope) or inside a callee the call table binds to a serving-crate
//!   fn. The message spells out the chain with the file:line and fn that
//!   contributes each edge.
//!
//! All four rules read the parser's call table: atomic operations,
//! `.lock()` and channel operations are method call sites. Identity is by
//! name (`self.sessions_active` and `stats.sessions_active` are the same
//! counter; `self.inner.lock()` is `lock:inner`). Channels are named by
//! the endpoint with its `tx`/`rx` suffix stripped, so `frames_tx.send(..)`
//! and `frames_rx.recv()` are both `chan:frames`: a thread blocked in
//! `send` on a full channel is released by the `recv` end, so holding a
//! lock across either is the same ordering fact. DESIGN.md §9.2 lists the
//! approximations this buys and costs.

use crate::lexer::Token;
use crate::parser::{CallSite, FnItem, FnRef, ParsedFile};
use crate::rules::{violation, Violation};
use crate::syntax::{tok_ident, tok_punct};
use crate::workspace::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Where the concurrency rules apply: the multi-threaded serving crates.
const SERVING: &[&str] = &[
    "crates/station/src/",
    "crates/control/src/",
    "crates/store/src/",
];
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

/// Channel methods that participate in acquisition order. `try_send` /
/// `try_recv` never block and are deliberately absent.
const CHANNEL_METHODS: &[&str] = &["send", "recv", "recv_timeout"];

/// Whether a file belongs to the serving crates.
fn serving(pf: &ParsedFile) -> bool {
    SERVING.iter().any(|p| pf.path.starts_with(p))
}

/// One atomic operation: a method call carrying `Ordering` arguments.
struct AtomicOp<'a> {
    call: &'a CallSite,
    field: &'a str,
    orderings: Vec<String>,
}

/// Runs `conc.atomic-rmw`, `conc.ordering` and `conc.hold-and-block`
/// over the serving crates. `sources` and `parsed` must be index-aligned.
pub fn conc_pass(sources: &[SourceFile], parsed: &[ParsedFile], out: &mut Vec<Violation>) {
    // (field -> orderings seen, with first site for the report).
    let mut orderings: BTreeMap<String, (BTreeSet<String>, String, usize)> = BTreeMap::new();
    for (sf, pf) in sources.iter().zip(parsed).filter(|(_, pf)| serving(pf)) {
        for f in &pf.fns {
            let ops = atomic_ops(&sf.tokens, f);
            for op in &ops {
                let entry = orderings
                    .entry(op.field.to_string())
                    .or_insert_with(|| (BTreeSet::new(), pf.path.clone(), op.call.line));
                entry.0.extend(op.orderings.iter().cloned());
            }
            rmw_check(&sf.tokens, f.body.clone(), &ops, &pf.path, out);
            hold_and_block_check(f, &pf.path, out);
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

/// The `receiver.method(… Ordering::X …)` atomic operations of one fn.
/// `load`/`swap`/… without an `Ordering` argument (`Vec::swap`, a file
/// read…) are not atomics.
fn atomic_ops<'a>(tokens: &[Token], f: &'a FnItem) -> Vec<AtomicOp<'a>> {
    f.calls
        .iter()
        .filter(|c| c.is_method && ATOMIC_METHODS.contains(&c.callee()))
        .filter_map(|call| {
            let orderings: Vec<String> = call
                .args
                .clone()
                .filter(|&k| tok_ident(tokens, k) == Some("Ordering"))
                .filter(|&k| tok_punct(tokens, k + 1, ':') && tok_punct(tokens, k + 2, ':'))
                .filter_map(|k| tok_ident(tokens, k + 3).map(str::to_string))
                .collect();
            let field = call.receiver.as_deref().filter(|_| !orderings.is_empty())?;
            Some(AtomicOp {
                call,
                field,
                orderings,
            })
        })
        .collect()
}

/// `conc.atomic-rmw`: a `load` followed by a mutation or `&`-escape of the
/// same field later in the body.
fn rmw_check(
    tokens: &[Token],
    body: Range<usize>,
    ops: &[AtomicOp],
    file: &str,
    out: &mut Vec<Violation>,
) {
    if ops
        .iter()
        .any(|o| RMW_PRIMITIVES.contains(&o.call.callee()))
    {
        return;
    }
    for load in ops.iter().filter(|o| o.call.callee() == "load") {
        let mutated = ops.iter().any(|o| {
            o.call.at > load.call.at && o.field == load.field && MUTATORS.contains(&o.call.callee())
        });
        let escaped = field_escapes_after(tokens, body.clone(), load.call.at, load.field);
        if mutated || escaped {
            out.push(violation(
                file,
                load.call.line,
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
fn field_escapes_after(tokens: &[Token], body: Range<usize>, after: usize, field: &str) -> bool {
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
fn hold_and_block_check(f: &FnItem, file: &str, out: &mut Vec<Violation>) {
    let mut locked = false;
    for c in &f.calls {
        let name = c.callee();
        if c.is_method && name == "lock" {
            locked = true;
        } else if locked && BLOCKING_CALLS.contains(&name) {
            out.push(violation(
                file,
                c.line,
                "conc.hold-and-block",
                format!(
                    "blocking call `{name}` after `.lock()` in the same fn; \
                     drop the guard (or clone the data out) before blocking"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// conc.lock-order
// ---------------------------------------------------------------------------

/// Edge provenance for the report: where the later acquisition happens.
#[derive(Debug, Clone)]
struct Prov {
    file: String,
    line: usize,
    via: String,
}

type Edges = BTreeMap<String, BTreeMap<String, Prov>>;

/// Builds the acquisition-order graph over the serving crates and reports
/// each distinct cycle once.
pub fn lock_order_pass(parsed: &[ParsedFile], out: &mut Vec<Violation>) {
    let in_scope: Vec<bool> = parsed.iter().map(serving).collect();
    let mut memo: BTreeMap<FnRef, BTreeSet<String>> = BTreeMap::new();
    let mut visiting: BTreeSet<FnRef> = BTreeSet::new();
    // Transitive acquisition sets first, walked in source order: where a
    // recursion is cut depends on the fn the walk starts from.
    for (fi, pf) in parsed.iter().enumerate().filter(|(_, pf)| serving(pf)) {
        for gi in 0..pf.fns.len() {
            transitive_acqs((fi, gi), parsed, &in_scope, &mut memo, &mut visiting);
        }
    }

    // Edges: held node → later-acquired node, with provenance.
    let mut edges = Edges::new();
    for pf in parsed.iter().filter(|pf| serving(pf)) {
        let prov = |line: usize, via: String| Prov {
            file: pf.path.clone(),
            line,
            via,
        };
        for f in &pf.fns {
            let acqs: Vec<(&CallSite, String)> = f
                .calls
                .iter()
                .filter_map(|c| Some((c, acquisition(c)?)))
                .collect();
            for (ai, (a, held)) in acqs.iter().enumerate() {
                for (b, node) in acqs.iter().skip(ai + 1) {
                    add_edge(&mut edges, held, node, || prov(b.line, f.qualified.clone()));
                }
                for c in f.calls.iter().filter(|c| c.at > a.at) {
                    let Some(acquired) = c.target.and_then(|t| memo.get(&t)) else {
                        continue;
                    };
                    for node in acquired {
                        let via = || prov(c.line, format!("{} → {}", f.qualified, c.callee()));
                        add_edge(&mut edges, held, node, via);
                    }
                }
            }
        }
    }
    report_cycles(&edges, out);
}

/// The node a `.lock()` or blocking channel call acquires. Channel ops
/// need an endpoint-looking receiver — plain `send`/`recv` on sockets or
/// custom types would otherwise flood the graph.
fn acquisition(c: &CallSite) -> Option<String> {
    match c.callee() {
        "lock" if c.is_method => Some(format!(
            "lock:{}",
            c.receiver.as_deref().unwrap_or("anonymous")
        )),
        m if c.is_method && CHANNEL_METHODS.contains(&m) => {
            channel_base(c.receiver.as_deref()?).map(|base| format!("chan:{base}"))
        }
        _ => None,
    }
}

/// Everything fn `id` acquires, directly or through callees the call
/// table binds to serving-crate fns. A recursion back edge contributes
/// nothing.
fn transitive_acqs(
    id: FnRef,
    parsed: &[ParsedFile],
    in_scope: &[bool],
    memo: &mut BTreeMap<FnRef, BTreeSet<String>>,
    visiting: &mut BTreeSet<FnRef>,
) -> BTreeSet<String> {
    if let Some(cached) = memo.get(&id) {
        return cached.clone();
    }
    if !visiting.insert(id) {
        return BTreeSet::new();
    }
    let mut acquired = BTreeSet::new();
    let calls = parsed
        .get(id.0)
        .and_then(|pf| pf.fns.get(id.1))
        .map_or(&[][..], |f| &f.calls);
    for c in calls {
        acquired.extend(acquisition(c));
        if let Some(t) = c.target.filter(|t| in_scope.get(t.0) == Some(&true)) {
            acquired.extend(transitive_acqs(t, parsed, in_scope, memo, visiting));
        }
    }
    visiting.remove(&id);
    memo.insert(id, acquired.clone());
    acquired
}

fn add_edge(edges: &mut Edges, a: &str, b: &str, prov: impl FnOnce() -> Prov) {
    if a != b {
        let to = edges.entry(a.to_string()).or_default();
        to.entry(b.to_string()).or_insert_with(prov);
    }
}

/// Channel endpoint base name: strips a `tx`/`rx` suffix (plus a joining
/// underscore) so both ends of one channel share a node. `None` if the
/// name doesn't look like a channel endpoint at all.
fn channel_base(field: &str) -> Option<&str> {
    for suffix in ["tx", "rx"] {
        if let Some(stem) = field.strip_suffix(suffix) {
            let stem = stem.strip_suffix('_').unwrap_or(stem);
            return Some(if stem.is_empty() { "channel" } else { stem });
        }
    }
    None
}

/// DFS cycle detection; each distinct cycle (canonical rotation) is
/// reported once, with the full acquisition chain in the message.
fn report_cycles(edges: &Edges, out: &mut Vec<Violation>) {
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in edges.keys() {
        let mut stack: Vec<String> = Vec::new();
        let mut on_stack: BTreeSet<String> = BTreeSet::new();
        dfs(start, edges, &mut stack, &mut on_stack, &mut reported, out);
    }
}

fn dfs(
    node: &str,
    edges: &Edges,
    stack: &mut Vec<String>,
    on_stack: &mut BTreeSet<String>,
    reported: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Violation>,
) {
    if on_stack.contains(node) {
        // Extract the cycle from the stack tail.
        let from = stack.iter().position(|n| n == node).unwrap_or(0);
        let cycle: Vec<String> = stack.get(from..).unwrap_or_default().to_vec();
        if cycle.is_empty() {
            return;
        }
        if reported.insert(canonical(&cycle)) {
            emit_cycle(&cycle, edges, out);
        }
        return;
    }
    // Bound the walk: a node already fully expanded from some other root
    // cannot start a *new* cycle shape we haven't seen, and the reported
    // set dedupes rotations anyway. Depth is bounded by node count.
    if stack.len() > edges.len() {
        return;
    }
    stack.push(node.to_string());
    on_stack.insert(node.to_string());
    if let Some(next) = edges.get(node) {
        for n in next.keys() {
            dfs(n, edges, stack, on_stack, reported, out);
        }
    }
    stack.pop();
    on_stack.remove(node);
}

/// Rotates a cycle so its lexicographically smallest node comes first —
/// the dedupe key for rotation-equivalent cycles.
fn canonical(cycle: &[String]) -> Vec<String> {
    let min_idx = cycle
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut rotated = Vec::with_capacity(cycle.len());
    for k in 0..cycle.len() {
        if let Some(n) = cycle.get((min_idx + k) % cycle.len()) {
            rotated.push(n.clone());
        }
    }
    rotated
}

fn emit_cycle(cycle: &[String], edges: &Edges, out: &mut Vec<Violation>) {
    let canon = canonical(cycle);
    let mut chain = String::new();
    let mut first_site: Option<(String, usize)> = None;
    for (k, node) in canon.iter().enumerate() {
        if k > 0 {
            chain.push_str(" → ");
        }
        chain.push_str(node);
        let next = canon.get((k + 1) % canon.len());
        if let Some(next) = next {
            if let Some(prov) = edges.get(node).and_then(|m| m.get(next)) {
                chain.push_str(&format!(" ({}:{} in {})", prov.file, prov.line, prov.via));
                if first_site.is_none() {
                    first_site = Some((prov.file.clone(), prov.line));
                }
            }
        }
    }
    if let Some(first) = canon.first() {
        chain.push_str(" → ");
        chain.push_str(first);
    }
    let (file, line) = first_site.unwrap_or_else(|| ("<graph>".to_string(), 0));
    out.push(violation(
        &file,
        line,
        "conc.lock-order",
        format!(
            "lock acquisition order cycle (potential deadlock): {chain}; \
             acquire these in one global order everywhere"
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};
    use crate::parser::parse_workspace;

    fn sources(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files
            .iter()
            .map(|(path, src)| SourceFile {
                path: path.to_string(),
                tokens: strip_test_code(&lex(src)),
            })
            .collect()
    }

    fn run(src: &str) -> Vec<Violation> {
        let sources = sources(&[("crates/station/src/test.rs", src)]);
        let mut out = Vec::new();
        conc_pass(&sources, &parse_workspace(&sources), &mut out);
        out
    }

    fn run_lock_order(files: &[(&str, &str)]) -> Vec<Violation> {
        let mut out = Vec::new();
        lock_order_pass(&parse_workspace(&sources(files)), &mut out);
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
        let sources = sources(&[("crates/core/src/lib.rs", src)]);
        let mut out = Vec::new();
        conc_pass(&sources, &parse_workspace(&sources), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn opposite_order_in_two_fns_is_a_cycle() {
        let src = r#"
            fn a(&self) {
                let g1 = self.alpha.lock();
                let g2 = self.beta.lock();
            }
            fn b(&self) {
                let g2 = self.beta.lock();
                let g1 = self.alpha.lock();
            }
        "#;
        let v = run_lock_order(&[("crates/station/src/x.rs", src)]);
        assert_eq!(v.len(), 1, "{v:#?}");
        let f = v.first().expect("one");
        assert_eq!(f.rule, "conc.lock-order");
        assert!(f.message.contains("lock:alpha") && f.message.contains("lock:beta"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = r#"
            fn a(&self) {
                let g1 = self.alpha.lock();
                let g2 = self.beta.lock();
            }
            fn b(&self) {
                let g1 = self.alpha.lock();
                let g2 = self.beta.lock();
            }
        "#;
        assert!(run_lock_order(&[("crates/station/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn cycle_through_callee_is_found() {
        let src = r#"
            fn outer(&self) {
                let g = self.alpha.lock();
                self.helper();
            }
            fn helper(&self) {
                let g = self.beta.lock();
            }
            fn other(&self) {
                let g = self.beta.lock();
                let g2 = self.alpha.lock();
            }
        "#;
        let v = run_lock_order(&[("crates/station/src/x.rs", src)]);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v.first().expect("one").message.contains("helper"));
    }

    #[test]
    fn channel_endpoints_alias_across_files() {
        // Thread 1 holds `state` while sending on the frames channel;
        // thread 2 holds the frames channel (blocked in recv) while
        // taking `state` — classic two-resource deadlock.
        let a = r#"
            fn produce(&self) {
                let g = self.state.lock();
                self.frames_tx.send(1);
            }
        "#;
        let b = r#"
            fn consume(&self) {
                let x = frames_rx.recv();
                let g = self.state.lock();
            }
        "#;
        // recv-then-lock is an edge chan:frames → lock:state; send under
        // the lock is lock:state → chan:frames. Cycle.
        let v = run_lock_order(&[
            ("crates/station/src/a.rs", a),
            ("crates/control/src/b.rs", b),
        ]);
        assert_eq!(v.len(), 1, "{v:#?}");
        let f = v.first().expect("one");
        assert!(f.message.contains("chan:frames") && f.message.contains("lock:state"));
    }

    #[test]
    fn try_send_does_not_participate() {
        let src = r#"
            fn a(&self) {
                let g = self.state.lock();
                self.frames_tx.try_send(1);
            }
            fn b(&self) {
                let x = self.frames_rx.recv();
                let g = self.state.lock();
            }
        "#;
        assert!(run_lock_order(&[("crates/station/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn reacquiring_the_same_lock_is_not_a_cycle() {
        let src = r#"
            fn a(&self) {
                let g = self.alpha.lock();
                drop(g);
                let g = self.alpha.lock();
            }
        "#;
        assert!(run_lock_order(&[("crates/station/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn lock_order_ignores_out_of_prefix_files() {
        let src = r#"
            fn a(&self) { let g1 = self.alpha.lock(); let g2 = self.beta.lock(); }
            fn b(&self) { let g2 = self.beta.lock(); let g1 = self.alpha.lock(); }
        "#;
        assert!(run_lock_order(&[("crates/core/src/x.rs", src)]).is_empty());
    }
}
