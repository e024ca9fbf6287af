//! `conc.lock-order` — global lock/channel acquisition-order graph
//! (DESIGN.md §9.3).
//!
//! Every mutex guard and blocking channel endpoint in the serving layer
//! (`crates/station` + `crates/control`) becomes a node; an edge `A → B`
//! means some execution path acquires (or blocks on) `B` while `A` is
//! still held. Edges come from two places:
//!
//! * **intra-fn** — acquisition order within one body, under the
//!   held-until-end-of-fn approximation (guards in this workspace live to
//!   the end of their scope);
//! * **inter-fn** — a call made after an acquisition inherits every node
//!   the callee (transitively) acquires, resolved by unique bare name
//!   within the scanned prefixes, like `reach.panic`.
//!
//! A cycle in that graph is a potential deadlock: two threads entering
//! the cycle at different nodes can each hold what the other wants. The
//! violation message spells out the full acquisition chain with the
//! file:line and function that contributes each edge.
//!
//! Identity is by name: locks by the receiver field (`self.inner.lock()`
//! → `lock:inner`), channels by the endpoint field with its `tx`/`rx`
//! suffix stripped (`self.frames_tx.send(..)` and `frames_rx.recv()` are
//! both `chan:frames`) so the two ends of one channel alias — a thread
//! blocked in `send` on a full channel is released by the `recv` end, so
//! holding a lock across either is the same ordering fact.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::lexer::Token;
use crate::parser::ParsedFile;
use crate::rules::{violation, Violation};
use crate::workspace::SourceFile;

/// Channel methods that participate in acquisition order. `try_send` /
/// `try_recv` never block and are deliberately absent.
const CHANNEL_METHODS: &[&str] = &["send", "recv", "recv_timeout"];

/// One acquisition site inside a fn body.
#[derive(Debug, Clone)]
struct Acq {
    node: String,
    line: usize,
}

/// Per-fn acquisition summary.
struct FnLocks {
    qualified: String,
    file: String,
    acqs: Vec<Acq>,
    /// (bare callee name, line) for interprocedural edges.
    calls: Vec<(String, usize)>,
}

/// Edge provenance for the report: where the later acquisition happens.
#[derive(Debug, Clone)]
struct Prov {
    file: String,
    line: usize,
    via: String,
}

/// Builds the acquisition-order graph over every file whose path starts
/// with one of `prefixes` and reports each distinct cycle once.
pub fn lock_order_pass(
    sources: &[SourceFile],
    parsed: &[ParsedFile],
    prefixes: &[&str],
    out: &mut Vec<Violation>,
) {
    let mut fns: Vec<FnLocks> = Vec::new();
    for (fi, pf) in parsed.iter().enumerate() {
        if !prefixes.iter().any(|p| pf.path.starts_with(p)) {
            continue;
        }
        let Some(src) = sources.get(fi) else { continue };
        for f in &pf.fns {
            fns.push(FnLocks {
                qualified: f.qualified.clone(),
                file: pf.path.clone(),
                acqs: collect_acquisitions(&src.tokens, f.body.clone()),
                calls: f.calls.iter().map(|c| (c.callee.clone(), c.line)).collect(),
            });
        }
    }

    // Bare-name resolution: unique names only, like the reach pass.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        let bare = f.qualified.rsplit(':').next().unwrap_or(&f.qualified);
        by_name.entry(bare).or_default().push(i);
    }

    // Transitive acquisition sets, memoized with cycle cutting.
    let mut memo: Vec<Option<Vec<(String, Prov)>>> = vec![None; fns.len()];
    let mut visiting: BTreeSet<usize> = BTreeSet::new();
    for i in 0..fns.len() {
        transitive_acqs(i, &fns, &by_name, &mut memo, &mut visiting);
    }

    // Edges: held node → later-acquired node, with provenance.
    let mut edges: BTreeMap<String, BTreeMap<String, Prov>> = BTreeMap::new();
    for f in &fns {
        for (ai, a) in f.acqs.iter().enumerate() {
            for b in f.acqs.iter().skip(ai + 1) {
                if a.node != b.node {
                    add_edge(
                        &mut edges,
                        &a.node,
                        &b.node,
                        Prov {
                            file: f.file.clone(),
                            line: b.line,
                            via: f.qualified.clone(),
                        },
                    );
                }
            }
            for (callee, line) in &f.calls {
                if *line < a.line {
                    continue;
                }
                let Some(indices) = by_name.get(callee.as_str()) else {
                    continue;
                };
                if indices.len() != 1 {
                    continue;
                }
                let callee_idx = match indices.first() {
                    Some(i) => *i,
                    None => continue,
                };
                if let Some(acquired) = memo.get(callee_idx).and_then(|m| m.as_ref()) {
                    for (node, _) in acquired {
                        if *node != a.node {
                            add_edge(
                                &mut edges,
                                &a.node,
                                node,
                                Prov {
                                    file: f.file.clone(),
                                    line: *line,
                                    via: format!("{} → {}", f.qualified, callee),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    report_cycles(&edges, out);
}

/// Everything `fns[i]` acquires, directly or through (uniquely resolved)
/// callees.
fn transitive_acqs(
    i: usize,
    fns: &[FnLocks],
    by_name: &BTreeMap<&str, Vec<usize>>,
    memo: &mut Vec<Option<Vec<(String, Prov)>>>,
    visiting: &mut BTreeSet<usize>,
) -> Vec<(String, Prov)> {
    if let Some(Some(cached)) = memo.get(i) {
        return cached.clone();
    }
    if !visiting.insert(i) {
        return Vec::new(); // recursion cut
    }
    let mut acquired: Vec<(String, Prov)> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    if let Some(f) = fns.get(i) {
        for a in &f.acqs {
            if seen.insert(a.node.clone()) {
                acquired.push((
                    a.node.clone(),
                    Prov {
                        file: f.file.clone(),
                        line: a.line,
                        via: f.qualified.clone(),
                    },
                ));
            }
        }
        for (callee, _) in &f.calls {
            if let Some(indices) = by_name.get(callee.as_str()) {
                if indices.len() == 1 {
                    if let Some(ci) = indices.first() {
                        for (node, prov) in transitive_acqs(*ci, fns, by_name, memo, visiting) {
                            if seen.insert(node.clone()) {
                                acquired.push((node, prov));
                            }
                        }
                    }
                }
            }
        }
    }
    visiting.remove(&i);
    if let Some(slot) = memo.get_mut(i) {
        *slot = Some(acquired.clone());
    }
    acquired
}

fn add_edge(edges: &mut BTreeMap<String, BTreeMap<String, Prov>>, a: &str, b: &str, prov: Prov) {
    edges
        .entry(a.to_string())
        .or_default()
        .entry(b.to_string())
        .or_insert(prov);
}

/// Finds `.lock()` and blocking channel calls in a body, in token order.
fn collect_acquisitions(tokens: &[Token], body: Range<usize>) -> Vec<Acq> {
    let mut acqs = Vec::new();
    for k in body {
        let Some(t) = tokens.get(k) else { break };
        let Some(name) = t.ident() else { continue };
        let dotted = k
            .checked_sub(1)
            .and_then(|p| tokens.get(p))
            .is_some_and(|t| t.is_punct('.'));
        let called = matches!(tokens.get(k + 1), Some(t) if t.is_punct('('));
        if !dotted || !called {
            continue;
        }
        let receiver = k
            .checked_sub(2)
            .and_then(|p| tokens.get(p))
            .and_then(|t| t.ident());
        if name == "lock" {
            let field = receiver.unwrap_or("anonymous");
            acqs.push(Acq {
                node: format!("lock:{field}"),
                line: t.line,
            });
        } else if CHANNEL_METHODS.contains(&name) {
            // Channel ops must have an endpoint-looking receiver — plain
            // `send`/`recv` on sockets or custom types would otherwise
            // flood the graph.
            if let Some(field) = receiver {
                if let Some(base) = channel_base(field) {
                    acqs.push(Acq {
                        node: format!("chan:{base}"),
                        line: t.line,
                    });
                }
            }
        }
    }
    acqs
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
fn report_cycles(edges: &BTreeMap<String, BTreeMap<String, Prov>>, out: &mut Vec<Violation>) {
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in edges.keys() {
        let mut stack: Vec<String> = Vec::new();
        let mut on_stack: BTreeSet<String> = BTreeSet::new();
        dfs(start, edges, &mut stack, &mut on_stack, &mut reported, out);
    }
}

fn dfs(
    node: &str,
    edges: &BTreeMap<String, BTreeMap<String, Prov>>,
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

fn emit_cycle(
    cycle: &[String],
    edges: &BTreeMap<String, BTreeMap<String, Prov>>,
    out: &mut Vec<Violation>,
) {
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
    use crate::parser::parse_file;
    use crate::STATION_PREFIX;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile {
                path: path.to_string(),
                tokens: strip_test_code(&lex(src)),
            })
            .collect();
        let parsed: Vec<ParsedFile> = sources
            .iter()
            .map(|s| parse_file(&s.path, &s.tokens))
            .collect();
        let mut out = Vec::new();
        lock_order_pass(
            &sources,
            &parsed,
            &[STATION_PREFIX, crate::conc::CONTROL_PREFIX],
            &mut out,
        );
        out
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
        let v = run(&[("crates/station/src/x.rs", src)]);
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
        assert!(run(&[("crates/station/src/x.rs", src)]).is_empty());
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
        let v = run(&[("crates/station/src/x.rs", src)]);
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
        let v = run(&[
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
        assert!(run(&[("crates/station/src/x.rs", src)]).is_empty());
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
        assert!(run(&[("crates/station/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn out_of_prefix_files_are_ignored() {
        let src = r#"
            fn a(&self) { let g1 = self.alpha.lock(); let g2 = self.beta.lock(); }
            fn b(&self) { let g2 = self.beta.lock(); let g1 = self.alpha.lock(); }
        "#;
        assert!(run(&[("crates/core/src/x.rs", src)]).is_empty());
    }
}
