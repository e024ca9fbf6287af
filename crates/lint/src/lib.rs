// Tests unwrap idiomatically; the workspace-level `clippy::unwrap_used`
// only polices non-test code, and CI promotes its warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! `bsa-lint` — workspace-wide invariant checker.
//!
//! Checks the invariants that clippy, rustc and the golden tests cannot
//! state, mirroring the guarantees the chips enforce in circuitry
//! (DESIGN.md §9 maps every invariant to the tool that enforces it).
//! Determinism bans (wall clock, unseeded RNG, hash-ordered collections)
//! live in per-crate `clippy.toml` files, `.unwrap()` is clippy's
//! `unwrap_used`, and wire-protocol coverage is rustc's exhaustive
//! `match` plus `bsa-link`'s `abi_lock` golden test.
//!
//! The lexical families run per file ([`rules`]):
//!
//! 1. **Panic-freedom** (`panic.*`) — no `expect`/panicking
//!    macros/direct indexing in non-test library code; justified
//!    exceptions live in `lint.allow.toml`, whose budgets are exact and
//!    can only shrink.
//! 2. **Unit-safety** (`units.raw-f64`) — public functions take
//!    `bsa-units` newtypes (`Hertz`, `Volt`, `Ampere`, `Seconds`) rather
//!    than raw `f64` for dimensioned scalars, so a pA-vs-nA or Hz-vs-rad
//!    mixup fails to compile instead of silently corrupting a readout.
//!
//! On top of them sit the *semantic* families that need the whole
//! workspace at once: a lightweight parser ([`parser`]) extracts fns,
//! impls, enums and call sites; a cross-crate call graph then powers
//! `reach.panic` (transitive panic reachability behind public APIs,
//! [`reach`]), `proto.error-reply` (every typed reply code is sendable,
//! [`proto`]) and `conc.*` (atomic read-modify-write and lock discipline
//! in the serving crates, [`conc`]).
//!
//! The dataflow passes share one statement model: [`syntax`] lowers each
//! parsed fn once into typed parameters, statements (`let`, assignment,
//! `if`/`while` guard, `for`, assert, grow/fill/window method calls,
//! enum match arms) and the points where names are rebound, and every
//! pass below is a fold over that output with its own lattice, sharing
//! one scoped store.
//!
//! The *dataflow* layer is an intraprocedural interval prover and unit
//! inferencer ([`flow`]) that discharge proven `panic.indexing` sites
//! and flag definite range/dimension bugs (`flow.range`, `flow.unit`),
//! plus a global lock/channel acquisition-order cycle detector over the
//! serving crates ([`locks`], `conc.lock-order`).
//!
//! The *interprocedural* layer is bottom-up function summaries
//! ([`summary`]) that lift the interval prover across call boundaries
//! (`flow.summary`, plus contracts the prover consumes), and a taint
//! analysis over the wire trust boundary ([`taint`]) that proves no
//! peer- or segment-controlled value reaches an allocation, index or
//! loop bound without a recognized validation idiom (`taint.wire-alloc`,
//! `taint.wire-index`, `taint.wire-arith`).
//!
//! Run it as `cargo run -p bsa-lint -- check` (add `--format json` for
//! the CI artifact). The analyzer is dependency-free: it lexes Rust
//! itself ([`lexer`]) instead of pulling in `syn`, so it keeps working in
//! a bare offline checkout.

pub mod allow;
pub mod conc;
pub mod flow;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod proto;
pub mod reach;
pub mod report;
pub mod rules;
pub mod summary;
pub mod syntax;
pub mod taint;
pub mod workspace;

pub use allow::{reconcile, AllowEntry, Allowlist, Reconciliation};
pub use conc::{conc_pass, STATION_PREFIX};
pub use flow::{flow_pass, FileProofs};
pub use locks::lock_order_pass;
pub use parser::{parse_file, ParsedFile};
pub use proto::{proto_pass, ProtoConfig, ProtoSummary};
pub use reach::{reach_pass, ProvenLines};
pub use report::{render_json, Report};
pub use rules::{rule_description, run_rules, RuleSet, Violation, RULE_IDS};
pub use summary::{compute_summaries, summary_pass, RetContract, Summaries};
pub use taint::taint_pass;
pub use workspace::{
    check_sources, check_workspace, collect_files, load_sources, rules_for, workspace_root,
    CheckOutcome, PassTimings, SourceFile,
};
