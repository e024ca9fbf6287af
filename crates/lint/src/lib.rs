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
//! `match` plus `bsa-link`'s `abi_lock` golden test and the station's
//! test that provokes every `ErrorCode`.
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
//! workspace at once. A lightweight parser ([`parser`]) extracts fns,
//! impls and call sites, and resolves every call site to the fn it
//! binds to, once for the whole workspace, under one rule (DESIGN.md
//! §9.2). Every call-graph pass reads that call table:
//! `reach.panic` (transitive panic reachability behind public APIs,
//! [`reach`]), the taint analysis, and `conc.*` (atomic read-modify-write,
//! lock discipline and the global lock/channel acquisition-order cycle
//! detector `conc.lock-order` in the serving crates, [`conc`]).
//!
//! The parser also records every direct panic site of a file once, in
//! token order: the site table ([`parser::ParsedFile::sites`]). The
//! `panic.*` rules, `reach.panic` and the taint analysis all read it.
//! No pass discharges a site: an index is either rewritten so it cannot
//! panic (`get`, iterators, slice patterns) or counted against its file's
//! exact `panic.indexing` budget. The definite bugs need no pass of their
//! own, because rustc's deny-by-default `unconditional_panic` lint
//! rejects them at compile time — a constant index past a `[e; N]`
//! array:
//!
//! ```compile_fail
//! let buf = [0.0_f64; 4];
//! let _last = buf[7];
//! ```
//!
//! a division by the constant zero:
//!
//! ```compile_fail
//! fn per_zero(n: u64) -> u64 {
//!     n / 0
//! }
//! ```
//!
//! and a remainder by a binding that is constantly zero:
//!
//! ```compile_fail
//! fn wrap(n: u64) -> u64 {
//!     let z = 0;
//!     n % z
//! }
//! ```
//!
//! The dataflow passes share one statement model: [`syntax`] lowers each
//! parsed fn once into typed parameters and statements (`let`,
//! assignment, `if`/`while` guard, `for`, grow/fill method calls, enum
//! match arms), and each pass below is a fold over that output with its
//! own lattice:
//!
//! * intraprocedural unit inference ([`flow`], `flow.unit`) flags sums
//!   and assignments that mix physical dimensions;
//! * a taint analysis over the wire trust boundary ([`taint`]) proves no
//!   peer- or segment-controlled value reaches an allocation, index or
//!   loop bound without a recognized validation idiom
//!   (`taint.wire-alloc`, `taint.wire-index`, `taint.wire-arith`). Its
//!   bottom-up parameter summaries carry argument flow across calls.
//!
//! Run it as `cargo run -p bsa-lint -- check` (add `--format json` for
//! the CI artifact). The analyzer is dependency-free: it lexes Rust
//! itself ([`lexer`]) instead of pulling in `syn`, so it keeps working in
//! a bare offline checkout.

pub mod allow;
pub mod conc;
pub mod flow;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod report;
pub mod rules;
pub mod syntax;
pub mod taint;
pub mod workspace;

pub use allow::{reconcile, AllowEntry, Allowlist, Reconciliation};
pub use conc::{conc_pass, lock_order_pass};
pub use flow::flow_pass;
pub use parser::{parse_workspace, ParsedFile};
pub use reach::reach_pass;
pub use report::{render_json, Report};
pub use rules::{rule_description, run_rules, Violation, RULE_IDS};
pub use taint::taint_pass;
pub use workspace::{
    check_sources, check_workspace, collect_files, in_scope, load_sources, unit_safety,
    workspace_root, CheckOutcome, PassTimings, SourceFile,
};
