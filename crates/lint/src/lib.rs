// Non-test code may not panic, and no inner `allow` can lift a `forbid`
// (E0453). The root `tests/clippy_gate.rs` pins these three lines.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), forbid(clippy::unimplemented, clippy::indexing_slicing))]
// Test builds unwrap, expect and panic idiomatically.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! `bsa-lint` — workspace-wide unit checker.
//!
//! Checks the one invariant that clippy, rustc and the golden tests cannot
//! state: physical dimensions. The paper mixes nA currents, µs ramps and
//! kHz frame rates, and a raw `f64` carries none of them (DESIGN.md §9
//! maps every invariant to the tool that enforces it). Panic-freedom and
//! index bounds are clippy's: every library crate root forbids its panic
//! and indexing lints outside test builds. Determinism bans (wall clock,
//! unseeded RNG, hash-ordered collections) and the serving crates'
//! atomic and lock bans live in per-crate `clippy.toml` files, and
//! wire-protocol coverage is rustc's exhaustive `match` plus `bsa-link`'s
//! `abi_lock` golden test.
//!
//! Two rules, each run on one file at a time:
//!
//! 1. **Unit-safety** (`units.raw-f64`, [`rules`]) — public functions
//!    take `bsa-units` newtypes (`Hertz`, `Volt`, `Ampere`, `Seconds`)
//!    rather than raw `f64` for dimensioned scalars, so a pA-vs-nA or
//!    Hz-vs-rad mixup fails to compile instead of silently corrupting a
//!    readout.
//! 2. **Unit dataflow** (`flow.unit`, [`flow`]) — intraprocedural unit
//!    inference flags sums and assignments that mix physical dimensions
//!    among raw-`f64` bindings whose names or constructors give them one.
//!
//! A lightweight parser ([`parser`]) extracts each file's fns, and
//! [`syntax`] lowers each parsed fn once into typed parameters and
//! statements (`let` and assignment) that `flow.unit` folds over.
//!
//! Run it as `cargo run -p bsa-lint -- check` (add `--format json` for
//! the CI artifact). The analyzer is dependency-free: it lexes Rust
//! itself ([`lexer`]) instead of pulling in `syn`, so it keeps working in
//! a bare offline checkout.

pub mod flow;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod syntax;
pub mod workspace;

pub use flow::flow_pass;
pub use parser::{parse_file, ParsedFile};
pub use report::{render_json, Report};
pub use rules::{raw_f64_pass, rule_description, Violation, RULE_IDS};
pub use workspace::{
    check_sources, check_workspace, collect_files, in_scope, load_sources, unit_safety,
    workspace_root, CheckOutcome, PassTimings, SourceFile,
};
