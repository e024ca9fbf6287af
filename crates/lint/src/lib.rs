// Tests unwrap, expect and panic idiomatically; the workspace's panic
// lints police non-test code only, and CI promotes their warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! `bsa-lint` — workspace-wide invariant checker.
//!
//! Checks the invariants that clippy, rustc and the golden tests cannot
//! state, mirroring the guarantees the chips enforce in circuitry
//! (DESIGN.md §9 maps every invariant to the tool that enforces it).
//! Determinism bans (wall clock, unseeded RNG, hash-ordered collections)
//! live in per-crate `clippy.toml` files; `.unwrap()`, `.expect()` and
//! `panic!`/`unreachable!`/`unimplemented!`/`todo!` are clippy's panic
//! lints; wire-protocol coverage is rustc's exhaustive `match` plus
//! `bsa-link`'s `abi_lock` golden test and the station's test that
//! provokes every `ErrorCode`; and the serving crates' counters, gauges
//! and shutdown flag are `bsa-station`'s `stats.rs` types, with clippy
//! `disallowed_types` banning the std atomics and locks everywhere else.
//!
//! Every rule runs on one file at a time ([`rules`]):
//!
//! 1. **Panic-freedom** (`panic.*`) — no direct indexing in non-test
//!    library code (`panic.indexing`), and no attribute there that
//!    silences one of clippy's panic lints (`panic.allow`). There are no
//!    exceptions: every site fails `check` where it is written, so no
//!    reachability pass is needed. A call can still reach a panic in an
//!    `assert!` contract or std.
//! 2. **Unit-safety** (`units.raw-f64`) — public functions take
//!    `bsa-units` newtypes (`Hertz`, `Volt`, `Ampere`, `Seconds`) rather
//!    than raw `f64` for dimensioned scalars, so a pA-vs-nA or Hz-vs-rad
//!    mixup fails to compile instead of silently corrupting a readout.
//! 3. **Blocking under a lock** (`conc.hold-and-block`) — in the serving
//!    crates, a socket, channel or thread call that blocks, made after
//!    `.lock(` in the same fn, stalls every thread waiting on that lock.
//!
//! A lightweight parser ([`parser`]) extracts each file's fns and
//! records its direct index sites once, in token order: the site table
//! ([`parser::ParsedFile::sites`]) that `panic.indexing` reads. No pass
//! discharges a site: an index is rewritten so it cannot panic (`get`,
//! iterators, slice patterns). The definite bugs need no pass of their
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
//! [`syntax`] lowers each parsed fn once into typed parameters and
//! statements (`let` and assignment), and intraprocedural unit inference
//! ([`flow`], `flow.unit`) folds over that output to flag sums and
//! assignments that mix physical dimensions.
//!
//! Check-then-act races, mixed memory orderings and lock-order cycles
//! are no lint question either: outside `stats.rs` and the session
//! table's one `Mutex`, the serving crates cannot name an atomic or a
//! lock (DESIGN.md §9.2).
//!
//! Peer- and segment-controlled values that size work are no lint
//! question: the station bounds each such request field where it is
//! applied, and its `every_work_sizing_request_field_is_bounded` test
//! sends the first out-of-range value of every one; the store's
//! corruption suite does the same for the segment footer and header.
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
pub use rules::{rule_description, run_rules, Violation, RULE_IDS};
pub use workspace::{
    check_sources, check_workspace, collect_files, in_scope, load_sources, unit_safety,
    workspace_root, CheckOutcome, PassTimings, SourceFile,
};
