// Non-test code may not panic, and no inner `allow` can lift a `forbid`
// (E0453). The root `tests/clippy_gate.rs` pins these three lines.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), forbid(clippy::unimplemented, clippy::indexing_slicing))]
// Test builds unwrap, expect and panic idiomatically.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! Umbrella crate for the *CMOS-Based Biosensor Arrays* reproduction.
//!
//! This crate re-exports the workspace's public API so that the examples in
//! `examples/` and integration tests in `tests/` can exercise the system the
//! way a downstream user would:
//!
//! * [`units`] — typed physical quantities (`bsa-units`).
//! * [`circuit`] — analog/mixed-signal circuit substrate (`bsa-circuit`).
//! * [`electrochem`] — DNA hybridization and redox-cycling electrochemistry
//!   (`bsa-electrochem`).
//! * [`neuro`] — neuron models and the cell–chip junction (`bsa-neuro`).
//! * [`chips`] — the paper's two chips: the 16×8 DNA microarray and the
//!   128×128 neural-recording array (`bsa-core`).
//! * [`dsp`] — readout signal processing (`bsa-dsp`).
//! * [`faults`] — deterministic defect models and fault-injection plans
//!   (`bsa-faults`).
//! * [`screening`] — the Fig. 1 drug-screening pipeline model
//!   (`bsa-screening`).
//! * [`link`] — the versioned binary wire protocol (`bsa-link`).
//! * [`store`] — the persistent append-only frame store behind the
//!   station's record & replay (`bsa-store`).
//! * [`station`] — the multi-chip TCP acquisition server and client
//!   (`bsa-station`).
//! * [`control`] — the closed-loop recovery controller that keeps a
//!   faulted instrument producing usable data (`bsa-control`).
//! * [`rng`] — the seeded generator and normal samplers every random
//!   stream draws from (`bsa-rng`).
//!
//! # Panics are compile errors
//!
//! Every library crate root forbids clippy's panic and indexing lints
//! outside test builds (DESIGN.md §9), so library code holds no direct
//! index, slice, `.unwrap()`, `.expect()` or panicking macro. The
//! definite bugs among those need not wait for clippy: rustc's
//! deny-by-default `unconditional_panic` lint rejects them at compile
//! time. A constant index past a `[e; N]` array:
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

#![forbid(unsafe_code)]

pub use bsa_circuit as circuit;
pub use bsa_control as control;
pub use bsa_core as chips;
pub use bsa_dsp as dsp;
pub use bsa_electrochem as electrochem;
pub use bsa_faults as faults;
pub use bsa_link as link;
pub use bsa_neuro as neuro;
pub use bsa_rng as rng;
pub use bsa_screening as screening;
pub use bsa_station as station;
pub use bsa_store as store;
pub use bsa_units as units;
