// Tests unwrap, expect and panic idiomatically; the workspace's panic
// lints police non-test code only, and CI promotes their warnings to errors.
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
