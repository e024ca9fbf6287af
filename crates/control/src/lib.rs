// Tests unwrap, expect and panic idiomatically; the workspace's panic
// lints police non-test code only, and CI promotes their warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! `bsa-control` — the closed-loop recovery controller that turns the
//! repo from "readout" into an autonomous instrument.
//!
//! The paper's drug-screening pipeline assumes an instrument that keeps
//! producing valid data while pixels die, baselines drift, and channels
//! clip. `bsa-faults` injects those defects and the chip models observe
//! them; this crate closes the loop:
//!
//! * [`StateClassifier`] folds streamed frames, assay counts and the
//!   wire [`YieldSummary`](bsa_link::YieldSummary) into per-pixel
//!   [`PixelState`]s and a per-chip [`ChipCondition`] (healthy,
//!   baseline-drift, channel-loss, clipping, hybridization-detected).
//! * [`PolicyEngine`] is a deterministic function of the classified
//!   state plus a seeded RNG stream, emitting typed [`Action`]s
//!   (recalibrate, mask pixels, re-run assay, detach/reattach).
//! * [`Controller`] executes actions through the
//!   [`StationClient`](bsa_station::StationClient) it owns, with
//!   per-request deadlines, three attempts per request and
//!   deterministic exponential [`Backoff`] — so the loop survives chip
//!   faults *and* transport faults. It counts a chip as recovered at
//!   90% of its pre-fault baseline yield.
//!
//! # Determinism boundary
//!
//! Everything inside the loop is deterministic: classification is pure,
//! the policy RNG is seeded, and recovery traces ([`RecoveryTrace`])
//! replay bit-identically for the same seeded scenario. Wall-clock time
//! enters only at the client edge — socket deadlines and backoff pauses —
//! exactly as the station's own determinism boundary draws it
//! (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod classifier;
pub mod controller;
pub mod error;
pub mod policy;
pub mod scenario;
pub mod trace;

pub use backoff::Backoff;
pub use classifier::{ChipAssessment, ChipCondition, PixelState, StateClassifier};
pub use controller::{ChipTarget, Controller, RunOutcome};
pub use error::ControlError;
pub use policy::{Action, PolicyConfig, PolicyEngine};
pub use scenario::ScenarioReport;
pub use trace::{RecoveryTrace, TraceEvent};
