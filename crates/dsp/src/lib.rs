// Non-test code may not panic, and no inner `allow` can lift a `forbid`
// (E0453). The root `tests/clippy_gate.rs` pins these three lines.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), forbid(clippy::unimplemented, clippy::indexing_slicing))]
// Test builds unwrap, expect and panic idiomatically.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! Readout signal processing for the biosensor arrays.
//!
//! The chips deliver raw digitized data — frame counts from the DNA
//! microarray, multiplexed voltage samples from the neural array. This
//! crate turns that into the quantities the paper's applications need:
//!
//! * [`stats`] — robust statistics (Welford, median/MAD, percentiles);
//! * [`filter`] — biquad/Butterworth IIR and moving-average FIR filters;
//! * [`spike`] — action-potential detection (threshold and NEO) and
//!   detection scoring against ground truth;
//! * [`frames`] — per-pixel baseline removal and activity maps over frame
//!   stacks from the 128×128 array;
//! * [`masking`] — dead-pixel masking and neighbor interpolation driven
//!   by the chip-side health monitor's usability mask;
//! * [`sorting`] — spike sorting: separating units that share a pixel;
//! * [`spectrum`] — periodograms and noise-floor estimation;
//! * [`snr`] — signal-to-noise estimation;
//! * [`calling`] — hybridization match/mismatch calling on the DNA chip's
//!   per-site current estimates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calling;
pub mod error;
pub mod filter;
pub mod frames;
pub mod masking;
pub mod snr;
pub mod sorting;
pub mod spectrum;
pub mod spike;
pub mod stats;
