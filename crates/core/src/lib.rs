// Non-test code may not panic, and no inner `allow` can lift a `forbid`
// (E0453). The root `tests/clippy_gate.rs` pins these three lines.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), forbid(clippy::unimplemented, clippy::indexing_slicing))]
// Test builds unwrap, expect and panic idiomatically.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! The two CMOS biosensor-array chips of Thewes et al. (DATE 2005).
//!
//! This crate is the paper's primary contribution, rebuilt as a
//! circuit-level simulation on top of the workspace substrates:
//!
//! * [`dna_chip`] — the 16×8 DNA microarray (paper Section 2, Figs. 3–4):
//!   per-pixel electrode regulation and sawtooth current-to-frequency
//!   conversion, in-pixel counters, auto-calibration, electrochemical DACs
//!   and the 6-pin serial interface.
//! * [`neuro_chip`] — the 128×128 neural-recording array (Section 3,
//!   Figs. 5–6): capacitively coupled sensor transistors at 7.8 µm pitch,
//!   per-pixel current calibration, the ×100/×7 on-chip and ×4/×2 off-chip
//!   calibrated gain chain, 8-to-1 multiplexing into 16 channels, and the
//!   2 kframes/s scanner.
//! * [`mod@array`] — shared array geometry and addressing.
//!
//! # Examples
//!
//! Digitize one sensor current with the DNA pixel's converter:
//!
//! ```
//! use bsa_core::dna_chip::{DnaPixel, DnaPixelConfig};
//! use bsa_units::{Ampere, Seconds};
//!
//! let mut pixel = DnaPixel::nominal(DnaPixelConfig::default());
//! let count = pixel.convert_ideal(Ampere::from_nano(1.0), Seconds::from_milli(100.0));
//! assert!(count > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod dna_chip;
pub mod error;
pub mod health;
pub mod neuro_chip;
pub mod scan;

pub use error::ChipError;
pub use health::{DegradationMode, HealthMonitor, PixelHealth, YieldReport};
pub use scan::{ArenaStats, FrameArena, ScanMode, ScanOptions};
