// Tests unwrap idiomatically; the workspace-level `clippy::unwrap_used`
// only polices non-test code, and CI promotes its warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Analog/mixed-signal circuit-simulation substrate.
//!
//! This crate provides the device- and block-level models from which the
//! biosensor chips of Thewes et al. (DATE 2005) are assembled:
//!
//! * [`mosfet`] — an EKV-style long-channel MOSFET model that is continuous
//!   from weak through strong inversion, which matters because the DNA chip's
//!   sensor currents span 1 pA … 100 nA (five decades) and the neural chip's
//!   sensor transistors operate near moderate inversion.
//! * [`mismatch`] — Pelgrom-law device mismatch and process corners; the
//!   whole point of the per-pixel calibration loops in both chips is to
//!   cancel exactly this.
//! * [`noise`] — seeded Gaussian/pink/Poisson generators plus thermal,
//!   flicker and shot spectral densities.
//! * [`passive`] — capacitors, switches with charge injection, resistors and
//!   non-ideal current sources.
//! * [`opamp`] — a single-pole op-amp with finite gain, GBW, slew and offset.
//! * [`comparator`] — offset/hysteresis/propagation-delay comparator used by
//!   the in-pixel sawtooth converter (paper Fig. 3).
//! * [`reference`] — bandgap voltage reference and current mirrors/references
//!   (the DNA chip's periphery).
//! * [`dac`] — binary-weighted DAC providing the electrochemical potentials.
//! * [`digital`] — reset-event counter and shift register backing the
//!   in-pixel A/D conversion and serial readout.
//! * [`waveform`] — uniformly sampled waveforms and the transient clock.
//!
//! # Examples
//!
//! A sensor transistor biased in moderate inversion:
//!
//! ```
//! use bsa_circuit::mosfet::{Mosfet, MosfetParams};
//! use bsa_units::Volt;
//!
//! let m = Mosfet::new(MosfetParams::n05um(10.0, 2.0));
//! let id = m.drain_current(Volt::new(1.2), Volt::new(0.0), Volt::new(2.5));
//! assert!(id.value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparator;
pub mod dac;
pub mod digital;
pub mod error;
pub mod mismatch;
pub mod mosfet;
pub mod noise;
pub mod opamp;
pub mod passive;
pub mod reference;
pub mod regulation;
pub mod waveform;

pub use error::CircuitError;
