// Tests unwrap, expect and panic idiomatically; the workspace's panic
// lints police non-test code only, and CI promotes their warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! Neuro-electrophysiology substrate for the neural-recording chip.
//!
//! Section 3 of Thewes et al. (DATE 2005) records "from nerve cells and
//! neural tissue": neurons in electrolyte sit on the chip surface with a
//! ~60 nm cleft, and their action-potential ion currents produce a cleft
//! voltage of 100 µV – 5 mV that the sensor transistors probe capacitively.
//! This crate provides the biology/electrolyte side:
//!
//! * [`hh`] — the Hodgkin–Huxley membrane model (ground truth for action
//!   potential shape and the underlying ionic currents);
//! * [`lif`] / [`izhikevich`] — cheaper point-neuron models for large
//!   cultures;
//! * [`firing`] — spike-train statistics (Poisson, regular, bursting);
//! * [`junction`] — the point-contact cell–chip junction (Fromherz model,
//!   paper refs [16–18]): seal resistance of the cleft and the resulting
//!   extracellular transient;
//! * [`culture`] — spatially placed neuron populations over the 1 mm²
//!   sensor area.
//!
//! # Examples
//!
//! ```
//! use bsa_neuro::hh::HodgkinHuxley;
//! use bsa_units::Seconds;
//!
//! let mut n = HodgkinHuxley::new();
//! let dt = Seconds::from_micro(10.0);
//! let mut spiked = false;
//! for k in 0..20_000 {
//!     // 1 ms suprathreshold current pulse at t = 50 ms.
//!     let stim = if (5000..5100).contains(&k) { 15.0 } else { 0.0 };
//!     let s = n.step(stim, dt);
//!     spiked |= s.spike_onset;
//! }
//! assert!(spiked);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod culture;
pub mod firing;
pub mod hh;
pub mod izhikevich;
pub mod junction;
pub mod lif;
pub mod network;
