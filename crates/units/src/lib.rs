// Tests unwrap idiomatically; the workspace-level `clippy::unwrap_used`
// only polices non-test code, and CI promotes its warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Typed physical quantities for biosensor-ASIC simulation.
//!
//! Every analog quantity that crosses a module boundary in this workspace is
//! a newtype over `f64` with an explicit unit: [`Volt`], [`Ampere`],
//! [`Farad`], [`Ohm`], [`Siemens`], [`Hertz`], [`Seconds`], [`Coulomb`],
//! [`Kelvin`], [`Meter`], [`SquareMeter`] and [`Molar`]. This makes it
//! impossible to, say, feed a comparator threshold (volts) where an
//! integration capacitor (farads) is expected — the class of mix-up that is
//! easy to make when modelling circuits like the current-to-frequency
//! converter of Thewes et al. (DATE 2005, Fig. 3) where pico-, nano-, micro-
//! and milli-scale values coexist.
//!
//! # Examples
//!
//! ```
//! use bsa_units::{Ampere, Farad, Volt};
//!
//! // Charging slope of the in-pixel integrator: dV/dt = I / C.
//! let sensor_current = Ampere::from_nano(1.0);
//! let c_int = Farad::from_femto(100.0);
//! let threshold = Volt::new(1.0);
//!
//! // Time to reach the comparator threshold.
//! let charge = threshold * c_int; // Coulomb
//! let t = charge / sensor_current; // Seconds
//! assert!((t.value() - 1e-4).abs() < 1e-12);
//! assert_eq!(format!("{t}"), "100 µs");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fmt;
mod parse;
mod quantity;
mod types;

pub mod consts;
pub mod sweep;

pub use fmt::format_eng;
pub use parse::{parse_eng, ParseQuantityError};
pub use types::{
    Ampere, Coulomb, Farad, Hertz, Kelvin, Meter, Molar, Ohm, Seconds, Siemens, SquareMeter, Volt,
};
