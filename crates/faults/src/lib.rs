// Tests unwrap idiomatically; the workspace-level `clippy::unwrap_used`
// only polices non-test code, and CI promotes its warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Fault-injection models for the CMOS biosensor array chips.
//!
//! Real sensor arrays ship with defects: electrodes shorted during
//! post-processing, comparators stuck by gate-oxide damage, calibration
//! DACs that run out of range, multiplexer channels lost to metal opens.
//! The paper's chips tolerate this through periphery auto-calibration and
//! redundancy at the assay level; this crate provides the *defect side* of
//! that story so the readout pipelines in `bsa-core`, `bsa-dsp` and
//! `bsa-electrochem` can be exercised against known fault populations.
//!
//! The workflow is:
//!
//! 1. Describe defects with [`FaultKind`] values.
//! 2. Compose them into an [`InjectionPlan`] — per-pixel with
//!    [`InjectionPlan::at`], or array-wide at a target density with
//!    [`InjectionPlan::array_wide`].
//! 3. [`InjectionPlan::compile`] the plan for a concrete array geometry.
//!    Compilation is deterministic: the same plan, seed and geometry always
//!    select the same pixels.
//! 4. Hand the resulting [`CompiledFaults`] to a chip model
//!    (`DnaChip::inject_faults` / `NeuroChip::inject_faults` in
//!    `bsa-core`), which interprets each defect physically.
//!
//! ```
//! use bsa_faults::{FaultKind, InjectionPlan};
//! use bsa_units::Ampere;
//!
//! let plan = InjectionPlan::new(42)
//!     .at(3, 7, FaultKind::DeadPixel)
//!     .array_wide(0.05, FaultKind::LeakyElectrode { leakage: Ampere::from_pico(40.0) })
//!     .serial_bit_errors(1e-4);
//! let faults = plan.compile(8, 16);
//! assert!(faults.at(3, 7).dead);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kinds;
mod plan;

pub use kinds::{FaultClass, FaultKind, PixelFaults};
pub use plan::{CompiledFaults, InjectionPlan, PlanTarget, SerialCorruptor};
