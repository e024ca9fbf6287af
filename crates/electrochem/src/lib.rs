// Tests unwrap idiomatically; the workspace-level `clippy::unwrap_used`
// only polices non-test code, and CI promotes its warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Electrochemistry substrate for the DNA-microarray chip.
//!
//! Section 2 of Thewes et al. (DATE 2005) describes the chip-side of an
//! electrochemical DNA assay; this crate provides the solution-side physics
//! that the paper's authors had on a lab bench:
//!
//! * [`sequence`] — DNA sequences, complementarity, GC content;
//! * [`hybridization`] — duplex stability and Langmuir binding kinetics,
//!   including the match/mismatch contrast of paper Fig. 2 d)–g);
//! * [`assay`] — the full protocol: probe immobilization → analyte
//!   application/hybridization → washing (Fig. 2 phases a)–c));
//! * [`enzyme`] — enzyme-label turnover producing the electrochemically
//!   active compound measured by the chip;
//! * [`electrode`] — interdigitated gold sensor-electrode geometry;
//! * [`redox`] — redox-cycling current generation ("currents between 1 pA
//!   and 100 nA per sensor", refs [12, 13] of the paper), plus the
//!   single-electrode baseline it is compared against;
//! * [`redundancy`] — replicated-spot layouts and majority voting, the
//!   assay-level defense against dead or out-of-family sensor sites;
//! * [`impedance`] / [`mass`] — the label-free alternatives the paper
//!   lists as "under development" (refs [7–11]): interfacial-impedance and
//!   FBAR mass-shift detection.
//!
//! # Examples
//!
//! End-to-end: a matching probe/target pair produces orders of magnitude
//! more current than a 3-base mismatch:
//!
//! ```
//! use bsa_electrochem::assay::{AssayConditions, SpottedSite};
//! use bsa_electrochem::sequence::DnaSequence;
//! use bsa_units::Molar;
//!
//! let probe: DnaSequence = "ACGTACGTACGTACGTACGT".parse()?;
//! let target = probe.reverse_complement();
//!
//! let cond = AssayConditions::default();
//! let site = SpottedSite::new(probe);
//! let result = site.run(&target, Molar::from_nano(100.0), &cond);
//! assert!(result.final_coverage > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assay;
pub mod electrode;
pub mod enzyme;
pub mod hybridization;
pub mod impedance;
pub mod mass;
pub mod panel;
pub mod redox;
pub mod redundancy;
pub mod sequence;
