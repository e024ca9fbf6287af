// Tests unwrap idiomatically; the workspace-level `clippy::unwrap_used`
// only polices non-test code, and CI promotes its warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! The drug-screening pipeline of paper Fig. 1.
//!
//! "Schematic diagram depicting the drug-screening process flow aiming to
//! identify one (combination of) compound(s) out of millions … as a
//! suitable drug": compounds → molecular-based screen → cell-based screen
//! → animal tests → clinical trials, with **datapoints/day falling** and
//! **costs/datapoint rising** at every stage. This crate models that
//! funnel quantitatively, with the early (chip-amenable) stages backed by
//! the throughput of the simulated biosensor arrays.
//!
//! # Examples
//!
//! ```
//! use bsa_screening::compound::CompoundLibrary;
//! use bsa_screening::pipeline::Pipeline;
//!
//! let library = CompoundLibrary::generate(100_000, 1e-4, 7);
//! let report = Pipeline::classic().run(&library, 42);
//! assert!(report.stages.len() == 4);
//! // The funnel shrinks monotonically.
//! for w in report.stages.windows(2) {
//!     assert!(w[1].survivors <= w[0].survivors);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compound;
pub mod pipeline;
pub mod stage;
