// Non-test code may not panic, and no inner `allow` can lift a `forbid`
// (E0453). The root `tests/clippy_gate.rs` pins these three lines.
#![cfg_attr(not(test), forbid(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), forbid(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), forbid(clippy::unimplemented, clippy::indexing_slicing))]
// Test builds unwrap, expect and panic idiomatically.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! `bsa-station` — a multi-chip acquisition server for the simulated
//! biosensor arrays of Thewes et al. (DATE 2005).
//!
//! The station hosts a registry of simulated DNA microarray and
//! neural-recording chips (`bsa-core`) behind the versioned binary wire
//! protocol defined in [`bsa_link`], over plain `std::net` TCP with one
//! thread per connection. Clients attach chips, configure assays, inject
//! fault plans, and stream acquisition data; a bounded per-session
//! outbound queue applies backpressure by dropping stream chunks for
//! slow consumers (with exact dropped-frame accounting) rather than
//! buffering without bound.
//!
//! # Determinism boundary
//!
//! Chip execution is deterministic: the same wire spec and seed produce
//! bit-identical frames, because the station builds chips through the
//! same configuration path an in-process caller would use and streams
//! each request from one acquisition cursor, whose chunks reproduce a
//! single `record()` of the whole request. Wall-clock time exists only
//! *around* the chips — session read timeouts, socket lifecycle — never
//! inside them; this is why the `clippy.toml` clock bans cover the chip
//! crates but deliberately exclude this one (see DESIGN.md §10).
//!
//! # Quickstart
//!
//! ```no_run
//! use bsa_station::{Station, StationConfig};
//!
//! let handle = Station::bind(StationConfig::default())?;
//! println!("listening on {}", handle.addr());
//! handle.wait(); // serve until shut down
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod registry;
pub mod server;
mod session;
mod session_table;
mod stats;

pub use client::{
    AssayOutcome, AttachedChip, CalibrationCounts, ClientConfig, ClientError, RecordingSummary,
    StationClient, Streamed,
};
pub use registry::{
    culture_from_spec, dna_config_from_spec, injection_plan_from_spec, neuro_config_from_spec,
    plan_to_spec, yield_summary,
};
pub use server::{Station, StationConfig, StationHandle};
