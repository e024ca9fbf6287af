// Tests unwrap idiomatically; the workspace-level `clippy::unwrap_used`
// only polices non-test code, and CI promotes its warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! `bsa-store` — persistent append-only frame store for biosensor-array
//! acquisitions.
//!
//! The station's serving layer streams frames and keeps nothing; this
//! crate is the storage layer that turns one acquisition into unbounded
//! read traffic. A recording is a single *segment file*: a fixed header
//! (magic, version, chip-config FNV-1a-64 hash, spec snapshot), per-frame
//! records carrying embedded metadata (frame index, epoch, payload
//! length, CRC-8 trailer — the same polynomial that guards the chips'
//! serial words, via [`bsa_link::crc::Crc8`]), and an index footer giving
//! O(1) frame seek. See [`format`] docs for the exact byte layout.
//!
//! Design rules:
//!
//! * **The acquisition path never blocks on disk.** [`Recorder`] feeds a
//!   dedicated writer thread through a bounded queue; past high-water the
//!   frame is dropped and counted, mirroring the station's
//!   `StreamEnd { sent, dropped }` contract.
//! * **Bit-exact payloads.** Neuro samples are persisted as raw IEEE-754
//!   bits ([`encode_neuro_frame`]/[`decode_neuro_frame`], built on the
//!   wire's sample codec in `bsa_link::samples`), so a replayed stream is
//!   `f64::to_bits`-identical to the live one.
//! * **Panic-free, CRC-guarded reads.** Every malformed or corrupted
//!   segment maps to a typed [`StoreError`]; every file byte is covered
//!   by one of three CRC-8 trailers or pinned by a structural equation,
//!   so single-byte corruption is always detected, never served.
//! * **Wall-clock-legal, but deterministic anyway.** The store sits with
//!   the station outside the determinism bans, yet takes no timestamps:
//!   the `epoch` field is the acquisition's stream-request ordinal, so
//!   identical acquisitions produce identical segments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod error;
pub mod format;
mod reader;
mod writer;

pub use catalog::{list_recordings, CatalogEntry};
pub use error::StoreError;
pub use format::{
    decode_dna_reading, decode_neuro_frame, encode_dna_reading, encode_neuro_frame, fnv1a64,
    frame_payload_len, SegmentMeta, DNA_READING_LEN, SEGMENT_VERSION,
};
pub use reader::{FrameRef, SegmentReader};
pub use writer::{
    segment_path, validate_name, Offer, Recorder, WriteSummary, DEFAULT_QUEUE_DEPTH, SEGMENT_EXT,
};
