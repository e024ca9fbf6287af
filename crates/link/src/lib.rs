// Tests unwrap, expect and panic idiomatically; the workspace's panic
// lints police non-test code only, and CI promotes their warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! `bsa-link` — the wire protocol between acquisition hosts and the
//! biosensor station.
//!
//! The paper's chips (Thewes et al., DATE 2005) are slaves on a 6-pin
//! serial digital interface; `bsa-core` models that chip-side link in
//! `dna_chip::interface`. This crate is the *host-side* contract: a
//! versioned binary protocol that a controller process
//! ([`bsa-station`](../bsa_station/index.html)) and its clients speak over
//! any ordered byte stream (TCP in practice).
//!
//! Design rules:
//!
//! * **Dependency-free.** The protocol is the boundary between processes;
//!   it must not drag the simulation crates into every client.
//! * **Panic-free decoding.** Every malformed input maps to a typed
//!   [`ProtocolError`]; the decoder never panics and never returns a
//!   wrong-but-valid message for a corrupted frame (the frame CRC covers
//!   header and payload).
//! * **One CRC.** The CRC-8 (polynomial 0x07) that guards the chip's
//!   56-bit serial words lives here in [`crc`] and is reused by
//!   `bsa-core`, so both layers of the stack share a single
//!   implementation.
//!
//! # Frame format
//!
//! ```text
//! +-------+-------+---------+-----------------+-------+
//! | MAGIC | VER   | LEN     | PAYLOAD         | CRC-8 |
//! | 2 B   | 1 B   | 4 B LE  | LEN bytes       | 1 B   |
//! +-------+-------+---------+-----------------+-------+
//!          CRC is computed over every preceding byte.
//! ```
//!
//! The payload is a tagged [`Message`]; see [`message`] for the grammar,
//! the one table that declares each message's fields and tag, and how to
//! add a message, and [`wire`] for how each value sits in bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
mod error;
mod frame;
pub mod message;
pub mod samples;
pub mod wire;

pub use error::ProtocolError;
pub use frame::{
    decode_frame, decode_frame_prefix, encode_frame, encode_neuro_chunk, read_message,
    write_message, FRAME_OVERHEAD, HEADER_LEN, MAGIC, MAX_PAYLOAD, PROTOCOL_VERSION,
};
pub use message::{
    ChipId, ChipKind, CultureSpec, DegradationSummary, DnaChipSpec, ErrorCode, FaultEntrySpec,
    FaultKindSpec, FaultPlanSpec, FaultTargetSpec, Message, NeuroChipSpec, NeuroChunkHead,
    PixelCount, RecordingEntry, SerialLinkSummary, StatsSnapshot, StreamPayload, TargetSpec,
    YieldSummary, ASSAY_RESULT_HEAD, DNA_CHUNK_HEAD, NEURO_CHUNK_HEAD,
};
