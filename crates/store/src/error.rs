//! Typed store failures. Every way a segment file can be malformed,
//! truncated or misused maps to a [`StoreError`] variant — the reader and
//! writer have no panicking paths.

use bsa_link::ProtocolError;
use std::fmt;
use std::io;

/// Why a store operation failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A magic marker (segment header or index footer) was wrong.
    BadMagic {
        /// Which marker was being checked.
        what: &'static str,
    },
    /// The segment declares a format version this build does not read.
    UnsupportedVersion {
        /// The version actually stored.
        got: u16,
    },
    /// A CRC-8 trailer did not match the bytes it guards.
    BadCrc {
        /// Which structure failed its checksum.
        what: &'static str,
    },
    /// The file ended before the structure it claimed to hold.
    Truncated {
        /// Which structure was being read.
        what: &'static str,
        /// Bytes the reader needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A field held a value outside its domain (impossible length,
    /// non-monotonic index offset, record/index disagreement, …).
    InvalidValue {
        /// Which field was being validated.
        what: &'static str,
    },
    /// A stored kind tag named no known chip kind.
    UnknownKind {
        /// The offending tag byte.
        tag: u8,
    },
    /// The requested frame index is past the end of the segment.
    FrameOutOfRange {
        /// Requested frame index.
        index: u64,
        /// Frames the segment holds.
        frames: u64,
    },
    /// A frame payload had the wrong size for the segment's chip kind.
    PayloadSize {
        /// Bytes one frame of this kind must occupy.
        expected: usize,
        /// Bytes actually seen.
        got: usize,
    },
    /// The recording name contains characters outside `[A-Za-z0-9._-]`,
    /// is empty, starts with a dot, or is longer than 64 bytes.
    BadName {
        /// The rejected name.
        name: String,
    },
    /// A recording with that name already exists in the store root.
    AlreadyExists {
        /// The conflicting name.
        name: String,
    },
    /// No recording with that name exists in the store root.
    NotFound {
        /// The missing name.
        name: String,
    },
    /// The stored spec snapshot is not valid UTF-8.
    BadUtf8,
    /// The writer thread terminated before the segment was finalised.
    WriterGone,
    /// The underlying filesystem failed.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic { what } => write!(f, "bad {what} magic"),
            Self::UnsupportedVersion { got } => {
                write!(f, "unsupported segment version {got}")
            }
            Self::BadCrc { what } => write!(f, "{what} CRC mismatch"),
            Self::Truncated {
                what,
                needed,
                available,
            } => {
                write!(
                    f,
                    "truncated {what}: needed {needed} bytes, had {available}"
                )
            }
            Self::InvalidValue { what } => write!(f, "invalid value for {what}"),
            Self::UnknownKind { tag } => write!(f, "unknown chip kind tag {tag:#04x}"),
            Self::FrameOutOfRange { index, frames } => {
                write!(f, "frame {index} out of range (segment holds {frames})")
            }
            Self::PayloadSize { expected, got } => {
                write!(f, "frame payload of {got} bytes, expected {expected}")
            }
            Self::BadName { name } => write!(f, "invalid recording name {name:?}"),
            Self::AlreadyExists { name } => {
                write!(f, "recording {name:?} already exists")
            }
            Self::NotFound { name } => write!(f, "no recording named {name:?}"),
            Self::BadUtf8 => write!(f, "stored spec snapshot is not valid UTF-8"),
            Self::WriterGone => write!(f, "store writer thread terminated early"),
            Self::Io(err) => write!(f, "store I/O error: {err}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

/// Failures of the `bsa-link` codec that segments are read with. The one
/// tagged value a segment stores is the chip kind, so an unknown tag is
/// an unknown kind.
impl From<ProtocolError> for StoreError {
    fn from(err: ProtocolError) -> Self {
        match err {
            ProtocolError::UnknownTag { tag, .. } => Self::UnknownKind { tag },
            ProtocolError::Truncated { needed, available } => Self::Truncated {
                what: "segment field",
                needed: needed as u64,
                available: available as u64,
            },
            ProtocolError::InvalidValue { what } => Self::InvalidValue { what },
            ProtocolError::BadUtf8 => Self::BadUtf8,
            ProtocolError::Io(err) => Self::Io(err),
            _ => Self::InvalidValue {
                what: "segment field",
            },
        }
    }
}
