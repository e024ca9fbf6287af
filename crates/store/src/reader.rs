//! Segment reader: pread-into-arena with O(1) frame seek.
//!
//! Opening a segment reads and validates only the header and the index
//! footer; frames are then fetched individually by seeking straight to
//! the record offset the footer supplies and reading into a reusable
//! arena buffer, so replaying N frames costs N bounded reads and zero
//! steady-state allocation. Every structural field used to locate data
//! is cross-checked against the file size before use, and every byte is
//! guarded by one of the three CRC-8 trailers — a corrupted segment
//! always fails typed, never panics and never serves a wrong frame.

use crate::error::StoreError;
use crate::format::{
    frame_payload_len, SegmentMeta, FOOTER_MAGIC, FOOTER_TAIL_LEN, HEADER_FIXED_LEN,
    RECORD_OVERHEAD,
};
use crate::writer::segment_path;
use bsa_link::crc::Crc8;
use bsa_link::wire::Reader;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// One frame served from a segment, borrowing the reader's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Frame position in the segment.
    pub index: u64,
    /// Acquisition epoch (stream request ordinal) the frame came from.
    pub epoch: u32,
    /// The raw payload bytes, exactly as persisted.
    pub payload: &'a [u8],
}

/// An open, validated segment.
#[derive(Debug)]
pub struct SegmentReader {
    file: File,
    meta: SegmentMeta,
    offsets: Vec<u64>,
    index_off: u64,
    epochs: u32,
    bytes: u64,
    arena: Vec<u8>,
}

impl SegmentReader {
    /// Opens the named recording inside a store root.
    pub fn open_named(root: &Path, name: &str) -> Result<Self, StoreError> {
        let path = segment_path(root, name)?;
        match Self::open(&path) {
            Err(StoreError::Io(err)) if err.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::NotFound {
                    name: name.to_string(),
                })
            }
            other => other,
        }
    }

    /// Opens a segment file, validating header, index footer and their
    /// CRC trailers. Record payloads are validated lazily per frame.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::open(path)?;
        let bytes = file.metadata()?.len();
        let min_len = (HEADER_FIXED_LEN + 1 + FOOTER_TAIL_LEN) as u64;
        if bytes < min_len {
            return Err(StoreError::Truncated {
                what: "segment file",
                needed: min_len,
                available: bytes,
            });
        }

        // --- index footer tail: count, index offset, epochs, CRC, magic
        let mut tail = [0u8; FOOTER_TAIL_LEN];
        file.seek(SeekFrom::Start(bytes - FOOTER_TAIL_LEN as u64))?;
        file.read_exact(&mut tail)?;
        let mut r = Reader::new(&tail);
        let frame_count = r.u64()?;
        let index_off = r.u64()?;
        let epochs = r.u32()?;
        let footer_crc = r.u8()?;
        if r.bytes(FOOTER_MAGIC.len())? != FOOTER_MAGIC {
            return Err(StoreError::BadMagic {
                what: "index footer",
            });
        }

        // Bound both footer fields by the file size before either feeds
        // an allocation: a corrupt count or offset must fail with a
        // typed error, never an absurd `vec![0; …]` request.
        if frame_count > bytes / 8 {
            return Err(StoreError::Truncated {
                what: "footer frame count",
                needed: frame_count.saturating_mul(8),
                available: bytes,
            });
        }
        if index_off > bytes {
            return Err(StoreError::Truncated {
                what: "footer index offset",
                needed: index_off,
                available: bytes,
            });
        }

        // Structural equation before trusting either field: the offset
        // table must account for every byte between the records and the
        // tail. A corrupted count or offset cannot both pass this and
        // the coming CRC.
        let index_len = frame_count
            .checked_mul(8)
            .and_then(|n| n.checked_add(FOOTER_TAIL_LEN as u64))
            .and_then(|n| n.checked_add(index_off))
            .ok_or(StoreError::InvalidValue {
                what: "footer frame count",
            })?;
        if index_len != bytes {
            return Err(StoreError::InvalidValue {
                what: "footer index geometry",
            });
        }

        // --- offset table, then CRC over table + tail fields
        let table_len = (frame_count * 8) as usize;
        let mut table = vec![0u8; table_len];
        file.seek(SeekFrom::Start(index_off))?;
        file.read_exact(&mut table)?;
        let mut crc = Crc8::new();
        crc.update_bytes(&table);
        // The CRC also covers the three tail fields preceding it.
        crc.update_bytes(tail.get(..8 + 8 + 4).unwrap_or(&[]));
        if crc.finish() != footer_crc {
            return Err(StoreError::BadCrc {
                what: "index footer",
            });
        }
        let mut offsets = Vec::with_capacity(table_len / 8);
        let mut r = Reader::new(&table);
        while r.remaining() > 0 {
            offsets.push(r.u64()?);
        }

        // --- header occupies everything before the first record
        let header_end = offsets.first().copied().unwrap_or(index_off);
        let header_len = usize::try_from(header_end).map_err(|_| StoreError::InvalidValue {
            what: "segment header length",
        })?;
        if header_len < HEADER_FIXED_LEN + 1 || header_end > index_off {
            return Err(StoreError::InvalidValue {
                what: "segment header length",
            });
        }
        let mut header = vec![0u8; header_len];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
        let meta = SegmentMeta::decode_header(&header)?;

        // --- offsets must be strictly increasing and in-bounds, and
        // every record needs room for its metadata and CRC trailer.
        let mut prev = header_end;
        for (i, &off) in offsets.iter().enumerate() {
            let lower = if i == 0 { header_end } else { prev + 1 };
            if off < header_end || (i > 0 && off < lower) || off > index_off {
                return Err(StoreError::InvalidValue {
                    what: "footer offset order",
                });
            }
            prev = off;
        }
        if let Some(&last) = offsets.last() {
            if index_off.saturating_sub(last) < RECORD_OVERHEAD as u64 {
                return Err(StoreError::InvalidValue {
                    what: "footer offset order",
                });
            }
        }

        Ok(Self {
            file,
            meta,
            offsets,
            index_off,
            epochs,
            bytes,
            arena: Vec::new(),
        })
    }

    /// The acquisition metadata recorded in the header.
    #[must_use]
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// Frames the segment holds.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.offsets.len() as u64
    }

    /// Acquisition epochs the segment spans.
    #[must_use]
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Segment file size in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Reads one frame by index — one seek plus one bounded read into
    /// the reusable arena. The record's CRC trailer, stored index and
    /// payload size are all verified before the payload is served.
    pub fn frame(&mut self, index: u64) -> Result<FrameRef<'_>, StoreError> {
        let frames = self.frames();
        let i = usize::try_from(index)
            .ok()
            .filter(|&i| i < self.offsets.len())
            .ok_or(StoreError::FrameOutOfRange { index, frames })?;
        let off = self.offsets.get(i).copied().unwrap_or(0);
        let end = self.offsets.get(i + 1).copied().unwrap_or(self.index_off);
        let rec_len =
            usize::try_from(end.saturating_sub(off)).map_err(|_| StoreError::InvalidValue {
                what: "record size",
            })?;
        if rec_len < RECORD_OVERHEAD {
            return Err(StoreError::InvalidValue {
                what: "record size",
            });
        }
        self.arena.resize(rec_len, 0);
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut self.arena)?;

        let Some((body, &[crc_byte])) = self.arena.split_at_checked(rec_len - 1) else {
            return Err(StoreError::InvalidValue {
                what: "record size",
            });
        };
        let mut crc = Crc8::new();
        crc.update_bytes(body);
        if crc.finish() != crc_byte {
            return Err(StoreError::BadCrc {
                what: "frame record",
            });
        }
        let mut r = Reader::new(body);
        let stored_index = r.u64()?;
        let epoch = r.u32()?;
        let payload_len = r.u32()? as usize;
        if stored_index != index {
            return Err(StoreError::InvalidValue {
                what: "record frame index",
            });
        }
        if payload_len != r.remaining() {
            return Err(StoreError::InvalidValue {
                what: "record payload length",
            });
        }
        let expected = frame_payload_len(self.meta.kind, self.meta.rows, self.meta.cols);
        if payload_len != expected {
            return Err(StoreError::PayloadSize {
                expected,
                got: payload_len,
            });
        }
        Ok(FrameRef {
            index,
            epoch,
            payload: r.bytes(payload_len)?,
        })
    }
}
