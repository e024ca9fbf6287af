//! Byte-level segment format: header, per-frame records, index footer.
//!
//! `bsa-link` defines how each value sits in bytes ([`bsa_link::wire`]):
//! integers little-endian, the chip-kind tag, the spec string behind its
//! `u32` length, a DNA reading as the wire's [`PixelCount`] and a neuro
//! frame as the wire's sample block. The segment adds only its framing:
//! the magics, the version, the record and footer fields and the three
//! CRC-8 trailers.
//!
//! ```text
//! HEADER
//!   magic        4 B   b"BSSG"
//!   version      u16   SEGMENT_VERSION
//!   kind         u8    the wire's `ChipKind` tag
//!   flags        u8    reserved, 0
//!   chip         u32   session chip handle at record time
//!   rows         u16   frame height
//!   cols         u16   frame width
//!   config_hash  u64   FNV-1a-64 of the spec snapshot bytes
//!   spec_len     u32
//!   spec         spec_len B (UTF-8 chip-config snapshot)
//!   header_crc   u8    CRC-8 over every preceding header byte
//!
//! RECORD (× frame count, back to back)
//!   frame_index  u64   position in the segment (0, 1, 2, …)
//!   epoch        u32   acquisition epoch (stream request ordinal)
//!   payload_len  u32
//!   payload      payload_len B
//!   record_crc   u8    CRC-8 over the record's preceding bytes
//!
//! INDEX FOOTER
//!   offsets      frame_count × u64 (absolute offset of each record)
//!   frame_count  u64
//!   index_off    u64   absolute offset where offsets[] begins
//!   epochs       u32   number of acquisition epochs recorded
//!   footer_crc   u8    CRC-8 over offsets[] and the three fields above
//!   tail magic   4 B   b"BSIX"
//! ```
//!
//! Every byte of the file is guarded by exactly one of the three CRC-8
//! trailers or pinned by a structural equation (the offset table must
//! account for every byte between the records and the tail; the spec
//! length must account for every header byte before the first record), so
//! any single corrupted byte is detected before a frame is served: CRC-8
//! catches every error burst of eight bits or fewer, and the fields used
//! to locate CRC-guarded regions are cross-checked against the file size
//! first.

use crate::error::StoreError;
use bsa_link::crc::crc8;
use bsa_link::samples::{decode_samples, encode_samples, SAMPLE_LEN};
use bsa_link::wire::{Codec, Reader, Writer};
use bsa_link::{ChipKind, PixelCount};

/// First bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"BSSG";

/// Last bytes of every finalised segment file.
pub const FOOTER_MAGIC: &[u8; 4] = b"BSIX";

/// Segment format version this build reads and writes.
pub const SEGMENT_VERSION: u16 = 1;

/// Header length up to (not including) the spec bytes.
pub const HEADER_FIXED_LEN: usize = 4 + 2 + 1 + 1 + 4 + 2 + 2 + 8 + 4;

/// Fixed-size tail of the index footer: `frame_count`, `index_off`,
/// `epochs`, `footer_crc`, tail magic.
pub const FOOTER_TAIL_LEN: usize = 8 + 8 + 4 + 1 + 4;

/// Per-record metadata bytes preceding the payload.
pub const RECORD_META_LEN: usize = 8 + 4 + 4;

/// Record bytes that are not payload (metadata plus CRC trailer).
pub const RECORD_OVERHEAD: usize = RECORD_META_LEN + 1;

/// Bytes one stored DNA reading occupies: the wire's [`PixelCount`].
pub const DNA_READING_LEN: usize = PixelCount::MIN_LEN;

/// Longest accepted spec snapshot, far above anything the station emits.
/// [`crate::Recorder::create`] refuses a longer one, and
/// [`crate::SegmentReader::open`] refuses a header with room for one
/// before it allocates the header buffer.
pub const MAX_SPEC_LEN: usize = 1 << 20;

/// FNV-1a-64 over `bytes` — the segment header's config-hash function.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bytes one frame payload of this kind/geometry must occupy: a neuro
/// frame is `rows × cols` raw IEEE-754 samples, a DNA "frame" is one
/// count reading.
#[must_use]
pub fn frame_payload_len(kind: ChipKind, rows: u16, cols: u16) -> usize {
    match kind {
        ChipKind::Neuro => usize::from(rows) * usize::from(cols) * SAMPLE_LEN,
        ChipKind::Dna => DNA_READING_LEN,
    }
}

/// Serialises a neuro frame payload: each sample as raw IEEE-754 bits,
/// little-endian, bit-exact — the wire's sample codec
/// ([`bsa_link::samples`]), so a stored frame is the byte image of the
/// samples in a streamed chunk.
#[must_use]
pub fn encode_neuro_frame(samples: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * SAMPLE_LEN);
    encode_samples(samples, &mut out);
    out
}

/// Appends the samples stored in a neuro frame payload to `out`,
/// bit-exact (`f64::from_bits` of the stored words).
pub fn decode_neuro_frame(payload: &[u8], out: &mut Vec<f64>) -> Result<(), StoreError> {
    decode_samples(payload, out).map_err(|_| StoreError::InvalidValue {
        what: "neuro frame payload length",
    })
}

/// Serialises one DNA count reading payload with the wire's codec.
#[must_use]
pub fn encode_dna_reading(reading: &PixelCount) -> Vec<u8> {
    let mut w = Writer::with_capacity(DNA_READING_LEN);
    reading.encode(&mut w);
    w.into_bytes()
}

/// Decodes one DNA count reading payload, which it must fill exactly.
pub fn decode_dna_reading(payload: &[u8]) -> Result<PixelCount, StoreError> {
    let mut r = Reader::new(payload);
    let reading = PixelCount::decode(&mut r)?;
    r.finish()?;
    Ok(reading)
}

/// Everything the segment header records about the acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Session chip handle at record time (provenance only).
    pub chip: u32,
    /// Which array kind produced the frames.
    pub kind: ChipKind,
    /// Frame height in pixels.
    pub rows: u16,
    /// Frame width in pixels.
    pub cols: u16,
    /// FNV-1a-64 of the spec snapshot bytes.
    pub config_hash: u64,
    /// Human-readable chip-config snapshot captured at record time.
    pub spec: String,
}

impl SegmentMeta {
    /// Serialises the header, CRC trailer included.
    pub(crate) fn encode_header(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(HEADER_FIXED_LEN + self.spec.len() + 1);
        w.bytes(SEGMENT_MAGIC);
        w.u16(SEGMENT_VERSION);
        self.kind.encode(&mut w);
        w.u8(0); // flags, reserved
        w.u32(self.chip);
        w.u16(self.rows);
        w.u16(self.cols);
        w.u64(self.config_hash);
        w.string(&self.spec);
        w.crc8();
        w.into_bytes()
    }

    /// Parses and CRC-checks a header occupying exactly `bytes`.
    pub(crate) fn decode_header(bytes: &[u8]) -> Result<Self, StoreError> {
        let Some((body, &[crc_byte])) = bytes.split_at_checked(bytes.len().saturating_sub(1))
        else {
            return Err(StoreError::Truncated {
                what: "segment header",
                needed: (HEADER_FIXED_LEN + 1) as u64,
                available: bytes.len() as u64,
            });
        };
        let mut r = Reader::new(body);
        if r.bytes(SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
            return Err(StoreError::BadMagic {
                what: "segment header",
            });
        }
        let version = r.u16()?;
        if version != SEGMENT_VERSION {
            return Err(StoreError::UnsupportedVersion { got: version });
        }
        let kind = ChipKind::decode(&mut r)?;
        let _flags = r.u8()?;
        let meta = Self {
            chip: r.u32()?,
            kind,
            rows: r.u16()?,
            cols: r.u16()?,
            config_hash: r.u64()?,
            spec: r.string()?,
        };
        // The header region's size was already pinned by the caller; the
        // spec's length must account for every remaining byte.
        r.finish()?;
        if crc8(body) != crc_byte {
            return Err(StoreError::BadCrc {
                what: "segment header",
            });
        }
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn header_roundtrips() {
        let meta = SegmentMeta {
            chip: 7,
            kind: ChipKind::Neuro,
            rows: 128,
            cols: 128,
            config_hash: fnv1a64(b"spec"),
            spec: "NeuroChipConfig { .. }".into(),
        };
        let bytes = meta.encode_header();
        assert_eq!(bytes.len(), HEADER_FIXED_LEN + meta.spec.len() + 1);
        let back = SegmentMeta::decode_header(&bytes).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn unknown_kind_byte_is_unknown_kind() {
        let meta = SegmentMeta {
            chip: 1,
            kind: ChipKind::Dna,
            rows: 8,
            cols: 16,
            config_hash: 0,
            spec: String::new(),
        };
        let mut bytes = meta.encode_header();
        // The kind byte follows the magic and the version.
        if let Some(kind) = bytes.get_mut(SEGMENT_MAGIC.len() + 2) {
            *kind = 7;
        }
        assert!(matches!(
            SegmentMeta::decode_header(&bytes),
            Err(StoreError::UnknownKind { tag: 7 })
        ));
    }

    #[test]
    fn neuro_payload_roundtrips_bit_exact() {
        let samples = [0.0, -0.0, 1.5e-12, f64::MAX, -3.25];
        let payload = encode_neuro_frame(&samples);
        let mut back = Vec::new();
        decode_neuro_frame(&payload, &mut back).unwrap();
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dna_payload_roundtrips() {
        let reading = PixelCount {
            row: 3,
            col: 15,
            count: 123_456_789,
        };
        let payload = encode_dna_reading(&reading);
        assert_eq!(payload.len(), DNA_READING_LEN);
        assert_eq!(decode_dna_reading(&payload).unwrap(), reading);
    }

    #[test]
    fn ragged_payloads_rejected() {
        let mut out = Vec::new();
        assert!(matches!(
            decode_neuro_frame(&[0u8; 7], &mut out),
            Err(StoreError::InvalidValue { .. })
        ));
        assert!(decode_dna_reading(&[0u8; 11]).is_err());
        assert!(decode_dna_reading(&[0u8; 13]).is_err());
    }
}
