//! Byte-level segment format: header, per-frame records, index footer.
//!
//! ```text
//! HEADER
//!   magic        4 B   b"BSSG"
//!   version      u16   SEGMENT_VERSION
//!   kind         u8    0 = DNA, 1 = neuro (same mapping as the wire)
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
use bsa_link::crc::Crc8;
use bsa_link::samples::{decode_samples, encode_samples, SAMPLE_LEN};
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

/// Bytes one stored DNA reading occupies (`row`, `col`, `count`).
pub const DNA_READING_LEN: usize = 2 + 2 + 8;

/// Longest accepted spec snapshot, far above anything the station emits.
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

/// Serialises one DNA count reading payload.
#[must_use]
pub fn encode_dna_reading(reading: &PixelCount) -> Vec<u8> {
    let mut out = Vec::with_capacity(DNA_READING_LEN);
    out.extend_from_slice(&reading.row.to_le_bytes());
    out.extend_from_slice(&reading.col.to_le_bytes());
    out.extend_from_slice(&reading.count.to_le_bytes());
    out
}

/// Decodes one DNA count reading payload.
pub fn decode_dna_reading(payload: &[u8]) -> Result<PixelCount, StoreError> {
    let mut cur = Cursor::new(payload);
    let reading = PixelCount {
        row: cur.u16("dna reading row")?,
        col: cur.u16("dna reading col")?,
        count: cur.u64("dna reading count")?,
    };
    cur.finish("dna reading")?;
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
    /// Wire encoding of `kind` (shared with `bsa-link`'s `ChipKind`).
    pub(crate) fn kind_tag(kind: ChipKind) -> u8 {
        match kind {
            ChipKind::Dna => 0,
            ChipKind::Neuro => 1,
        }
    }

    pub(crate) fn kind_from_tag(tag: u8) -> Result<ChipKind, StoreError> {
        match tag {
            0 => Ok(ChipKind::Dna),
            1 => Ok(ChipKind::Neuro),
            tag => Err(StoreError::UnknownKind { tag }),
        }
    }

    /// Serialises the header, CRC trailer included.
    pub(crate) fn encode_header(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_FIXED_LEN + self.spec.len() + 1);
        out.extend_from_slice(SEGMENT_MAGIC);
        out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        out.push(Self::kind_tag(self.kind));
        out.push(0); // flags, reserved
        out.extend_from_slice(&self.chip.to_le_bytes());
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.cols.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&(self.spec.len() as u32).to_le_bytes());
        out.extend_from_slice(self.spec.as_bytes());
        let mut crc = Crc8::new();
        crc.update_bytes(&out);
        out.push(crc.finish());
        out
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
        let mut cur = Cursor::new(body);
        let magic = cur.take(4, "segment header magic")?;
        if magic != SEGMENT_MAGIC {
            return Err(StoreError::BadMagic {
                what: "segment header",
            });
        }
        let version = cur.u16("segment version")?;
        if version != SEGMENT_VERSION {
            return Err(StoreError::UnsupportedVersion { got: version });
        }
        let kind = Self::kind_from_tag(cur.u8("segment kind")?)?;
        let _flags = cur.u8("segment flags")?;
        let chip = cur.u32("segment chip")?;
        let rows = cur.u16("segment rows")?;
        let cols = cur.u16("segment cols")?;
        let config_hash = cur.u64("segment config hash")?;
        let spec_len = cur.u32("segment spec length")? as usize;
        // The header region's size was already pinned by the caller; the
        // stored spec length must account for every remaining byte.
        if spec_len != cur.remaining() {
            return Err(StoreError::InvalidValue {
                what: "segment spec length",
            });
        }
        let spec_bytes = cur.take(spec_len, "segment spec")?;
        let spec = std::str::from_utf8(spec_bytes)
            .map_err(|_| StoreError::BadUtf8)?
            .to_string();
        cur.finish("segment header")?;
        let mut crc = Crc8::new();
        crc.update_bytes(body);
        if crc.finish() != crc_byte {
            return Err(StoreError::BadCrc {
                what: "segment header",
            });
        }
        Ok(Self {
            chip,
            kind,
            rows,
            cols,
            config_hash,
            spec,
        })
    }
}

/// Bounds-checked little-endian slice reader: every primitive read is
/// total, so malformed files surface as typed errors, never panics.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(StoreError::InvalidValue { what })?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| StoreError::Truncated {
                what,
                needed: n as u64,
                available: self.remaining() as u64,
            })?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, StoreError> {
        let slice = self.take(1, what)?;
        slice
            .first()
            .copied()
            .ok_or(StoreError::InvalidValue { what })
    }

    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, StoreError> {
        let slice = self.take(2, what)?;
        let arr: [u8; 2] = slice
            .try_into()
            .map_err(|_| StoreError::InvalidValue { what })?;
        Ok(u16::from_le_bytes(arr))
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, StoreError> {
        let slice = self.take(4, what)?;
        let arr: [u8; 4] = slice
            .try_into()
            .map_err(|_| StoreError::InvalidValue { what })?;
        Ok(u32::from_le_bytes(arr))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, StoreError> {
        let slice = self.take(8, what)?;
        let arr: [u8; 8] = slice
            .try_into()
            .map_err(|_| StoreError::InvalidValue { what })?;
        Ok(u64::from_le_bytes(arr))
    }

    pub(crate) fn finish(&self, what: &'static str) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::InvalidValue { what })
        }
    }
}

impl std::fmt::Debug for Cursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field("len", &self.bytes.len())
            .field("pos", &self.pos)
            .finish()
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
