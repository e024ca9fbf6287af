//! Panic-free little-endian cursor primitives used by the message codec.
//!
//! `Reader` never indexes past the buffer: every access goes through
//! `take`, which returns [`ProtocolError::Truncated`] instead of slicing
//! out of bounds. `Writer` is a thin `Vec<u8>` builder. Sample blocks
//! go through the bulk codec in [`crate::samples`].

use crate::error::ProtocolError;
use crate::samples::{decode_samples, encode_samples, SAMPLE_LEN};

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let truncated = ProtocolError::Truncated {
            needed: n,
            available: self.remaining(),
        };
        let end = self.pos.checked_add(n).ok_or(truncated)?;
        match self.buf.get(self.pos..end) {
            Some(slice) => {
                self.pos = end;
                Ok(slice)
            }
            None => Err(ProtocolError::Truncated {
                needed: n,
                available: self.remaining(),
            }),
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtocolError> {
        let bytes = self.take(1)?;
        bytes.first().copied().ok_or(ProtocolError::Truncated {
            needed: 1,
            available: 0,
        })
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ProtocolError> {
        let bytes = self.take(2)?;
        let arr: [u8; 2] = bytes
            .try_into()
            .map_err(|_| ProtocolError::InvalidValue { what: "u16" })?;
        Ok(u16::from_le_bytes(arr))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtocolError> {
        let bytes = self.take(4)?;
        let arr: [u8; 4] = bytes
            .try_into()
            .map_err(|_| ProtocolError::InvalidValue { what: "u32" })?;
        Ok(u32::from_le_bytes(arr))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtocolError> {
        let bytes = self.take(8)?;
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| ProtocolError::InvalidValue { what: "u64" })?;
        Ok(u64::from_le_bytes(arr))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` samples encoded back to back by [`Writer::f64s`].
    pub(crate) fn f64s(&mut self, n: usize) -> Result<Vec<f64>, ProtocolError> {
        // A saturated length cannot fit the buffer, so `take` rejects it.
        let block = self.take(n.saturating_mul(SAMPLE_LEN))?;
        let mut samples = Vec::new();
        decode_samples(block, &mut samples)?;
        Ok(samples)
    }

    pub(crate) fn bool(&mut self) -> Result<bool, ProtocolError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtocolError::InvalidValue { what: "bool" }),
        }
    }

    /// Length-prefixed UTF-8 string (u32 length, then bytes).
    pub(crate) fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    /// Reads a u32 element count and validates it against the bytes left
    /// in the buffer, so a corrupted count cannot trigger a huge
    /// allocation. `min_elem_bytes` is the smallest possible encoding of
    /// one element (use 1 for variable-size elements).
    pub(crate) fn count(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(ProtocolError::InvalidValue { what });
        }
        Ok(n)
    }

    /// Errors with [`ProtocolError::TrailingBytes`] if input remains.
    pub(crate) fn finish(&self) -> Result<(), ProtocolError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(ProtocolError::TrailingBytes { count }),
        }
    }
}

#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer with room for `capacity` bytes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends `n` zero bytes.
    pub(crate) fn zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes every sample of `samples` back to back (no count prefix).
    pub(crate) fn f64s(&mut self, samples: &[f64]) {
        encode_samples(samples, &mut self.buf);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn string(&mut self, s: &str) {
        // Strings on this protocol are probe sequences and status text;
        // a >4 GiB string is a caller bug, not a wire condition.
        debug_assert!(s.len() <= u32::MAX as usize);
        let bytes = s.as_bytes();
        let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX) as usize;
        self.u32(len as u32);
        self.buf
            .extend_from_slice(bytes.get(..len).unwrap_or(bytes));
    }

    pub(crate) fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::default();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.f64(-2.5);
        w.bool(true);
        w.string("ACGT");
        w.f64s(&[0.5, -0.0]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "ACGT");
        assert_eq!(r.f64s(2).unwrap(), [0.5, -0.0]);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[0x01, 0x02]);
        assert!(matches!(r.u32(), Err(ProtocolError::Truncated { .. })));
        let mut r = Reader::new(&[0u8; 15]);
        assert!(matches!(r.f64s(2), Err(ProtocolError::Truncated { .. })));
        assert!(matches!(
            r.f64s(usize::MAX),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_count_rejected_before_allocation() {
        let mut w = Writer::default();
        w.u32(u32::MAX); // claims 4 billion elements in an empty buffer
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.count(8, "samples"),
            Err(ProtocolError::InvalidValue { .. })
        ));
    }

    #[test]
    fn bad_bool_rejected() {
        let mut r = Reader::new(&[7]);
        assert!(matches!(r.bool(), Err(ProtocolError::InvalidValue { .. })));
    }

    #[test]
    fn trailing_bytes_reported() {
        let r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.finish(),
            Err(ProtocolError::TrailingBytes { count: 3 })
        ));
    }
}
