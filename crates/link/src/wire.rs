//! The one statement of how a value sits in bytes: integers
//! little-endian, `f64` as its raw IEEE-754 bits, `bool` as one byte,
//! strings and sequences behind a `u32` count. The message codec, the
//! `bsa-store` segment header, records and footer, and the station's
//! reply limits all read the layout from here.
//!
//! [`Reader`] never indexes past the buffer: every read splits the
//! remaining slice and returns [`ProtocolError::Truncated`] when it is
//! too short. Every count-prefixed field goes through [`Reader::seq`],
//! which checks the count against the bytes left at [`Codec::MIN_LEN`]
//! per element before it allocates. `f64` sequences go through the bulk
//! codec in [`crate::samples`].

use crate::crc::crc8;
use crate::error::ProtocolError;
use crate::samples::{decode_samples, encode_samples, SAMPLE_LEN};

/// A value type whose byte layout this module states.
pub trait Codec: Sized {
    /// Fewest bytes one encoded value occupies (its size, when fixed).
    const MIN_LEN: usize;

    /// Appends the value's bytes.
    fn encode(&self, w: &mut Writer);

    /// Reads one value.
    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError>;

    /// Appends every value of `items`, back to back.
    fn encode_all(items: &[Self], w: &mut Writer) {
        for item in items {
            item.encode(w);
        }
    }

    /// Appends `n` values read back to back to `out`.
    fn decode_n(r: &mut Reader<'_>, n: usize, out: &mut Vec<Self>) -> Result<(), ProtocolError> {
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(())
    }
}

/// Bytes of the `u32` count in front of a string or a sequence.
pub(crate) const COUNT_LEN: usize = u32::MIN_LEN;

/// How a field of a `bsa_link::message` type sits in bytes: a [`Codec`]
/// value as itself, a `Vec` of one as a count-prefixed sequence.
pub(crate) trait Field: Sized {
    /// Fewest bytes the field occupies.
    const MIN_BYTES: usize;

    /// Appends the field's bytes.
    fn write(&self, w: &mut Writer);

    /// Reads the field; `what` names it in a count error.
    fn read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ProtocolError>;
}

impl<T: Codec> Field for T {
    const MIN_BYTES: usize = T::MIN_LEN;

    fn write(&self, w: &mut Writer) {
        self.encode(w);
    }

    fn read(r: &mut Reader<'_>, _: &'static str) -> Result<Self, ProtocolError> {
        T::decode(r)
    }
}

impl<T: Codec> Field for Vec<T> {
    const MIN_BYTES: usize = COUNT_LEN;

    fn write(&self, w: &mut Writer) {
        w.seq(self);
    }

    fn read(r: &mut Reader<'_>, what: &'static str) -> Result<Self, ProtocolError> {
        r.seq(what)
    }
}

macro_rules! int_codec {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn encode(&self, w: &mut Writer) {
                w.$t(*self);
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
                r.$t()
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64);

/// Samples travel as one block through [`crate::samples`].
impl Codec for f64 {
    const MIN_LEN: usize = SAMPLE_LEN;

    fn encode(&self, w: &mut Writer) {
        w.f64(*self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        r.f64()
    }

    fn encode_all(items: &[Self], w: &mut Writer) {
        encode_samples(items, &mut w.buf);
    }

    fn decode_n(r: &mut Reader<'_>, n: usize, out: &mut Vec<Self>) -> Result<(), ProtocolError> {
        // A saturated length cannot fit the buffer, so `bytes` rejects it.
        decode_samples(r.bytes(n.saturating_mul(SAMPLE_LEN))?, out)
    }
}

impl Codec for bool {
    const MIN_LEN: usize = u8::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        w.bool(*self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        r.bool()
    }
}

impl Codec for String {
    const MIN_LEN: usize = COUNT_LEN;

    fn encode(&self, w: &mut Writer) {
        w.string(self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        r.string()
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Reader over all of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Bytes not yet read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, as they are.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(ProtocolError::Truncated {
                needed: n,
                available: self.rest.len(),
            })?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array: the one read under every integer.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(ProtocolError::Truncated {
                needed: N,
                available: self.rest.len(),
            })?;
        self.rest = rest;
        Ok(*head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, ProtocolError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ProtocolError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtocolError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtocolError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, ProtocolError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a `bool`: one byte, 0 or 1.
    pub fn bool(&mut self) -> Result<bool, ProtocolError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtocolError::InvalidValue { what: "bool" }),
        }
    }

    /// Reads a length-prefixed UTF-8 string (`u32` length, then bytes).
    pub fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    /// Reads a `u32` element count and validates it against the bytes
    /// left, so a corrupted count cannot trigger a huge allocation.
    fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(ProtocolError::InvalidValue { what });
        }
        Ok(n)
    }

    /// Reads a count-prefixed sequence. A count that the bytes left
    /// cannot hold at [`Codec::MIN_LEN`] each is
    /// [`ProtocolError::InvalidValue`] for `what`, before any allocation.
    pub fn seq<T: Codec>(&mut self, what: &'static str) -> Result<Vec<T>, ProtocolError> {
        let n = self.count(T::MIN_LEN, what)?;
        let mut out = Vec::with_capacity(n);
        T::decode_n(self, n, &mut out)?;
        Ok(out)
    }

    /// Errors with [`ProtocolError::TrailingBytes`] if input remains.
    pub fn finish(&self) -> Result<(), ProtocolError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(ProtocolError::TrailingBytes { count }),
        }
    }
}

/// Little-endian writer into a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer with room for `capacity` bytes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Everything written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The written bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Drops everything written, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends `n` zero bytes.
    pub(crate) fn zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Appends `bytes` as they are.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f64`'s raw IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte, 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        // Strings on this protocol are probe sequences and status text;
        // a >4 GiB string is a caller bug, not a wire condition.
        debug_assert!(s.len() <= u32::MAX as usize);
        let bytes = s.as_bytes();
        let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX) as usize;
        self.u32(len as u32);
        self.bytes(bytes.get(..len).unwrap_or(bytes));
    }

    /// Appends `items` behind their `u32` count.
    pub fn seq<T: Codec>(&mut self, items: &[T]) {
        self.u32(u32::try_from(items.len()).unwrap_or(u32::MAX));
        T::encode_all(items, self);
    }

    /// Appends the CRC-8 of every byte written so far.
    pub fn crc8(&mut self) {
        self.u8(crc8(&self.buf));
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
        w.seq(&[0.5, -0.0]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "ACGT");
        assert_eq!(r.seq::<f64>("samples").unwrap(), [0.5, -0.0]);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[0x01, 0x02]);
        assert!(matches!(r.u32(), Err(ProtocolError::Truncated { .. })));
        let mut r = Reader::new(&[0u8; 15]);
        let mut out = Vec::new();
        assert!(matches!(
            f64::decode_n(&mut r, 2, &mut out),
            Err(ProtocolError::Truncated { .. })
        ));
        assert!(matches!(
            f64::decode_n(&mut r, usize::MAX, &mut out),
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
            r.seq::<f64>("samples"),
            Err(ProtocolError::InvalidValue { what: "samples" })
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
