//! CRC-8 with polynomial 0x07, the single checksum shared by the chip
//! serial link (`bsa-core::dna_chip::interface`, 56-bit words) and the
//! host wire protocol (frame trailer).
//!
//! Parameters: polynomial x⁸+x²+x+1 (0x07), initial value 0x00, MSB-first,
//! no reflection, no final XOR — the same generator the paper's serial
//! interface uses to protect count words.
//!
//! CRC-8 detects every single-byte corruption (any burst up to 8 bits),
//! which is the property the corruption tests in `crates/link/tests/`
//! exercise exhaustively.
//!
//! # Slice-by-8
//!
//! The checksum is linear over GF(2), so folding eight bytes `b0..b7` into
//! the state `c` splits into eight independent lookups:
//!
//! ```text
//! c' = T[7][c ^ b0] ^ T[6][b1] ^ T[5][b2] ^ … ^ T[1][b6] ^ T[0][b7]
//! ```
//!
//! where `T[k][x]` is the CRC of byte `x` followed by `k` zero bytes.
//! `T[0]` is the classic one-byte table; `T[k]` is `T[0]` applied to
//! `T[k-1]`. The eight tables (2 KiB) are built at compile time. Only the
//! `T[7]` lookup depends on the previous state, so each 8-byte step costs
//! one dependent load instead of eight; a 1–7 byte tail folds through
//! `T[0]` a byte at a time. Every checksum equals the bit-serial
//! definition, which the link test suite keeps as its oracle.

/// Generator polynomial x⁸ + x² + x + 1.
pub const CRC8_POLY: u8 = 0x07;

/// `TABLES[k][x]`: CRC of byte `x` followed by `k` zero bytes.
const TABLES: [[u8; 256]; 8] = build_tables();

/// CRC of the single byte `byte`, MSB first (the bit-serial definition).
const fn crc_of_byte(byte: u8) -> u8 {
    let mut crc = byte;
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 0x80 != 0 {
            (crc << 1) ^ CRC8_POLY
        } else {
            crc << 1
        };
        bit += 1;
    }
    crc
}

/// Feeding a zero byte from state `s` gives `crc_of_byte(s)`, so
/// `T[k][x]` is `crc_of_byte` applied `k + 1` times to `x`.
const fn build_tables() -> [[u8; 256]; 8] {
    let mut tables = [[0u8; 256]; 8];
    let mut rows: &mut [[u8; 256]] = &mut tables;
    let mut zeros = 0;
    while let [row, rest @ ..] = rows {
        let mut slots: &mut [u8] = row;
        let mut x: u8 = 0;
        while let [slot, tail @ ..] = slots {
            let mut crc = crc_of_byte(x);
            let mut k = 0;
            while k < zeros {
                crc = crc_of_byte(crc);
                k += 1;
            }
            *slot = crc;
            x = x.wrapping_add(1);
            slots = tail;
        }
        zeros += 1;
        rows = rest;
    }
    tables
}

/// Table lookup without a panic path (`u8` always indexes a 256-table).
#[inline(always)]
fn lut(table: &[u8; 256], index: u8) -> u8 {
    table.get(usize::from(index)).copied().unwrap_or(0)
}

/// Streaming CRC-8 state, for callers that feed bytes incrementally
/// (e.g. framing code hashing a header and a payload held in separate
/// buffers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc8 {
    state: u8,
}

impl Crc8 {
    /// Fresh state (initial value 0x00).
    #[must_use]
    pub const fn new() -> Self {
        Self { state: 0 }
    }

    /// Folds one byte into the state, MSB first.
    pub fn update(&mut self, byte: u8) {
        let [t0, ..] = &TABLES;
        self.state = lut(t0, self.state ^ byte);
    }

    /// Folds a byte slice into the state, eight bytes per step.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let Ok([b0, b1, b2, b3, b4, b5, b6, b7]) = <[u8; 8]>::try_from(chunk) else {
                continue;
            };
            crc = lut(t7, crc ^ b0)
                ^ lut(t6, b1)
                ^ lut(t5, b2)
                ^ lut(t4, b3)
                ^ lut(t3, b4)
                ^ lut(t2, b5)
                ^ lut(t1, b6)
                ^ lut(t0, b7);
        }
        for &b in chunks.remainder() {
            crc = lut(t0, crc ^ b);
        }
        self.state = crc;
    }

    /// Returns the checksum of everything fed so far.
    #[must_use]
    pub const fn finish(self) -> u8 {
        self.state
    }
}

/// One-shot CRC-8 over a byte slice.
#[must_use]
pub fn crc8(bytes: &[u8]) -> u8 {
    let mut crc = Crc8::new();
    crc.update_bytes(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard CRC-8/SMBUS-style check value for "123456789" with
        // poly 0x07, init 0x00, no reflect, no xorout is 0xF4.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0x00);
        assert_eq!(crc8(&[0x00]), 0x00);
        assert_eq!(crc8(&[0x01]), 0x07);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"the quick brown fox";
        let (a, b) = data.split_at(7);
        let mut crc = Crc8::new();
        crc.update_bytes(a);
        crc.update_bytes(b);
        assert_eq!(crc.finish(), crc8(data));
    }

    #[test]
    fn detects_every_single_byte_flip() {
        let data: Vec<u8> = (0u8..64).collect();
        let clean = crc8(&data);
        for i in 0..data.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = data.clone();
                if let Some(byte) = corrupt.get_mut(i) {
                    *byte ^= mask;
                }
                assert_ne!(crc8(&corrupt), clean, "flip at {i} mask {mask:#x}");
            }
        }
    }
}
