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
//! # Folding on the generator's period
//!
//! The checksum of a message `M` is `M(x)·x⁸ mod P`, with
//! `P = x⁸+x²+x+1 = (x+1)(x⁷+x⁶+x⁵+x⁴+x³+x²+1)`. The degree-7 factor is
//! primitive, so the order of `x` modulo `P` is 127 and `x^(8·127) ≡ 1`:
//! moving a byte 127 positions earlier or later leaves the residue
//! unchanged. With init 0 and no final XOR, the CRC of `M` therefore
//! equals the CRC of the 127 bytes obtained by cutting `M` into 127-byte
//! blocks aligned to its *end* and XOR-ing them together. An input longer
//! than 127 bytes costs one plain XOR pass, which the compiler
//! vectorizes, plus 127 lookups in the one-byte table `T[x]` (the CRC of
//! byte `x`); shorter inputs use `T` a byte at a time. The running state
//! enters the fold at the byte the input's first byte lands on, exactly
//! as the byte loop XORs it into the next byte. Every checksum equals the
//! bit-serial definition, which the link test suite keeps as its oracle.
//!
//! The same identity means two identical flips 127 bytes apart cancel.
//! That is a property of this generator at any speed — every CRC with
//! this polynomial misses them — not something the fold introduces.

/// Generator polynomial x⁸ + x² + x + 1.
pub const CRC8_POLY: u8 = 0x07;

/// Order of x modulo the generator, in bytes: shifting a byte by this
/// many positions leaves the checksum unchanged.
const PERIOD: usize = 127;

/// `TABLE[x]`: CRC of the single byte `x`, MSB first (the bit-serial
/// definition), built at compile time.
const TABLE: [u8; 256] = build_table();

const fn build_table() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut slots: &mut [u8] = &mut table;
    let mut x: u8 = 0;
    while let [slot, tail @ ..] = slots {
        let mut crc = x;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ CRC8_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        *slot = crc;
        x = x.wrapping_add(1);
        slots = tail;
    }
    table
}

/// Folds `bytes` into `crc` one table lookup per byte.
fn fold_bytes(crc: u8, bytes: &[u8]) -> u8 {
    bytes.iter().fold(crc, |crc, &b| {
        // A `u8` always indexes the 256-entry table.
        TABLE.get(usize::from(crc ^ b)).copied().unwrap_or(0)
    })
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
        self.state = fold_bytes(self.state, &[byte]);
    }

    /// Folds a byte slice into the state: a byte at a time up to 127
    /// bytes, by XOR-folding on the generator's period beyond.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        if bytes.len() <= PERIOD {
            self.state = fold_bytes(self.state, bytes);
            return;
        }
        // Blocks align to the input's end, so the partial head block
        // lands right-aligned: its first byte, the input's first, sits at
        // `start`, and the running state enters there as the byte loop
        // would XOR it in.
        let (head, blocks) = bytes.split_at(bytes.len() % PERIOD);
        let start = (PERIOD - head.len()) % PERIOD;
        let mut acc = [0u8; PERIOD];
        let (_, tail) = acc.split_at_mut(start);
        if let Some(first) = tail.first_mut() {
            *first = self.state;
        }
        for (a, b) in tail.iter_mut().zip(head) {
            *a ^= b;
        }
        for block in blocks.chunks_exact(PERIOD) {
            for (a, b) in acc.iter_mut().zip(block) {
                *a ^= b;
            }
        }
        self.state = fold_bytes(0, &acc);
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
        // 300 bytes span two fold periods and a partial head, so flips
        // land in the head, in both full blocks and on every boundary.
        let data: Vec<u8> = (0..300u16).map(|i| (i * 37 % 251) as u8).collect();
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

    #[test]
    fn appending_127_zero_bytes_leaves_the_crc_unchanged() {
        let long: Vec<u8> = (0..=200u8).collect();
        for data in [&b"123456789"[..], &[0x01], &long] {
            let mut padded = data.to_vec();
            padded.resize(data.len() + PERIOD, 0);
            assert_eq!(crc8(&padded), crc8(data), "{} bytes", data.len());
        }
        // 127 is the shortest such shift: x has order 127 modulo P.
        for zeros in 1..PERIOD {
            let mut padded = vec![0x01];
            padded.resize(1 + zeros, 0);
            assert_ne!(crc8(&padded), crc8(&[0x01]), "{zeros} zero bytes");
        }
    }
}
