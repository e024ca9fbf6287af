//! The chip's 6-pin serial digital interface.
//!
//! "…and 6 pin interface for power supply and serial digital data
//! transmission" (paper Section 2). Two pins power the chip (VDD, GND);
//! clock, data-in, data-out and reset carry the digital traffic. Readout
//! data leaves the chip as fixed-format serial words; this module encodes
//! pixel readings to the bit stream and decodes them back, detecting
//! corrupted frames via a CRC-8 word check.
//!
//! Two decoders are provided: [`decode_frames`] aborts on the first bad
//! word (the strict electrical-test mode), while [`decode_frames_lenient`]
//! reports every word's individual verdict so a fault-tolerant host can
//! re-request only the corrupt words (see `DnaChip::serial_readout_robust`
//! in [`super::chip`]).

use crate::array::PixelAddress;
use bsa_circuit::digital::{Deserializer, ShiftRegister};
use bsa_link::crc::Crc8;
use std::error::Error;
use std::fmt;

/// Number of package pins: VDD, GND, CLK, DIN, DOUT, RST.
pub const PIN_COUNT: usize = 6;

/// Sync byte opening every serial word.
const SYNC: u8 = 0xA5;

/// Serial word width: sync(8) + row(8) + col(8) + count(24) + CRC(8).
pub const WORD_BITS: u8 = 56;

/// One pixel reading as transmitted over the serial link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelReading {
    /// Pixel address.
    pub address: PixelAddress,
    /// Frame count (24-bit payload on the wire).
    pub count: u64,
}

/// Serial decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SerialError {
    /// A word did not start with the sync byte.
    BadSync {
        /// Offending byte value.
        got: u8,
    },
    /// Word checksum mismatch.
    BadChecksum {
        /// Index of the corrupt word.
        word_index: usize,
    },
    /// The stream ended mid-word.
    Truncated {
        /// Bits left over.
        leftover_bits: usize,
    },
}

impl fmt::Display for SerialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadSync { got } => write!(f, "expected sync byte 0xA5, got {got:#04x}"),
            Self::BadChecksum { word_index } => {
                write!(f, "checksum mismatch in serial word {word_index}")
            }
            Self::Truncated { leftover_bits } => {
                write!(
                    f,
                    "serial stream truncated with {leftover_bits} leftover bits"
                )
            }
        }
    }
}

impl Error for SerialError {}

fn pack(reading: &PixelReading) -> u64 {
    let row = (reading.address.row as u64) & 0xFF;
    let col = (reading.address.col as u64) & 0xFF;
    let count = reading.count.min(0xFF_FFFF);
    let body = ((SYNC as u64) << 40) | (row << 32) | (col << 24) | count;
    let checksum = checksum_of(body);
    (body << 8) | checksum as u64
}

fn checksum_of(body: u64) -> u8 {
    // CRC-8 (poly 0x07, init 0x00) over the six body bytes, MSB first.
    // Unlike a byte-XOR parity it catches all 2-bit errors within a word
    // and all burst errors up to 8 bits. The generator lives in
    // `bsa_link::crc` so the chip serial link and the host wire protocol
    // share one implementation.
    let mut crc = Crc8::new();
    for k in (0..6).rev() {
        crc.update(((body >> (8 * k)) & 0xFF) as u8);
    }
    crc.finish()
}

/// Encodes pixel readings into the serial bit stream (MSB-first), exactly
/// as the on-chip shift register clocks them out of the DOUT pin.
pub fn encode_frames(readings: &[PixelReading]) -> Vec<bool> {
    let mut sr = ShiftRegister::new();
    for r in readings {
        sr.load_word(pack(r), WORD_BITS);
    }
    sr.drain_all()
}

/// Validates and unpacks one 56-bit serial word.
fn unpack(word: u64, word_index: usize) -> Result<PixelReading, SerialError> {
    let body = word >> 8;
    let checksum = (word & 0xFF) as u8;
    let sync = ((body >> 40) & 0xFF) as u8;
    if sync != SYNC {
        return Err(SerialError::BadSync { got: sync });
    }
    if checksum_of(body) != checksum {
        return Err(SerialError::BadChecksum { word_index });
    }
    let row = ((body >> 32) & 0xFF) as usize;
    let col = ((body >> 24) & 0xFF) as usize;
    let count = body & 0xFF_FFFF;
    Ok(PixelReading {
        address: PixelAddress::new(row, col),
        count,
    })
}

/// Decodes a serial bit stream back into pixel readings.
///
/// # Errors
///
/// Returns [`SerialError`] if a word lacks the sync byte, fails its
/// checksum, or the stream ends mid-word.
pub fn decode_frames(bits: &[bool]) -> Result<Vec<PixelReading>, SerialError> {
    let mut de = Deserializer::new();
    let mut out = Vec::new();
    for bit in bits {
        if let Some(word) = de.push(*bit, WORD_BITS) {
            out.push(unpack(word, out.len())?);
        }
    }
    let leftover = de.pending_bits();
    if leftover != 0 {
        return Err(SerialError::Truncated {
            leftover_bits: leftover as usize,
        });
    }
    Ok(out)
}

/// Decodes a serial bit stream word by word, reporting each word's
/// verdict instead of aborting at the first corruption. Trailing bits
/// that do not fill a word are reported as one final
/// [`SerialError::Truncated`] entry.
///
/// The returned vector has one entry per transmitted word, in order, so
/// a host can re-request exactly the failed positions.
pub fn decode_frames_lenient(bits: &[bool]) -> Vec<Result<PixelReading, SerialError>> {
    let mut de = Deserializer::new();
    let mut out = Vec::new();
    for bit in bits {
        if let Some(word) = de.push(*bit, WORD_BITS) {
            out.push(unpack(word, out.len()));
        }
    }
    let leftover = de.pending_bits();
    if leftover != 0 {
        out.push(Err(SerialError::Truncated {
            leftover_bits: leftover as usize,
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_readings() -> Vec<PixelReading> {
        vec![
            PixelReading {
                address: PixelAddress::new(0, 0),
                count: 0,
            },
            PixelReading {
                address: PixelAddress::new(7, 15),
                count: 123_456,
            },
            PixelReading {
                address: PixelAddress::new(3, 9),
                count: 0xFF_FFFF,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_readings() {
        let readings = sample_readings();
        let bits = encode_frames(&readings);
        assert_eq!(bits.len(), readings.len() * WORD_BITS as usize);
        let decoded = decode_frames(&bits).unwrap();
        assert_eq!(decoded, readings);
    }

    #[test]
    fn empty_stream_decodes_to_nothing() {
        assert_eq!(decode_frames(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn counts_above_24_bits_saturate_on_the_wire() {
        let r = [PixelReading {
            address: PixelAddress::new(1, 1),
            count: u64::MAX,
        }];
        let decoded = decode_frames(&encode_frames(&r)).unwrap();
        assert_eq!(decoded[0].count, 0xFF_FFFF);
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let readings = sample_readings();
        let mut bits = encode_frames(&readings);
        // Flip a bit inside the second word's count field.
        let idx = WORD_BITS as usize + 30;
        bits[idx] = !bits[idx];
        match decode_frames(&bits) {
            Err(SerialError::BadChecksum { word_index }) => assert_eq!(word_index, 1),
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_sync_detected() {
        let readings = sample_readings();
        let mut bits = encode_frames(&readings);
        // Flip the first bit of the sync byte of word 0.
        bits[0] = !bits[0];
        assert!(matches!(
            decode_frames(&bits),
            Err(SerialError::BadSync { .. })
        ));
    }

    #[test]
    fn truncated_stream_detected() {
        let readings = sample_readings();
        let mut bits = encode_frames(&readings);
        bits.truncate(bits.len() - 5);
        match decode_frames(&bits) {
            Err(SerialError::Truncated { leftover_bits }) => {
                assert_eq!(leftover_bits, WORD_BITS as usize - 5)
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let e = SerialError::BadSync { got: 0x12 };
        assert!(e.to_string().contains("0x12"));
    }

    #[test]
    fn full_array_readout_is_one_continuous_stream() {
        let geometry = crate::array::ArrayGeometry::dna_16x8();
        let readings: Vec<PixelReading> = geometry
            .iter()
            .enumerate()
            .map(|(i, address)| PixelReading {
                address,
                count: i as u64 * 1000,
            })
            .collect();
        let decoded = decode_frames(&encode_frames(&readings)).unwrap();
        assert_eq!(decoded.len(), 128);
        assert_eq!(decoded, readings);
    }
}
