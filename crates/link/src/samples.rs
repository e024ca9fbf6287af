//! Bulk codec for blocks of `f64` samples: each sample travels as its raw
//! IEEE-754 bits, little-endian, eight bytes per sample.
//!
//! This is the one definition of the sample format. The wire's
//! `NeuroFrames` chunks and `bsa-store`'s neuro frame records both call
//! it, so a replayed frame is `f64::to_bits`-identical to the recorded one
//! (NaN payloads, signed zeros and subnormals included).

use crate::error::ProtocolError;

/// Bytes one encoded sample occupies.
pub const SAMPLE_LEN: usize = 8;

/// Appends `samples` to `out` as raw little-endian IEEE-754 bits.
pub fn encode_samples(samples: &[f64], out: &mut Vec<u8>) {
    out.reserve(samples.len() * SAMPLE_LEN);
    out.extend(samples.iter().flat_map(|s| s.to_le_bytes()));
}

/// Appends the samples encoded in `bytes` to `out`, bit-exact.
///
/// A block whose length is not a whole number of samples is rejected
/// before `out` is touched.
pub fn decode_samples(bytes: &[u8], out: &mut Vec<f64>) -> Result<(), ProtocolError> {
    if !bytes.len().is_multiple_of(SAMPLE_LEN) {
        return Err(ProtocolError::InvalidValue {
            what: "f64 sample block length",
        });
    }
    out.extend(
        bytes.chunks_exact(SAMPLE_LEN).map(|chunk| {
            f64::from_le_bytes(<[u8; SAMPLE_LEN]>::try_from(chunk).unwrap_or_default())
        }),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_raw_little_endian_bits() {
        let mut out = vec![0xAA];
        encode_samples(&[1.0, -0.0], &mut out);
        assert_eq!(
            out,
            [0xAA, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0x80]
        );
        let mut back = vec![7.0];
        decode_samples(out.get(1..).unwrap(), &mut back).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(2).map(|s| s.to_bits()), Some((-0.0f64).to_bits()));
    }

    #[test]
    fn ragged_block_rejected_untouched() {
        let mut out = vec![1.0];
        assert!(matches!(
            decode_samples(&[0u8; 15], &mut out),
            Err(ProtocolError::InvalidValue { .. })
        ));
        assert_eq!(out, [1.0]);
    }
}
