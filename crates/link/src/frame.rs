//! Length-prefixed framing with a CRC-8 trailer.
//!
//! ```text
//! offset  0        2        3        7                 7+LEN
//!         +--------+--------+--------+-----------------+-------+
//!         | MAGIC  | VER    | LEN LE | PAYLOAD         | CRC-8 |
//!         | B5 A1  | 01     | 4 B    | LEN bytes       | 1 B   |
//!         +--------+--------+--------+-----------------+-------+
//! ```
//!
//! The CRC covers every byte before it (magic, version, length and
//! payload), so any single corrupted byte — including in the header —
//! is rejected. Decode order is magic → version → length bounds → CRC →
//! payload parse; each failure is a distinct [`ProtocolError`].

use crate::crc::{crc8, Crc8};
use crate::error::ProtocolError;
use crate::message::Message;
use std::io::{Read, Write};

/// Frame preamble: distinguishes protocol traffic from stray bytes.
pub const MAGIC: [u8; 2] = [0xB5, 0xA1];

/// Wire protocol version this build encodes and accepts.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size: magic (2) + version (1) + length (4).
pub const HEADER_LEN: usize = 7;

/// Bytes a frame adds around its payload (header + CRC trailer).
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 1;

/// Upper bound on the declared payload length (16 MiB), far above the
/// largest legitimate message but small enough that a corrupted length
/// field cannot demand an absurd allocation.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// Hard cap on any frame-sized buffer allocation: the largest whole
/// frame body (maximal payload plus CRC trailer), checked explicitly
/// before `read_message` allocates. Guarantees `len + 1` cannot
/// overflow for any length that passes the bound checks.
pub const MAX_FRAME_LEN: usize = MAX_PAYLOAD + FRAME_OVERHEAD;

/// Encodes a message into one complete frame.
///
/// The frame is built in the payload's own buffer, which
/// [`Message::encode_payload`] sizes for the header and trailer too: the
/// payload shifts up by [`HEADER_LEN`] in place, the header fills the gap
/// and the CRC is appended, with no further allocation.
#[must_use]
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut frame = msg.encode_payload();
    let len = frame.len();
    // No legitimate message approaches MAX_PAYLOAD (the largest stream
    // chunk is bounded by the station's chunking policy); this is a
    // caller-bug guard, not a wire condition.
    assert!(len <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
    let [m0, m1] = MAGIC;
    let [l0, l1, l2, l3] = (len as u32).to_le_bytes();
    frame.splice(..0, [m0, m1, PROTOCOL_VERSION, l0, l1, l2, l3]);
    frame.push(crc8(&frame));
    frame
}

/// Decodes exactly one frame occupying the whole buffer. Trailing bytes
/// after the frame are an error; use [`decode_frame_prefix`] to consume
/// frames from a longer buffer.
pub fn decode_frame(buf: &[u8]) -> Result<Message, ProtocolError> {
    let (msg, consumed) = decode_frame_prefix(buf)?;
    match buf.len().saturating_sub(consumed) {
        0 => Ok(msg),
        count => Err(ProtocolError::TrailingBytes { count }),
    }
}

/// Decodes one frame from the front of `buf`, returning the message and
/// the number of bytes consumed.
pub fn decode_frame_prefix(buf: &[u8]) -> Result<(Message, usize), ProtocolError> {
    let header = buf.get(..HEADER_LEN).ok_or(ProtocolError::Truncated {
        needed: HEADER_LEN,
        available: buf.len(),
    })?;
    let (magic, rest) = header.split_at(2);
    if magic != MAGIC {
        let mut got = [0u8; 2];
        got.copy_from_slice(magic);
        return Err(ProtocolError::BadMagic { got });
    }
    let (version, len_bytes) = rest.split_at(1);
    if version != [PROTOCOL_VERSION] {
        return Err(ProtocolError::UnsupportedVersion {
            got: version.first().copied().unwrap_or(0),
        });
    }
    let mut len_arr = [0u8; 4];
    len_arr.copy_from_slice(len_bytes);
    let len = u32::from_le_bytes(len_arr) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    let total = HEADER_LEN + len + 1;
    let frame = buf.get(..total).ok_or(ProtocolError::Truncated {
        needed: total,
        available: buf.len(),
    })?;
    let (body, crc_byte) = frame.split_at(total - 1);
    let got = crc_byte.first().copied().unwrap_or(0);
    let expected = crc8(body);
    if expected != got {
        return Err(ProtocolError::BadCrc { expected, got });
    }
    let payload = body.get(HEADER_LEN..).unwrap_or(&[]);
    let msg = Message::decode_payload(payload)?;
    Ok((msg, total))
}

/// Writes one framed message to a byte sink, returning the frame size.
pub fn write_message<W: Write>(writer: &mut W, msg: &Message) -> Result<usize, ProtocolError> {
    let frame = encode_frame(msg);
    writer.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one framed message from a byte source.
///
/// Blocks until a full frame arrives; transport failures (including a
/// clean EOF mid-frame) surface as [`ProtocolError::Io`], corruption as
/// the corresponding decode variant.
pub fn read_message<R: Read>(reader: &mut R) -> Result<Message, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    let (magic, rest) = header.split_at(2);
    if magic != MAGIC {
        let mut got = [0u8; 2];
        got.copy_from_slice(magic);
        return Err(ProtocolError::BadMagic { got });
    }
    let (version, len_bytes) = rest.split_at(1);
    if version != [PROTOCOL_VERSION] {
        return Err(ProtocolError::UnsupportedVersion {
            got: version.first().copied().unwrap_or(0),
        });
    }
    let mut len_arr = [0u8; 4];
    len_arr.copy_from_slice(len_bytes);
    let len = u32::from_le_bytes(len_arr) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    // `len ≤ MAX_PAYLOAD`, so `len + 1` (payload + CRC trailer) cannot
    // overflow; the explicit cap keeps the allocation provably below
    // MAX_FRAME_LEN even if the bounds above ever drift.
    let body_len = len + 1;
    if body_len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    let mut rest_buf = vec![0u8; body_len];
    reader.read_exact(&mut rest_buf)?;
    let (payload, crc_byte) = rest_buf.split_at(len);
    let got = crc_byte.first().copied().unwrap_or(0);
    let mut crc = Crc8::new();
    crc.update_bytes(&header);
    crc.update_bytes(payload);
    let expected = crc.finish();
    if expected != got {
        return Err(ProtocolError::BadCrc { expected, got });
    }
    Message::decode_payload(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let msg = Message::Ping { token: 0xFEED };
        let frame = encode_frame(&msg);
        assert_eq!(decode_frame(&frame).unwrap(), msg);
    }

    #[test]
    fn stream_roundtrip() {
        let msgs = vec![
            Message::Hello { client: "t".into() },
            Message::QueryStats,
            Message::Pong { token: 9 },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for m in &msgs {
            assert_eq!(&read_message(&mut cursor).unwrap(), m);
        }
        // EOF after the last frame surfaces as Io.
        assert!(matches!(
            read_message(&mut cursor),
            Err(ProtocolError::Io(_))
        ));
    }

    #[test]
    fn prefix_decoding_consumes_one_frame() {
        let a = encode_frame(&Message::Ack);
        let b = encode_frame(&Message::Ping { token: 1 });
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let (msg, used) = decode_frame_prefix(&buf).unwrap();
        assert_eq!(msg, Message::Ack);
        assert_eq!(used, a.len());
        let (msg2, _) = decode_frame_prefix(buf.get(used..).unwrap()).unwrap();
        assert_eq!(msg2, Message::Ping { token: 1 });
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(&Message::Ack);
        if let Some(b) = frame.first_mut() {
            *b = 0x00;
        }
        assert!(matches!(
            decode_frame(&frame),
            Err(ProtocolError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode_frame(&frame),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
        let mut cursor = Cursor::new(frame);
        assert!(matches!(
            read_message(&mut cursor),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn maximal_declared_length_is_read_not_rejected() {
        // A frame declaring exactly MAX_PAYLOAD must pass the length
        // bounds: the reader sizes its buffer at MAX_PAYLOAD + 1 (the
        // largest value `body_len` can take, still under MAX_FRAME_LEN)
        // and reads the full body. The all-zero payload then fails at
        // the decode stage — typed, never FrameTooLarge and never a
        // short read.
        let mut frame = Vec::with_capacity(MAX_FRAME_LEN);
        frame.extend_from_slice(&MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
        frame.resize(HEADER_LEN + MAX_PAYLOAD, 0);
        frame.push(crc8(&frame));
        assert_eq!(frame.len(), MAX_FRAME_LEN);
        let mut cursor = Cursor::new(frame);
        let err = read_message(&mut cursor).unwrap_err();
        assert!(
            !matches!(
                err,
                ProtocolError::FrameTooLarge { .. } | ProtocolError::Io(_)
            ),
            "maximal frame rejected before decode: {err}"
        );
    }

    #[test]
    fn large_stream_chunk_roundtrips() {
        // A realistic worst-case payload (a 64-frame chunk of a
        // 128x128 neuro array, ~8 MiB of samples) survives the framed
        // write/read path bit-exactly.
        let samples: Vec<f64> = (0..64usize * 128 * 128)
            .map(|i| f64::from_bits(0x3FF0_0000_0000_0000 ^ i as u64))
            .collect();
        let msg = Message::StreamData {
            chip: 3,
            seq: 7,
            payload: crate::message::StreamPayload::NeuroFrames {
                first_frame: 0,
                rows: 128,
                cols: 128,
                samples,
            },
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        assert!(buf.len() < MAX_FRAME_LEN);
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_message(&mut cursor).unwrap(), msg);
    }

    #[test]
    fn stream_chunk_frames_are_sized_exactly_up_front() {
        // The payload buffer is allocated at the final frame size, so
        // framing never grows it.
        let chunks = [
            crate::message::StreamPayload::NeuroFrames {
                first_frame: 8,
                rows: 4,
                cols: 3,
                samples: vec![0.25; 24],
            },
            crate::message::StreamPayload::DnaCounts {
                readings: vec![
                    crate::message::PixelCount {
                        row: 1,
                        col: 2,
                        count: 3,
                    };
                    5
                ],
            },
        ];
        for payload in chunks {
            let msg = Message::StreamData {
                chip: 1,
                seq: 2,
                payload,
            };
            let frame = encode_frame(&msg);
            assert_eq!(frame.capacity(), frame.len());
            assert_eq!(frame.len(), msg.encode_payload().len() + FRAME_OVERHEAD);
            assert_eq!(decode_frame(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = encode_frame(&Message::Ping { token: 3 });
        for cut in 0..frame.len() {
            let err = decode_frame(frame.get(..cut).unwrap()).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }
}
