//! Protocol correctness: `decode ∘ encode = id` for every message type
//! (proptest-generated), and corruption safety — any single flipped byte
//! in a framed message is rejected with a typed error, never a panic and
//! never a wrong-but-valid message. The folding CRC-8 is checked
//! against the bit-serial definition, and stream samples against
//! `f64::to_bits` identity.

// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bsa_link::crc::{crc8, Crc8, CRC8_POLY};
use bsa_link::samples::encode_samples;
use bsa_link::{
    decode_frame, encode_frame, encode_neuro_chunk, read_message, write_message, ChipKind,
    CultureSpec, DegradationSummary, DnaChipSpec, ErrorCode, FaultEntrySpec, FaultKindSpec,
    FaultPlanSpec, FaultTargetSpec, Message, NeuroChipSpec, NeuroChunkHead, PixelCount,
    ProtocolError, RecordingEntry, SerialLinkSummary, StatsSnapshot, StreamPayload, TargetSpec,
    YieldSummary, MAX_PAYLOAD, NEURO_CHUNK_HEAD,
};
use proptest::prelude::*;

/// The CRC-8 definition, one bit at a time: the oracle for the
/// table-driven kernel.
fn bitwise_crc8(bytes: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in bytes {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ CRC8_POLY
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Finite, bit-stable floats: NaN is excluded because `PartialEq` cannot
/// certify a NaN roundtrip, not because the wire cannot carry it (f64
/// travels as raw IEEE-754 bits).
fn wire_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.5e-12),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        -1e15..1e15f64,
    ]
}

fn wire_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7F, 0..24)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn sequence_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..4, 1..16).prop_map(|indices| {
        indices
            .into_iter()
            .map(|i| match i {
                0 => 'A',
                1 => 'C',
                2 => 'G',
                _ => 'T',
            })
            .collect()
    })
}

fn chip_kind() -> impl Strategy<Value = ChipKind> {
    prop_oneof![Just(ChipKind::Dna), Just(ChipKind::Neuro)]
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::BadRequest),
        Just(ErrorCode::UnknownChip),
        Just(ErrorCode::WrongChipKind),
        Just(ErrorCode::ChipError),
        Just(ErrorCode::Overloaded),
        Just(ErrorCode::Internal),
        Just(ErrorCode::StoreError),
    ]
}

fn recording_entry() -> impl Strategy<Value = RecordingEntry> {
    (
        wire_string(),
        chip_kind(),
        any::<u16>(),
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(name, kind, rows, cols, frames, bytes, config_hash)| RecordingEntry {
                name,
                kind,
                rows,
                cols,
                frames,
                bytes,
                config_hash,
            },
        )
}

fn dna_spec() -> impl Strategy<Value = DnaChipSpec> {
    (any::<u16>(), any::<u16>(), any::<u64>(), wire_f64()).prop_map(
        |(rows, cols, seed, frame_time_s)| DnaChipSpec {
            rows,
            cols,
            seed,
            frame_time_s,
        },
    )
}

fn neuro_spec() -> impl Strategy<Value = NeuroChipSpec> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
        any::<u64>(),
        wire_f64(),
    )
        .prop_map(
            |(rows, cols, channels, seed, frame_rate_hz)| NeuroChipSpec {
                rows,
                cols,
                channels,
                seed,
                frame_rate_hz,
            },
        )
}

fn culture_spec() -> impl Strategy<Value = CultureSpec> {
    (any::<u64>(), any::<u32>(), wire_f64()).prop_map(|(seed, neuron_count, spike_duration_s)| {
        CultureSpec {
            seed,
            neuron_count,
            spike_duration_s,
        }
    })
}

fn target_spec() -> impl Strategy<Value = TargetSpec> {
    (sequence_string(), wire_f64()).prop_map(|(sequence, concentration_molar)| TargetSpec {
        sequence,
        concentration_molar,
    })
}

fn pixel_count() -> impl Strategy<Value = PixelCount> {
    (any::<u16>(), any::<u16>(), any::<u64>()).prop_map(|(row, col, count)| PixelCount {
        row,
        col,
        count,
    })
}

fn stream_payload() -> impl Strategy<Value = StreamPayload> {
    prop_oneof![
        (
            any::<u32>(),
            1u16..8,
            1u16..8,
            prop::collection::vec(wire_f64(), 0..64)
        )
            .prop_map(|(first_frame, rows, cols, samples)| {
                StreamPayload::NeuroFrames {
                    first_frame,
                    rows,
                    cols,
                    samples,
                }
            }),
        prop::collection::vec(pixel_count(), 0..32)
            .prop_map(|readings| StreamPayload::DnaCounts { readings }),
    ]
}

fn fault_target() -> impl Strategy<Value = FaultTargetSpec> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(row, col)| FaultTargetSpec::Pixel { row, col }),
        (0.0..1.0f64).prop_map(|density| FaultTargetSpec::ArrayWide { density }),
        Just(FaultTargetSpec::Global),
    ]
}

fn fault_kind() -> impl Strategy<Value = FaultKindSpec> {
    prop_oneof![
        Just(FaultKindSpec::DeadPixel),
        any::<u64>().prop_map(|count| FaultKindSpec::StuckCount { count }),
        wire_f64().prop_map(|leakage_a| FaultKindSpec::LeakyElectrode { leakage_a }),
        wire_f64().prop_map(|offset_v| FaultKindSpec::ComparatorDrift { offset_v }),
        any::<bool>().prop_map(|high| FaultKindSpec::ComparatorStuck { high }),
        wire_f64().prop_map(|limit| FaultKindSpec::DacSaturation { limit }),
        wire_f64().prop_map(|limit_v| FaultKindSpec::GainClipping { limit_v }),
        any::<u32>().prop_map(|channel| FaultKindSpec::ChannelLoss { channel }),
        (0.0..1.0f64).prop_map(|rate| FaultKindSpec::SerialBitErrors { rate }),
    ]
}

fn fault_plan() -> impl Strategy<Value = FaultPlanSpec> {
    (
        any::<u64>(),
        prop::collection::vec(
            (fault_target(), fault_kind())
                .prop_map(|(target, kind)| FaultEntrySpec { target, kind }),
            0..8,
        ),
    )
        .prop_map(|(seed, entries)| FaultPlanSpec { seed, entries })
}

fn yield_summary() -> impl Strategy<Value = YieldSummary> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        prop::collection::vec(any::<u32>(), 0..8),
        any::<u32>(),
        any::<u32>(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        prop_oneof![
            Just(DegradationSummary::FullPerformance),
            Just(DegradationSummary::Degraded),
            Just(DegradationSummary::Unusable),
        ],
    )
        .prop_map(
            |(
                (total_pixels, healthy, out_of_family, dead),
                lost_channels,
                total_channels,
                injected,
                (clean_words, recovered_words, unrecovered_words, rereads),
                degradation,
            )| YieldSummary {
                total_pixels,
                healthy,
                out_of_family,
                dead,
                lost_channels,
                total_channels,
                injected,
                serial: SerialLinkSummary {
                    clean_words,
                    recovered_words,
                    unrecovered_words,
                    rereads,
                },
                degradation,
            },
        )
}

fn stats_snapshot() -> impl Strategy<Value = StatsSnapshot> {
    prop::collection::vec(any::<u64>(), 9).prop_map(|v| {
        let get = |i: usize| v.get(i).copied().unwrap_or(0);
        StatsSnapshot {
            sessions_opened: get(0),
            sessions_active: get(1),
            chips_attached: get(2),
            requests: get(3),
            frames_served: get(4),
            frames_dropped: get(5),
            chunks_sent: get(6),
            bytes_sent: get(7),
            queue_peak: get(8),
        }
    })
}

/// Every message variant the protocol defines.
fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        wire_string().prop_map(|client| Message::Hello { client }),
        (wire_string(), any::<u8>())
            .prop_map(|(server, version)| Message::HelloAck { server, version }),
        any::<u64>().prop_map(|token| Message::Ping { token }),
        any::<u64>().prop_map(|token| Message::Pong { token }),
        dna_spec().prop_map(Message::AttachDna),
        neuro_spec().prop_map(Message::AttachNeuro),
        (any::<u32>(), chip_kind(), any::<u16>(), any::<u16>()).prop_map(
            |(chip, kind, rows, cols)| Message::Attached {
                chip,
                kind,
                rows,
                cols
            }
        ),
        any::<u32>().prop_map(|chip| Message::Detach { chip }),
        any::<u32>().prop_map(|chip| Message::Detached { chip }),
        (
            any::<u32>(),
            prop::collection::vec(sequence_string(), 0..8),
            prop::collection::vec(target_spec(), 0..4)
        )
            .prop_map(|(chip, probes, targets)| Message::ConfigureAssay {
                chip,
                probes,
                targets
            }),
        any::<u32>().prop_map(|chip| Message::Calibrate { chip }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(chip, healthy, out_of_family, dead)| Message::CalibrationDone {
                chip,
                healthy,
                out_of_family,
                dead
            }
        ),
        (any::<u32>(), fault_plan()).prop_map(|(chip, plan)| Message::InjectFaults { chip, plan }),
        any::<u32>().prop_map(|chip| Message::QueryHealth { chip }),
        (any::<u32>(), yield_summary())
            .prop_map(|(chip, report)| Message::HealthReport { chip, report }),
        (any::<u32>(), prop::collection::vec(any::<u32>(), 0..16))
            .prop_map(|(chip, pixels)| Message::MaskPixels { chip, pixels }),
        (any::<u32>(), any::<u32>()).prop_map(|(chip, masked)| Message::Masked { chip, masked }),
        (any::<u32>(), any::<bool>()).prop_map(|(chip, stream_counts)| Message::RunAssay {
            chip,
            stream_counts
        }),
        (
            any::<u32>(),
            prop::collection::vec(any::<u64>(), 0..16),
            prop::collection::vec(wire_f64(), 0..16)
        )
            .prop_map(
                |(chip, counts, estimated_currents_a)| Message::AssayResult {
                    chip,
                    counts,
                    estimated_currents_a
                }
            ),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            wire_f64(),
            culture_spec()
        )
            .prop_map(|(chip, frames, chunk_frames, t0_s, culture)| {
                Message::StartNeuroStream {
                    chip,
                    frames,
                    chunk_frames,
                    t0_s,
                    culture,
                }
            }),
        (any::<u32>(), any::<u32>(), stream_payload())
            .prop_map(|(chip, seq, payload)| { Message::StreamData { chip, seq, payload } }),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(chip, frames_sent, frames_dropped)| Message::StreamEnd {
                chip,
                frames_sent,
                frames_dropped
            }
        ),
        Just(Message::QueryStats),
        stats_snapshot().prop_map(Message::StatsReport),
        Just(Message::Ack),
        (error_code(), wire_string())
            .prop_map(|(code, message)| Message::ErrorReply { code, message }),
        (any::<u32>(), wire_string())
            .prop_map(|(chip, name)| Message::StartRecording { chip, name }),
        (any::<u32>(), wire_string())
            .prop_map(|(chip, name)| Message::RecordingStarted { chip, name }),
        any::<u32>().prop_map(|chip| Message::StopRecording { chip }),
        (
            any::<u32>(),
            wire_string(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(chip, name, frames_written, frames_dropped, bytes_written)| {
                    Message::RecordingStopped {
                        chip,
                        name,
                        frames_written,
                        frames_dropped,
                        bytes_written,
                    }
                }
            ),
        Just(Message::ListRecordings),
        prop::collection::vec(recording_entry(), 0..4)
            .prop_map(|recordings| Message::RecordingList { recordings }),
        (wire_string(), any::<u32>())
            .prop_map(|(name, chunk_frames)| Message::Replay { name, chunk_frames }),
    ]
}

proptest! {
    // Miri interprets every execution (~300× slowdown): keep the sampled
    // suites tiny there so the UB check stays in CI budget, and leave the
    // native runs at full depth.
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 4 } else { 256 },
        ..ProptestConfig::default()
    })]

    /// decode ∘ encode = id, through the full framing layer.
    #[test]
    fn encode_decode_is_identity(msg in message()) {
        let frame = encode_frame(&msg);
        let back = decode_frame(&frame).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// The streaming reader reproduces the same identity.
    #[test]
    fn read_message_is_identity(msg in message()) {
        let frame = encode_frame(&msg);
        let mut cursor = std::io::Cursor::new(frame);
        let back = read_message(&mut cursor).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Any single flipped byte anywhere in a frame is rejected with a
    /// typed error — never a panic, never a wrong-but-valid message.
    /// (CRC-8 detects every burst up to 8 bits, i.e. any one-byte flip.)
    #[test]
    fn single_byte_flip_rejected(msg in message(), pos_seed in any::<u64>(), mask in 1u8..=255) {
        let frame = encode_frame(&msg);
        let pos = (pos_seed % frame.len() as u64) as usize;
        let mut corrupt = frame.clone();
        if let Some(byte) = corrupt.get_mut(pos) {
            *byte ^= mask;
        }
        prop_assert!(decode_frame(&corrupt).is_err(), "flip at {} mask {:#x}", pos, mask);
    }

    /// Arbitrary garbage never decodes to a panic (errors are fine, and
    /// a lucky valid frame is fine too — the property is totality).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_message(&mut cursor);
    }

    /// Truncating a frame anywhere yields a typed error.
    #[test]
    fn truncation_rejected(msg in message(), cut_seed in any::<u64>()) {
        let frame = encode_frame(&msg);
        let cut = (cut_seed % frame.len() as u64) as usize;
        prop_assert!(decode_frame(frame.get(..cut).unwrap()).is_err());
    }

    /// The folding kernel equals the bit-serial definition one-shot,
    /// streamed over a split, and byte by byte. Lengths up to 8 KiB reach
    /// 64 fold periods; the split lands anywhere, or within 260 bytes of
    /// either end, so each half takes the byte loop (127 bytes or fewer)
    /// as well as the fold.
    #[test]
    fn crc_matches_bitwise_oracle(
        bytes in prop::collection::vec(any::<u8>(), 0..=8192),
        split_seed in any::<usize>(),
        split_near in 0u8..3,
    ) {
        let len = bytes.len();
        let at = match split_near {
            0 => split_seed % (len + 1),
            1 => (split_seed % 260).min(len),
            _ => len.saturating_sub(split_seed % 260),
        };
        let expected = bitwise_crc8(&bytes);
        prop_assert_eq!(crc8(&bytes), expected);

        let (head, tail) = bytes.split_at(at);
        let mut streamed = Crc8::new();
        streamed.update_bytes(head);
        streamed.update_bytes(tail);
        prop_assert_eq!(streamed.finish(), expected);

        let mut per_byte = Crc8::new();
        for &b in &bytes {
            per_byte.update(b);
        }
        prop_assert_eq!(per_byte.finish(), expected);
    }
}

/// `len` pseudo-random bytes (xorshift), so long buffers have no
/// structure the fold could accidentally cancel.
fn noise_bytes(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 56) as u8
        })
        .collect()
}

/// Every length up to three fold periods, split at every point: the
/// state carried into a fold lands on the right accumulator byte for
/// each head length.
#[test]
fn crc_streams_across_every_fold_split() {
    let bytes = noise_bytes(3 * 127 + 2);
    let stride = if cfg!(miri) { 29 } else { 1 };
    for len in (0..=bytes.len()).step_by(stride) {
        let data = bytes.get(..len).unwrap();
        let expected = bitwise_crc8(data);
        assert_eq!(crc8(data), expected, "{len} bytes");
        for at in (0..=len).step_by(stride) {
            let (head, tail) = data.split_at(at);
            let mut streamed = Crc8::new();
            streamed.update_bytes(head);
            streamed.update_bytes(tail);
            assert_eq!(streamed.finish(), expected, "{len} bytes split at {at}");
        }
    }
}

/// Wire-sized inputs: a one-frame 128×128 stream chunk as `encode_frame`
/// emits it, a 131 075-byte buffer and a 1 MiB + 7 buffer, one-shot and
/// streamed from an odd split.
#[test]
#[cfg_attr(miri, ignore = "megabyte inputs through the bit-serial oracle")]
fn crc_matches_bitwise_oracle_on_wire_sized_buffers() {
    let chunk = encode_frame(&Message::StreamData {
        chip: 1,
        seq: 2,
        payload: StreamPayload::NeuroFrames {
            first_frame: 3,
            rows: 128,
            cols: 128,
            samples: (0..128 * 128).map(|i| f64::from(i) * 1e-6 - 0.5).collect(),
        },
    });
    let (body, trailer) = chunk.split_at(chunk.len() - 1);
    assert_eq!(trailer, [bitwise_crc8(body)]);
    for data in [chunk, noise_bytes(131_075), noise_bytes((1 << 20) + 7)] {
        let expected = bitwise_crc8(&data);
        assert_eq!(crc8(&data), expected, "{} bytes", data.len());
        let (head, tail) = data.split_at(1000);
        let mut streamed = Crc8::new();
        streamed.update_bytes(head);
        streamed.update_bytes(tail);
        assert_eq!(streamed.finish(), expected, "{} bytes streamed", data.len());
    }
}

/// Samples whose bits `PartialEq` cannot certify: NaNs with distinct
/// payloads and signs, both zeros, subnormals and the infinities.
fn awkward_samples() -> Vec<f64> {
    vec![
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN, payload 1
        f64::from_bits(0x7FF8_0000_DEAD_BEEF), // quiet NaN with a payload
        f64::from_bits(0xFFF4_0000_0000_0042), // negative signalling NaN
        0.0,
        -0.0,
        f64::from_bits(1),                      // smallest subnormal
        -f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal, negated
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
    ]
}

fn samples_of(msg: &Message) -> Vec<u64> {
    match msg {
        Message::StreamData {
            payload: StreamPayload::NeuroFrames { samples, .. },
            ..
        } => samples.iter().map(|s| s.to_bits()).collect(),
        other => panic!("expected a NeuroFrames chunk, got {other:?}"),
    }
}

/// Stream samples come back `f64::to_bits`-identical through both the
/// buffer codec and the streaming reader/writer.
#[test]
fn neuro_samples_roundtrip_bit_exact() {
    let samples = awkward_samples();
    let bits: Vec<u64> = samples.iter().map(|s| s.to_bits()).collect();
    let msg = Message::StreamData {
        chip: 5,
        seq: 9,
        payload: StreamPayload::NeuroFrames {
            first_frame: 16,
            rows: 3,
            cols: 4,
            samples,
        },
    };

    let via_buffer = decode_frame(&encode_frame(&msg)).unwrap();
    assert_eq!(samples_of(&via_buffer), bits);

    let mut wire = Vec::new();
    write_message(&mut wire, &msg).unwrap();
    let via_stream = read_message(&mut std::io::Cursor::new(wire)).unwrap();
    assert_eq!(samples_of(&via_stream), bits);
}

/// A sample block one byte short of its declared count is a typed
/// error, whether or not the frame around it is otherwise valid.
#[test]
fn short_sample_block_is_a_typed_error() {
    let msg = Message::StreamData {
        chip: 1,
        seq: 0,
        payload: StreamPayload::NeuroFrames {
            first_frame: 0,
            rows: 2,
            cols: 2,
            samples: vec![0.5, -1.5, 2.5, f64::NAN],
        },
    };
    let mut payload = msg.encode_payload();
    payload.pop();
    assert!(matches!(
        Message::decode_payload(&payload),
        Err(ProtocolError::InvalidValue { .. })
    ));

    // Re-framed with a matching length and CRC, the short block still
    // fails in the payload parse, on both decoders.
    let mut frame = bsa_link::MAGIC.to_vec();
    frame.push(bsa_link::PROTOCOL_VERSION);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.push(bitwise_crc8(&frame));
    assert!(matches!(
        decode_frame(&frame),
        Err(ProtocolError::InvalidValue { .. })
    ));
    assert!(matches!(
        read_message(&mut std::io::Cursor::new(frame)),
        Err(ProtocolError::InvalidValue { .. })
    ));
}

/// Exhaustive (not sampled) single-byte corruption over a representative
/// message: every byte position × three masks, via both decoders.
#[test]
fn exhaustive_single_byte_corruption() {
    let msg = Message::StreamData {
        chip: 7,
        seq: 3,
        payload: StreamPayload::NeuroFrames {
            first_frame: 40,
            rows: 2,
            cols: 3,
            samples: vec![0.5, -1.25, 3.75, 0.0, -0.0, 9.5],
        },
    };
    let frame = encode_frame(&msg);
    // Under Miri the positions are strided so the sweep still crosses the
    // magic, version, length, payload and CRC regions without interpreting
    // the full frame × mask product; native runs stay exhaustive.
    let stride = if cfg!(miri) { 13 } else { 1 };
    for pos in (0..frame.len()).step_by(stride) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = frame.clone();
            if let Some(byte) = corrupt.get_mut(pos) {
                *byte ^= mask;
            }
            let direct = decode_frame(&corrupt);
            assert!(
                direct.is_err(),
                "decode_frame accepted flip at {pos} mask {mask:#x}"
            );
            let mut cursor = std::io::Cursor::new(corrupt);
            let streamed = read_message(&mut cursor);
            assert!(
                streamed.is_err(),
                "read_message accepted flip at {pos} mask {mask:#x}"
            );
        }
    }
}

/// The decode-order contract: each header failure maps to its own error.
#[test]
fn error_taxonomy() {
    let frame = encode_frame(&Message::Ack);

    let mut bad_magic = frame.clone();
    if let Some(b) = bad_magic.first_mut() {
        *b ^= 0xFF;
    }
    assert!(matches!(
        decode_frame(&bad_magic),
        Err(ProtocolError::BadMagic { .. })
    ));

    let mut bad_version = frame.clone();
    if let Some(b) = bad_version.get_mut(2) {
        *b = 99;
    }
    assert!(matches!(
        decode_frame(&bad_version),
        Err(ProtocolError::UnsupportedVersion { got: 99 })
    ));

    let mut bad_crc = frame.clone();
    if let Some(b) = bad_crc.last_mut() {
        *b ^= 0x55;
    }
    assert!(matches!(
        decode_frame(&bad_crc),
        Err(ProtocolError::BadCrc { .. })
    ));

    let mut trailing = frame;
    trailing.push(0xAA);
    assert!(matches!(
        decode_frame(&trailing),
        Err(ProtocolError::TrailingBytes { count: 1 })
    ));
}

/// Every count-prefixed field rejects, in its count check, the smallest
/// count that the bytes after it cannot hold, and lets one element fewer
/// past that check. This pins each field's minimum element size: too
/// small a size would surface as `Truncated` further on, too large a one
/// would reject the smaller count as well.
#[test]
fn each_count_is_checked_against_its_element_size() {
    let target = TargetSpec {
        sequence: String::new(),
        concentration_molar: 0.0,
    };
    let reading = PixelCount {
        row: 0,
        col: 0,
        count: 0,
    };
    let entry = FaultEntrySpec {
        target: FaultTargetSpec::Global,
        kind: FaultKindSpec::DeadPixel,
    };
    let recording = RecordingEntry {
        name: String::new(),
        kind: ChipKind::Dna,
        rows: 0,
        cols: 0,
        frames: 0,
        bytes: 0,
        config_hash: 0,
    };
    let configure = |probes: usize, targets: usize| Message::ConfigureAssay {
        chip: 1,
        probes: vec![String::new(); probes],
        targets: vec![target.clone(); targets],
    };
    let chunk = |payload| Message::StreamData {
        chip: 1,
        seq: 0,
        payload,
    };
    let neuro = |n: usize| {
        chunk(StreamPayload::NeuroFrames {
            first_frame: 0,
            rows: 1,
            cols: 1,
            samples: vec![0.0; n],
        })
    };
    let health = |n: usize| Message::HealthReport {
        chip: 1,
        report: YieldSummary {
            total_pixels: 0,
            healthy: 0,
            out_of_family: 0,
            dead: 0,
            lost_channels: vec![0; n],
            total_channels: 0,
            injected: 0,
            serial: SerialLinkSummary::default(),
            degradation: DegradationSummary::FullPerformance,
        },
    };
    let assay = |counts: usize, currents: usize| Message::AssayResult {
        chip: 1,
        counts: vec![0; counts],
        estimated_currents_a: vec![0.0; currents],
    };
    // (field, message with the field empty, with one element, element size)
    let cases = [
        ("ConfigureAssay.probes", configure(0, 0), configure(1, 0), 4),
        (
            "ConfigureAssay.targets",
            configure(0, 0),
            configure(0, 1),
            12,
        ),
        (
            "MaskPixels.pixels",
            Message::MaskPixels {
                chip: 1,
                pixels: vec![],
            },
            Message::MaskPixels {
                chip: 1,
                pixels: vec![0],
            },
            4,
        ),
        (
            "DnaCounts.readings",
            chunk(StreamPayload::DnaCounts { readings: vec![] }),
            chunk(StreamPayload::DnaCounts {
                readings: vec![reading],
            }),
            12,
        ),
        ("NeuroFrames.samples", neuro(0), neuro(1), 8),
        (
            "FaultPlanSpec.entries",
            Message::InjectFaults {
                chip: 1,
                plan: FaultPlanSpec {
                    seed: 0,
                    entries: vec![],
                },
            },
            Message::InjectFaults {
                chip: 1,
                plan: FaultPlanSpec {
                    seed: 0,
                    entries: vec![entry],
                },
            },
            2,
        ),
        ("YieldSummary.lost_channels", health(0), health(1), 4),
        ("AssayResult.counts", assay(0, 0), assay(1, 0), 8),
        (
            "AssayResult.estimated_currents_a",
            assay(0, 0),
            assay(0, 1),
            8,
        ),
        (
            "RecordingList.recordings",
            Message::RecordingList { recordings: vec![] },
            Message::RecordingList {
                recordings: vec![recording],
            },
            4 + 1 + 2 + 2 + 8 + 8 + 8,
        ),
    ];
    const REST: usize = 40;
    for (field, empty, one, elem) in cases {
        let (empty, one) = (empty.encode_payload(), one.encode_payload());
        // The count is where a count of 0 and a count of 1 first differ.
        let at = empty.iter().zip(&one).position(|(a, b)| a != b).unwrap();
        let with_count = |n: usize| {
            let mut bytes = empty[..at].to_vec();
            bytes.extend_from_slice(&(n as u32).to_le_bytes());
            bytes.resize(bytes.len() + REST, 0);
            Message::decode_payload(&bytes)
        };
        let too_many = REST / elem + 1;
        match with_count(too_many) {
            Err(ProtocolError::InvalidValue { what }) if what == field => {}
            other => panic!("{field}: count {too_many} over {REST} bytes gave {other:?}"),
        }
        let fits = with_count(too_many - 1);
        assert!(
            !matches!(fits, Err(ProtocolError::InvalidValue { what }) if what == field),
            "{field}: count {} over {REST} bytes failed its count check",
            too_many - 1
        );
    }
}

/// The frame `encode_neuro_chunk` writes from `samples` appended as
/// bytes, and `encode_frame` of the matching message.
fn neuro_chunk_both_ways(head: NeuroChunkHead, samples: Vec<f64>) -> (Vec<u8>, Vec<u8>) {
    let direct = encode_neuro_chunk(&head, |block| {
        encode_samples(&samples, block);
        Ok::<_, ProtocolError>(())
    })
    .unwrap();
    let via_message = encode_frame(&Message::StreamData {
        chip: head.chip,
        seq: head.seq,
        payload: StreamPayload::NeuroFrames {
            first_frame: head.first_frame,
            rows: head.rows,
            cols: head.cols,
            samples,
        },
    });
    (direct, via_message)
}

/// `NeuroChunkHead` of a `frames`-frame chunk of `rows × cols`.
fn chunk_head(rows: u16, cols: u16, frames: u32) -> NeuroChunkHead {
    NeuroChunkHead {
        chip: 7,
        seq: frames.wrapping_mul(3),
        first_frame: frames.wrapping_mul(11),
        rows,
        cols,
        frames,
    }
}

/// The chunk writer's frame is `encode_frame`'s byte for byte, sized up
/// front, for every chunk length the station can send (1 to 127 frames,
/// its clamp at 128×128) on a small array whose samples cycle through
/// NaN payloads, signed zeros and subnormals.
#[test]
fn neuro_chunk_writer_matches_encode_frame() {
    let awkward = awkward_samples();
    let stride = if cfg!(miri) { 14 } else { 1 };
    for frames in (1..=127).step_by(stride) {
        let samples = awkward.iter().copied().cycle().take(15 * frames as usize);
        let (direct, via_message) =
            neuro_chunk_both_ways(chunk_head(3, 5, frames), samples.collect());
        assert!(direct == via_message, "{frames} frames");
        assert_eq!(direct.capacity(), direct.len(), "{frames} frames");
    }
}

/// At full size: a 127-frame 128×128 chunk matches `encode_frame`, and
/// so do the most one-pixel frames that fit `MAX_PAYLOAD`. One frame
/// more, a 128-frame 128×128 chunk and an overflowing geometry are
/// `FrameTooLarge`, refused before the block is asked for.
#[test]
#[cfg_attr(miri, ignore = "16 MiB frames")]
fn neuro_chunk_writer_holds_the_payload_limit() {
    let samples = (0..127 * 128 * 128).map(|i| f64::from(i) * 1e-7 - 0.5);
    let (direct, via_message) = neuro_chunk_both_ways(chunk_head(128, 128, 127), samples.collect());
    assert!(direct == via_message, "127 frames of 128x128");

    let most = ((MAX_PAYLOAD - NEURO_CHUNK_HEAD) / 8) as u32;
    let (direct, via_message) =
        neuro_chunk_both_ways(chunk_head(1, 1, most), vec![-0.0; most as usize]);
    assert!(direct == via_message, "{most} one-pixel frames");
    assert!(decode_frame(&direct).is_ok());

    for (rows, cols, frames) in [
        (1, 1, most + 1),
        (128, 128, 128),
        (u16::MAX, u16::MAX, u32::MAX),
    ] {
        let result = encode_neuro_chunk(
            &chunk_head(rows, cols, frames),
            |_| -> Result<(), ProtocolError> {
                panic!("block asked for an oversized {rows}x{cols}x{frames} chunk")
            },
        );
        assert!(
            matches!(result, Err(ProtocolError::FrameTooLarge { len }) if len > MAX_PAYLOAD),
            "{rows}x{cols}x{frames}: {result:?}"
        );
    }
}

/// A block of the wrong length is `InvalidValue`, and an error of the
/// block writer's own comes back as it was.
#[test]
fn neuro_chunk_writer_refuses_a_ragged_block() {
    let short = encode_neuro_chunk(&chunk_head(2, 2, 1), |block| {
        encode_samples(&[1.0; 3], block);
        Ok::<_, ProtocolError>(())
    });
    assert!(matches!(short, Err(ProtocolError::InvalidValue { .. })));
    let failed = encode_neuro_chunk(&chunk_head(2, 2, 1), |_| Err(ProtocolError::BadUtf8));
    assert!(matches!(failed, Err(ProtocolError::BadUtf8)));
}
