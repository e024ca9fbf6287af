//! Protocol correctness: `decode ∘ encode = id` for every message type
//! (over seeded random messages), and corruption safety — any single
//! flipped byte in a framed message is rejected with a typed error, never
//! a panic and never a wrong-but-valid message. The folding CRC-8 is
//! checked against the bit-serial definition, and stream samples against
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
use bsa_rng::SmallRng;
use std::ops::Range;

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

/// A collection of `lens.start..lens.end` elements drawn by `element`.
fn arb_vec<T, C: FromIterator<T>>(
    rng: &mut SmallRng,
    lens: Range<usize>,
    mut element: impl FnMut(&mut SmallRng) -> T,
) -> C {
    let len = rng.gen_range(lens);
    (0..len).map(|_| element(rng)).collect()
}

/// One of `options`, uniformly.
fn pick<T: Clone>(rng: &mut SmallRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())].clone()
}

/// Finite, bit-stable floats: NaN is excluded because `PartialEq` cannot
/// certify a NaN roundtrip, not because the wire cannot carry it (f64
/// travels as raw IEEE-754 bits).
fn arb_f64(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..6) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.5e-12,
        3 => f64::MAX,
        4 => f64::MIN_POSITIVE,
        _ => -1e15 + 2e15 * rng.next_f64(),
    }
}

fn arb_u16(rng: &mut SmallRng) -> u16 {
    rng.next_u64() as u16
}

fn arb_u32(rng: &mut SmallRng) -> u32 {
    rng.next_u64() as u32
}

fn arb_string(rng: &mut SmallRng) -> String {
    arb_vec(rng, 0..24, |rng| {
        char::from(0x20 + rng.gen_range(0..0x5F) as u8)
    })
}

fn arb_sequence(rng: &mut SmallRng) -> String {
    arb_vec(rng, 1..16, |rng| pick(rng, &['A', 'C', 'G', 'T']))
}

fn arb_chip_kind(rng: &mut SmallRng) -> ChipKind {
    pick(rng, &[ChipKind::Dna, ChipKind::Neuro])
}

fn arb_error_code(rng: &mut SmallRng) -> ErrorCode {
    pick(
        rng,
        &[
            ErrorCode::BadRequest,
            ErrorCode::UnknownChip,
            ErrorCode::WrongChipKind,
            ErrorCode::ChipError,
            ErrorCode::Overloaded,
            ErrorCode::Internal,
            ErrorCode::StoreError,
        ],
    )
}

fn arb_recording_entry(rng: &mut SmallRng) -> RecordingEntry {
    RecordingEntry {
        name: arb_string(rng),
        kind: arb_chip_kind(rng),
        rows: arb_u16(rng),
        cols: arb_u16(rng),
        frames: rng.next_u64(),
        bytes: rng.next_u64(),
        config_hash: rng.next_u64(),
    }
}

fn arb_dna_spec(rng: &mut SmallRng) -> DnaChipSpec {
    DnaChipSpec {
        rows: arb_u16(rng),
        cols: arb_u16(rng),
        seed: rng.next_u64(),
        frame_time_s: arb_f64(rng),
    }
}

fn arb_neuro_spec(rng: &mut SmallRng) -> NeuroChipSpec {
    NeuroChipSpec {
        rows: arb_u16(rng),
        cols: arb_u16(rng),
        channels: arb_u16(rng),
        seed: rng.next_u64(),
        frame_rate_hz: arb_f64(rng),
    }
}

fn arb_culture_spec(rng: &mut SmallRng) -> CultureSpec {
    CultureSpec {
        seed: rng.next_u64(),
        neuron_count: arb_u32(rng),
        spike_duration_s: arb_f64(rng),
    }
}

fn arb_target_spec(rng: &mut SmallRng) -> TargetSpec {
    TargetSpec {
        sequence: arb_sequence(rng),
        concentration_molar: arb_f64(rng),
    }
}

fn arb_pixel_count(rng: &mut SmallRng) -> PixelCount {
    PixelCount {
        row: arb_u16(rng),
        col: arb_u16(rng),
        count: rng.next_u64(),
    }
}

fn arb_stream_payload(rng: &mut SmallRng) -> StreamPayload {
    if rng.gen_bool(0.5) {
        StreamPayload::NeuroFrames {
            first_frame: arb_u32(rng),
            rows: 1 + rng.gen_range(0..7) as u16,
            cols: 1 + rng.gen_range(0..7) as u16,
            samples: arb_vec(rng, 0..64, arb_f64),
        }
    } else {
        StreamPayload::DnaCounts {
            readings: arb_vec(rng, 0..32, arb_pixel_count),
        }
    }
}

fn arb_fault_target(rng: &mut SmallRng) -> FaultTargetSpec {
    match rng.gen_range(0..3) {
        0 => FaultTargetSpec::Pixel {
            row: arb_u16(rng),
            col: arb_u16(rng),
        },
        1 => FaultTargetSpec::ArrayWide {
            density: rng.next_f64(),
        },
        _ => FaultTargetSpec::Global,
    }
}

fn arb_fault_kind(rng: &mut SmallRng) -> FaultKindSpec {
    match rng.gen_range(0..9) {
        0 => FaultKindSpec::DeadPixel,
        1 => FaultKindSpec::StuckCount {
            count: rng.next_u64(),
        },
        2 => FaultKindSpec::LeakyElectrode {
            leakage_a: arb_f64(rng),
        },
        3 => FaultKindSpec::ComparatorDrift {
            offset_v: arb_f64(rng),
        },
        4 => FaultKindSpec::ComparatorStuck {
            high: rng.gen_bool(0.5),
        },
        5 => FaultKindSpec::DacSaturation {
            limit: arb_f64(rng),
        },
        6 => FaultKindSpec::GainClipping {
            limit_v: arb_f64(rng),
        },
        7 => FaultKindSpec::ChannelLoss {
            channel: arb_u32(rng),
        },
        _ => FaultKindSpec::SerialBitErrors {
            rate: rng.next_f64(),
        },
    }
}

fn arb_fault_plan(rng: &mut SmallRng) -> FaultPlanSpec {
    FaultPlanSpec {
        seed: rng.next_u64(),
        entries: arb_vec(rng, 0..8, |rng| FaultEntrySpec {
            target: arb_fault_target(rng),
            kind: arb_fault_kind(rng),
        }),
    }
}

fn arb_yield_summary(rng: &mut SmallRng) -> YieldSummary {
    YieldSummary {
        total_pixels: arb_u32(rng),
        healthy: arb_u32(rng),
        out_of_family: arb_u32(rng),
        dead: arb_u32(rng),
        lost_channels: arb_vec(rng, 0..8, arb_u32),
        total_channels: arb_u32(rng),
        injected: arb_u32(rng),
        serial: SerialLinkSummary {
            clean_words: rng.next_u64(),
            recovered_words: rng.next_u64(),
            unrecovered_words: rng.next_u64(),
            rereads: rng.next_u64(),
        },
        degradation: pick(
            rng,
            &[
                DegradationSummary::FullPerformance,
                DegradationSummary::Degraded,
                DegradationSummary::Unusable,
            ],
        ),
    }
}

fn arb_stats_snapshot(rng: &mut SmallRng) -> StatsSnapshot {
    StatsSnapshot {
        sessions_opened: rng.next_u64(),
        sessions_active: rng.next_u64(),
        chips_attached: rng.next_u64(),
        requests: rng.next_u64(),
        frames_served: rng.next_u64(),
        frames_dropped: rng.next_u64(),
        chunks_sent: rng.next_u64(),
        bytes_sent: rng.next_u64(),
        queue_peak: rng.next_u64(),
    }
}

/// One of every message variant the protocol defines, uniformly.
fn arb_message(rng: &mut SmallRng) -> Message {
    let chip = arb_u32(rng);
    match rng.gen_range(0..33) {
        0 => Message::Hello {
            client: arb_string(rng),
        },
        1 => Message::HelloAck {
            server: arb_string(rng),
            version: rng.next_u64() as u8,
        },
        2 => Message::Ping {
            token: rng.next_u64(),
        },
        3 => Message::Pong {
            token: rng.next_u64(),
        },
        4 => Message::AttachDna(arb_dna_spec(rng)),
        5 => Message::AttachNeuro(arb_neuro_spec(rng)),
        6 => Message::Attached {
            chip,
            kind: arb_chip_kind(rng),
            rows: arb_u16(rng),
            cols: arb_u16(rng),
        },
        7 => Message::Detach { chip },
        8 => Message::Detached { chip },
        9 => Message::ConfigureAssay {
            chip,
            probes: arb_vec(rng, 0..8, arb_sequence),
            targets: arb_vec(rng, 0..4, arb_target_spec),
        },
        10 => Message::Calibrate { chip },
        11 => Message::CalibrationDone {
            chip,
            healthy: arb_u32(rng),
            out_of_family: arb_u32(rng),
            dead: arb_u32(rng),
        },
        12 => Message::InjectFaults {
            chip,
            plan: arb_fault_plan(rng),
        },
        13 => Message::QueryHealth { chip },
        14 => Message::HealthReport {
            chip,
            report: arb_yield_summary(rng),
        },
        15 => Message::MaskPixels {
            chip,
            pixels: arb_vec(rng, 0..16, arb_u32),
        },
        16 => Message::Masked {
            chip,
            masked: arb_u32(rng),
        },
        17 => Message::RunAssay {
            chip,
            stream_counts: rng.gen_bool(0.5),
        },
        18 => Message::AssayResult {
            chip,
            counts: arb_vec(rng, 0..16, SmallRng::next_u64),
            estimated_currents_a: arb_vec(rng, 0..16, arb_f64),
        },
        19 => Message::StartNeuroStream {
            chip,
            frames: arb_u32(rng),
            chunk_frames: arb_u32(rng),
            t0_s: arb_f64(rng),
            culture: arb_culture_spec(rng),
        },
        20 => Message::StreamData {
            chip,
            seq: arb_u32(rng),
            payload: arb_stream_payload(rng),
        },
        21 => Message::StreamEnd {
            chip,
            frames_sent: arb_u32(rng),
            frames_dropped: arb_u32(rng),
        },
        22 => Message::QueryStats,
        23 => Message::StatsReport(arb_stats_snapshot(rng)),
        24 => Message::Ack,
        25 => Message::ErrorReply {
            code: arb_error_code(rng),
            message: arb_string(rng),
        },
        26 => Message::StartRecording {
            chip,
            name: arb_string(rng),
        },
        27 => Message::RecordingStarted {
            chip,
            name: arb_string(rng),
        },
        28 => Message::StopRecording { chip },
        29 => Message::RecordingStopped {
            chip,
            name: arb_string(rng),
            frames_written: rng.next_u64(),
            frames_dropped: rng.next_u64(),
            bytes_written: rng.next_u64(),
        },
        30 => Message::ListRecordings,
        31 => Message::RecordingList {
            recordings: arb_vec(rng, 0..4, arb_recording_entry),
        },
        _ => Message::Replay {
            name: arb_string(rng),
            chunk_frames: arb_u32(rng),
        },
    }
}

// Miri interprets every execution (~300× slowdown): keep the sampled
// suites tiny there so the UB check stays in CI budget, and leave the
// native runs at full depth.
const CASES: u64 = if cfg!(miri) { 4 } else { 256 };

/// decode ∘ encode = id, through the full framing layer.
#[test]
fn encode_decode_is_identity() {
    for case in 0..CASES {
        let msg = arb_message(&mut SmallRng::seed_from_u64(case));
        let back = decode_frame(&encode_frame(&msg));
        assert_eq!(
            back.unwrap_or_else(|e| panic!("case {case}: {e}")),
            msg,
            "case {case}"
        );
    }
}

/// The streaming reader reproduces the same identity.
#[test]
fn read_message_is_identity() {
    for case in 0..CASES {
        let msg = arb_message(&mut SmallRng::seed_from_u64(case));
        let mut cursor = std::io::Cursor::new(encode_frame(&msg));
        let back = read_message(&mut cursor);
        assert_eq!(
            back.unwrap_or_else(|e| panic!("case {case}: {e}")),
            msg,
            "case {case}"
        );
    }
}

/// Any single flipped byte anywhere in a frame is rejected with a
/// typed error — never a panic, never a wrong-but-valid message.
/// (CRC-8 detects every burst up to 8 bits, i.e. any one-byte flip.)
#[test]
fn single_byte_flip_rejected() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let frame = encode_frame(&arb_message(&mut rng));
        let pos = rng.gen_range(0..frame.len());
        let mask = 1 + rng.gen_range(0..255) as u8;
        let mut corrupt = frame;
        corrupt[pos] ^= mask;
        assert!(
            decode_frame(&corrupt).is_err(),
            "case {case}: flip at {pos} mask {mask:#x}"
        );
    }
}

/// Arbitrary garbage never decodes to a panic (errors are fine, and
/// a lucky valid frame is fine too — the property is totality).
#[test]
fn arbitrary_bytes_never_panic() {
    for case in 0..CASES {
        let bytes: Vec<u8> = arb_vec(&mut SmallRng::seed_from_u64(case), 0..256, |rng| {
            rng.next_u64() as u8
        });
        let _ = decode_frame(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_message(&mut cursor);
    }
}

/// Truncating a frame anywhere yields a typed error.
#[test]
fn truncation_rejected() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let frame = encode_frame(&arb_message(&mut rng));
        let cut = rng.gen_range(0..frame.len());
        assert!(
            decode_frame(&frame[..cut]).is_err(),
            "case {case}: cut at {cut}"
        );
    }
}

/// The folding kernel equals the bit-serial definition one-shot,
/// streamed over a split, and byte by byte. Lengths up to 8 KiB reach
/// 64 fold periods; the split lands anywhere, or within 260 bytes of
/// either end, so each half takes the byte loop (127 bytes or fewer)
/// as well as the fold.
#[test]
fn crc_matches_bitwise_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let bytes: Vec<u8> = arb_vec(&mut rng, 0..8193, |rng| rng.next_u64() as u8);
        let len = bytes.len();
        let at = match rng.gen_range(0..3) {
            0 => rng.gen_range(0..len + 1),
            1 => rng.gen_range(0..260).min(len),
            _ => len.saturating_sub(rng.gen_range(0..260)),
        };
        let expected = bitwise_crc8(&bytes);
        assert_eq!(crc8(&bytes), expected, "case {case}: one-shot");

        let (head, tail) = bytes.split_at(at);
        let mut streamed = Crc8::new();
        streamed.update_bytes(head);
        streamed.update_bytes(tail);
        assert_eq!(streamed.finish(), expected, "case {case}: split at {at}");

        let mut per_byte = Crc8::new();
        for &b in &bytes {
            per_byte.update(b);
        }
        assert_eq!(per_byte.finish(), expected, "case {case}: byte by byte");
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
