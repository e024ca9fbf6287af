//! Golden wire-ABI test: one fixed, fully populated instance of every
//! `Message` variant (each `StreamPayload` arm gets its own entry, and the
//! `InjectFaults` plan exercises every fault target and kind) is encoded
//! and fingerprinted — payload tag, encoded length and an FNV-1a-64 hash
//! of the bytes — and the fingerprints must equal the committed
//! `link.abi.lock` at the workspace root. A wire-format change therefore
//! cannot land without a lock-file diff in the same change.
//!
//! On a mismatch the test prints the lock text HEAD produces; replace the
//! file with it only when the wire change is deliberate.
//!
//! Run it as `cargo test -p bsa-link --test abi_lock`.

// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bsa_link::{
    ChipKind, CultureSpec, DegradationSummary, DnaChipSpec, ErrorCode, FaultEntrySpec,
    FaultKindSpec, FaultPlanSpec, FaultTargetSpec, Message, NeuroChipSpec, PixelCount,
    RecordingEntry, SerialLinkSummary, StatsSnapshot, StreamPayload, TargetSpec, YieldSummary,
};
use std::fs;
use std::path::Path;

/// Declares the canonical instances, one `Variant => instance, …;` line
/// per `Message` variant, and generates from the same list both
/// `canonical_messages` and `variant_name`. The latter matches every
/// listed variant with no `_` arm, so a new `Message` variant does not
/// compile until it has an entry here. (`Variant { .. }` also matches
/// tuple and unit variants.)
macro_rules! canonical {
    ($($variant:ident => $($msg:expr),+;)*) => {
        /// Every canonical instance, with the variant it is listed under.
        fn canonical_messages() -> Vec<(&'static str, Message)> {
            vec![$($((stringify!($variant), $msg)),+),*]
        }

        fn variant_name(msg: &Message) -> &'static str {
            match msg {
                $(Message::$variant { .. } => stringify!($variant),)*
            }
        }
    };
}

// Values are arbitrary but fixed forever: the lock pins the *layout*, and
// distinct field values make transpositions (swapped fields of one width)
// show up in the hash.
canonical! {
    Hello => Message::Hello {
        client: "bsa-abi".to_string(),
    };
    HelloAck => Message::HelloAck {
        server: "station".to_string(),
        version: 1,
    };
    Ping => Message::Ping { token: 0x0102_0304 };
    Pong => Message::Pong { token: 0x0102_0304 };
    AttachDna => Message::AttachDna(DnaChipSpec {
        rows: 3,
        cols: 5,
        seed: 7,
        frame_time_s: 0.25,
    });
    AttachNeuro => Message::AttachNeuro(NeuroChipSpec {
        rows: 3,
        cols: 5,
        channels: 4,
        seed: 7,
        frame_rate_hz: 2000.0,
    });
    Attached => Message::Attached {
        chip: 2,
        kind: ChipKind::Neuro,
        rows: 3,
        cols: 5,
    };
    Detach => Message::Detach { chip: 2 };
    Detached => Message::Detached { chip: 2 };
    ConfigureAssay => Message::ConfigureAssay {
        chip: 2,
        probes: vec!["ACGT".to_string(), "TTAG".to_string()],
        targets: vec![TargetSpec {
            sequence: "ACGT".to_string(),
            concentration_molar: 1e-9,
        }],
    };
    Calibrate => Message::Calibrate { chip: 2 };
    CalibrationDone => Message::CalibrationDone {
        chip: 2,
        healthy: 13,
        out_of_family: 2,
        dead: 1,
    };
    InjectFaults => Message::InjectFaults {
        chip: 2,
        plan: FaultPlanSpec {
            seed: 9,
            entries: vec![
                FaultEntrySpec {
                    target: FaultTargetSpec::Pixel { row: 1, col: 2 },
                    kind: FaultKindSpec::DeadPixel,
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::ArrayWide { density: 0.125 },
                    kind: FaultKindSpec::StuckCount { count: 42 },
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::Global,
                    kind: FaultKindSpec::LeakyElectrode { leakage_a: 1e-12 },
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::Global,
                    kind: FaultKindSpec::ComparatorDrift { offset_v: 0.01 },
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::Global,
                    kind: FaultKindSpec::ComparatorStuck { high: true },
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::Global,
                    kind: FaultKindSpec::DacSaturation { limit: 0.5 },
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::Global,
                    kind: FaultKindSpec::GainClipping { limit_v: 0.25 },
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::Global,
                    kind: FaultKindSpec::ChannelLoss { channel: 3 },
                },
                FaultEntrySpec {
                    target: FaultTargetSpec::Global,
                    kind: FaultKindSpec::SerialBitErrors { rate: 1e-6 },
                },
            ],
        },
    };
    QueryHealth => Message::QueryHealth { chip: 2 };
    HealthReport => Message::HealthReport {
        chip: 2,
        report: YieldSummary {
            total_pixels: 15,
            healthy: 12,
            out_of_family: 2,
            dead: 1,
            lost_channels: vec![3],
            total_channels: 4,
            injected: 9,
            serial: SerialLinkSummary {
                clean_words: 100,
                recovered_words: 5,
                unrecovered_words: 1,
                rereads: 6,
            },
            degradation: DegradationSummary::Degraded,
        },
    };
    MaskPixels => Message::MaskPixels {
        chip: 2,
        pixels: vec![0, 7, 14],
    };
    Masked => Message::Masked { chip: 2, masked: 3 };
    RunAssay => Message::RunAssay {
        chip: 2,
        stream_counts: true,
    };
    AssayResult => Message::AssayResult {
        chip: 2,
        counts: vec![5, 6, 7],
        estimated_currents_a: vec![1e-12, 2e-12],
    };
    StartNeuroStream => Message::StartNeuroStream {
        chip: 2,
        frames: 8,
        chunk_frames: 2,
        t0_s: 0.5,
        culture: CultureSpec {
            seed: 11,
            neuron_count: 5,
            spike_duration_s: 0.002,
        },
    };
    StreamData => Message::StreamData {
        chip: 2,
        seq: 1,
        payload: StreamPayload::NeuroFrames {
            first_frame: 4,
            rows: 2,
            cols: 2,
            samples: vec![0.25, -0.5, 0.75, 1.0],
        },
    }, Message::StreamData {
        chip: 2,
        seq: 2,
        payload: StreamPayload::DnaCounts {
            readings: vec![PixelCount {
                row: 1,
                col: 2,
                count: 99,
            }],
        },
    };
    StreamEnd => Message::StreamEnd {
        chip: 2,
        frames_sent: 8,
        frames_dropped: 1,
    };
    QueryStats => Message::QueryStats;
    StatsReport => Message::StatsReport(StatsSnapshot {
        sessions_opened: 1,
        sessions_active: 2,
        chips_attached: 3,
        requests: 4,
        frames_served: 5,
        frames_dropped: 6,
        chunks_sent: 7,
        bytes_sent: 8,
        queue_peak: 9,
    });
    Ack => Message::Ack;
    ErrorReply => Message::ErrorReply {
        // `StoreError` is the last-numbered code, so inserting or
        // reordering codes shifts this byte and trips the hash.
        code: ErrorCode::StoreError,
        message: "boom".to_string(),
    };
    StartRecording => Message::StartRecording {
        chip: 2,
        name: "take-1".to_string(),
    };
    RecordingStarted => Message::RecordingStarted {
        chip: 2,
        name: "take-1".to_string(),
    };
    StopRecording => Message::StopRecording { chip: 2 };
    RecordingStopped => Message::RecordingStopped {
        chip: 2,
        name: "take-1".to_string(),
        frames_written: 48,
        frames_dropped: 3,
        bytes_written: 6_144,
    };
    ListRecordings => Message::ListRecordings;
    RecordingList => Message::RecordingList {
        recordings: vec![RecordingEntry {
            name: "take-1".to_string(),
            kind: ChipKind::Neuro,
            rows: 3,
            cols: 5,
            frames: 48,
            bytes: 6_144,
            config_hash: 0x0102_0304_0506_0708,
        }],
    };
    Replay => Message::Replay {
        name: "take-1".to_string(),
        chunk_frames: 8,
    };
}

/// Lock-file name of one canonical instance: the variant, plus the
/// payload arm for `StreamData` (whose two arms are separate wire shapes).
fn lock_name(variant: &str, msg: &Message) -> String {
    match msg {
        Message::StreamData { payload, .. } => {
            let arm = match payload {
                StreamPayload::NeuroFrames { .. } => "NeuroFrames",
                StreamPayload::DnaCounts { .. } => "DnaCounts",
            };
            format!("{variant}/{arm}")
        }
        _ => variant.to_string(),
    }
}

/// FNV-1a 64-bit: dependency-free and stable, enough to pin a byte
/// layout (this is drift detection, not cryptography).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `<variant> tag=… len=… fnv=…` lines HEAD's encoder produces.
fn entry_lines() -> Vec<String> {
    canonical_messages()
        .iter()
        .map(|(variant, msg)| {
            let payload = msg.encode_payload();
            format!(
                "{} tag=0x{:02X} len={} fnv={:016x}",
                lock_name(variant, msg),
                payload.first().copied().unwrap_or(0),
                payload.len(),
                fnv1a64(&payload)
            )
        })
        .collect()
}

#[test]
fn encodings_match_the_committed_lock() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../link.abi.lock");
    let committed = fs::read_to_string(&path).unwrap();
    let locked: Vec<&str> = committed
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    let head = entry_lines();
    if locked != head {
        let mut expected: String = committed
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        for line in &head {
            expected.push_str(line);
            expected.push('\n');
        }
        let drifted: Vec<&str> = head
            .iter()
            .map(String::as_str)
            .filter(|l| !locked.contains(l))
            .collect();
        let stale: Vec<&&str> = locked
            .iter()
            .filter(|l| !head.iter().any(|h| h == *l))
            .collect();
        panic!(
            "{} does not match HEAD's wire encodings.\n\
             HEAD produces: {drifted:#?}\nlock has: {stale:#?}\n\
             Revert the wire change, or, if it is deliberate, replace the file with:\n\
             {expected}",
            path.display()
        );
    }
}

#[test]
fn every_entry_sits_under_its_own_variant() {
    for (variant, msg) in canonical_messages() {
        assert_eq!(variant_name(&msg), variant, "{msg:?}");
    }
}

#[test]
fn canonical_instances_decode_back() {
    for (variant, msg) in canonical_messages() {
        let payload = msg.encode_payload();
        let back = Message::decode_payload(&payload)
            .unwrap_or_else(|e| panic!("{variant} does not round-trip: {e:?}"));
        assert_eq!(back, msg, "{variant}");
    }
}
