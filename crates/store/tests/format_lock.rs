//! Segment format lock: one canonical neuro segment and one canonical DNA
//! segment, written from fixed metadata and payloads, must keep their
//! exact length and FNV-1a-64. The roundtrip suites accept any layout the
//! writer and reader agree on; this one fails on any change to a byte on
//! disk (header, record framing, payload codec, index footer).

#![allow(clippy::unwrap_used)] // tests unwrap idiomatically

use bsa_link::{ChipKind, PixelCount};
use bsa_store::{encode_dna_reading, encode_neuro_frame, fnv1a64, frame_payload_len};
use bsa_store::{Recorder, SegmentMeta};

/// Writes `frames` as `(epoch, payload)` records under fixed metadata and
/// returns the finalised segment file's bytes.
fn segment_bytes(
    tag: &str,
    kind: ChipKind,
    rows: u16,
    cols: u16,
    frames: Vec<(u32, Vec<u8>)>,
) -> Vec<u8> {
    let root = std::env::temp_dir().join(format!("bsa-store-lock-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = format!("{kind:?}ChipConfig {{ rows: {rows}, cols: {cols}, seed: 0x5EED }}");
    let meta = SegmentMeta {
        chip: 9,
        kind,
        rows,
        cols,
        config_hash: fnv1a64(spec.as_bytes()),
        spec,
    };
    let payload_len = frame_payload_len(kind, rows, cols);
    // The queue holds every frame, so nothing drops.
    let mut rec = Recorder::create(&root, "lock", &meta, payload_len, 16).unwrap();
    let offered = frames.len() as u64;
    for (epoch, payload) in frames {
        rec.offer(epoch, payload).unwrap();
    }
    let summary = rec.finish().unwrap();
    assert_eq!(summary.frames_written, offered);
    let bytes = std::fs::read(root.join("lock.seg")).unwrap();
    assert_eq!(bytes.len() as u64, summary.bytes_written);
    let _ = std::fs::remove_dir_all(&root);
    bytes
}

#[test]
fn canonical_neuro_segment_bytes_are_locked() {
    // 4×4 frames; frame 0 carries a signed zero and a NaN with a payload,
    // so the lock also pins bit-exact sample storage.
    let frame = |f: u64| -> Vec<f64> {
        (0..16u64)
            .map(|i| match (f, i) {
                (0, 3) => -0.0,
                (0, 7) => f64::from_bits(0x7FF8_0000_0000_BEEF),
                _ => (f * 16 + i) as f64 * 0.25 - 2.0,
            })
            .collect()
    };
    let frames = vec![
        (0, encode_neuro_frame(&frame(0))),
        (0, encode_neuro_frame(&frame(1))),
        (1, encode_neuro_frame(&frame(2))),
    ];
    let bytes = segment_bytes("neuro", ChipKind::Neuro, 4, 4, frames);
    assert_eq!(bytes.len(), 563);
    assert_eq!(fnv1a64(&bytes), 0x0c21_18ff_e9df_5895);
}

#[test]
fn canonical_dna_segment_bytes_are_locked() {
    let frames = (0..4u16)
        .map(|i| {
            let reading = PixelCount {
                row: i / 2,
                col: i % 2 + 14,
                count: u64::from(i) * 0x0102_0304_0506 + 1,
            };
            (u32::from(i / 3), encode_dna_reading(&reading))
        })
        .collect();
    let bytes = segment_bytes("dna", ChipKind::Dna, 8, 16, frames);
    assert_eq!(bytes.len(), 251);
    assert_eq!(fnv1a64(&bytes), 0x36dd_7487_13a5_bd4a);
}
