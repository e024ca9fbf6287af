//! Corruption soundness for segment files, mirroring the wire-level
//! suite in `crates/link/tests/roundtrip.rs`: every single-byte
//! corruption, every truncation and arbitrary garbage must surface as a
//! typed [`StoreError`] — never a panic, and never a silently wrong
//! frame. This is the on-disk analogue of the CRC-8 contract the chips
//! already enforce on their serial words.

#![allow(clippy::unwrap_used)] // tests unwrap idiomatically

use bsa_link::wire::{Codec, Writer};
use bsa_link::ChipKind;
use bsa_link::PixelCount;
use bsa_store::format::{
    FOOTER_MAGIC, FOOTER_TAIL_LEN, HEADER_FIXED_LEN, MAX_SPEC_LEN, SEGMENT_MAGIC,
};
use bsa_store::{
    encode_dna_reading, encode_neuro_frame, fnv1a64, frame_payload_len, Recorder, SegmentMeta,
    SegmentReader, StoreError, SEGMENT_VERSION,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_root(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("bsa-store-cx-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Builds a small but fully featured segment (multi-frame, multi-epoch)
/// and returns its raw bytes plus how many frames it holds.
fn build_segment(kind: ChipKind) -> (Vec<u8>, u64) {
    let root = temp_root("build");
    let (rows, cols) = (2u16, 3u16);
    let spec = format!("spec {{ kind: {kind:?}, rows: {rows}, cols: {cols} }}");
    let meta = SegmentMeta {
        chip: 7,
        kind,
        rows,
        cols,
        config_hash: fnv1a64(spec.as_bytes()),
        spec,
    };
    let payload_len = frame_payload_len(kind, rows, cols);
    let mut rec = Recorder::create(&root, "probe", &meta, payload_len, 16).unwrap();
    let frames = 4u64;
    for f in 0..frames {
        let payload = match kind {
            ChipKind::Neuro => {
                let samples: Vec<f64> = (0..usize::from(rows) * usize::from(cols))
                    .map(|i| f64::from_bits(0x3FF0_0000_0000_0000 ^ (f * 131 + i as u64)))
                    .collect();
                encode_neuro_frame(&samples)
            }
            ChipKind::Dna => encode_dna_reading(&PixelCount {
                row: f as u16,
                col: (f * 2) as u16,
                count: f * 1009 + 1,
            }),
        };
        rec.offer((f / 2) as u32, payload).unwrap();
    }
    let summary = rec.finish().unwrap();
    assert_eq!(summary.frames_written, frames);
    let bytes = std::fs::read(root.join("probe.seg")).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    (bytes, frames)
}

/// Opens the segment and reads every frame; first typed error wins.
fn read_all(path: &Path) -> Result<Vec<(u64, u32, Vec<u8>)>, StoreError> {
    let mut reader = SegmentReader::open(path)?;
    let mut out = Vec::new();
    for i in 0..reader.frames() {
        let frame = reader.frame(i)?;
        out.push((frame.index, frame.epoch, frame.payload.to_vec()));
    }
    Ok(out)
}

fn assert_corruption_detected(kind: ChipKind) {
    let (good, frames) = build_segment(kind);
    let root = temp_root("flip");
    std::fs::create_dir_all(&root).unwrap();
    let path = root.join("corrupt.seg");

    // Sanity: the pristine image reads back all frames.
    std::fs::write(&path, &good).unwrap();
    assert_eq!(read_all(&path).unwrap().len() as u64, frames);

    // Exhaustive single-byte corruption: low bit, high bit, full byte.
    // Every file byte is covered by a CRC-8 trailer or pinned by a
    // structural equation, so each flip must yield a typed error.
    let stride = if cfg!(miri) { 13 } else { 1 };
    for pos in (0..good.len()).step_by(stride) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = good.clone();
            bad[pos] ^= mask;
            std::fs::write(&path, &bad).unwrap();
            let outcome = read_all(&path);
            assert!(
                outcome.is_err(),
                "{kind:?}: flip mask {mask:#04x} at byte {pos}/{} went undetected",
                good.len()
            );
        }
    }

    // Truncation at every prefix length is detected, including torn
    // in-progress recordings (header only, no footer).
    for len in (0..good.len()).step_by(stride) {
        std::fs::write(&path, &good[..len]).unwrap();
        assert!(
            read_all(&path).is_err(),
            "{kind:?}: truncation to {len}/{} bytes went undetected",
            good.len()
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn neuro_single_byte_corruption_always_fails_typed() {
    assert_corruption_detected(ChipKind::Neuro);
}

#[test]
fn dna_single_byte_corruption_always_fails_typed() {
    assert_corruption_detected(ChipKind::Dna);
}

#[test]
fn error_taxonomy_is_specific() {
    let (good, _) = build_segment(ChipKind::Neuro);
    let root = temp_root("taxonomy");
    std::fs::create_dir_all(&root).unwrap();
    let path = root.join("t.seg");

    // Header magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        read_all(&path),
        Err(StoreError::BadMagic { .. } | StoreError::BadCrc { .. })
    ));

    // Footer magic (last four bytes).
    let mut bad = good.clone();
    let n = bad.len();
    bad[n - 1] ^= 0xFF;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(read_all(&path), Err(StoreError::BadMagic { .. })));

    // Empty file.
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(read_all(&path), Err(StoreError::Truncated { .. })));

    let _ = std::fs::remove_dir_all(&root);
}

/// A footer that declares an absurd frame count or index offset must be
/// rejected with a typed size error *before* the reader sizes any buffer
/// from it — the declared values here imply multi-exabyte allocations,
/// so reaching `vec![0; …]` would abort the process instead of erroring.
#[test]
fn oversized_declared_footer_fields_rejected_before_allocation() {
    let (good, _) = build_segment(ChipKind::Neuro);
    let root = temp_root("oversize");
    std::fs::create_dir_all(&root).unwrap();
    let path = root.join("o.seg");
    let n = good.len();
    // Footer tail layout: frame_count u64 | index_off u64 | epochs u32 |
    // crc u8 | magic [u8;4]  (FOOTER_TAIL_LEN = 25 bytes).
    let count_at = n - 25;
    let off_at = n - 17;

    // Declared frame count far beyond what the file could hold.
    let mut bad = good.clone();
    bad[count_at..count_at + 8].copy_from_slice(&(u64::MAX / 16).to_le_bytes());
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        read_all(&path),
        Err(StoreError::Truncated {
            what: "footer frame count",
            ..
        })
    ));

    // Declared index offset past the end of the file.
    let mut bad = good.clone();
    bad[off_at..off_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        read_all(&path),
        Err(StoreError::Truncated {
            what: "footer index offset",
            ..
        })
    ));

    let _ = std::fs::remove_dir_all(&root);
}

/// A frameless neuro segment whose spec is `spec_len` bytes, laid out
/// and checksummed as a recorder lays it out, so that only the reader's
/// spec limit can refuse it.
fn frameless_segment(spec_len: usize) -> Vec<u8> {
    let spec = "s".repeat(spec_len);
    let mut w = Writer::with_capacity(HEADER_FIXED_LEN + spec_len + 1 + FOOTER_TAIL_LEN);
    w.bytes(SEGMENT_MAGIC);
    w.u16(SEGMENT_VERSION);
    ChipKind::Neuro.encode(&mut w);
    w.u8(0); // flags
    w.u32(7); // chip
    w.u16(2); // rows
    w.u16(3); // cols
    w.u64(fnv1a64(spec.as_bytes()));
    w.string(&spec);
    w.crc8();
    let mut bytes = w.into_bytes();
    // Empty offset table; the header runs up to the footer.
    let mut footer = Writer::with_capacity(FOOTER_TAIL_LEN);
    footer.u64(0);
    footer.u64(bytes.len() as u64);
    footer.u32(0);
    footer.crc8();
    footer.bytes(FOOTER_MAGIC);
    bytes.extend_from_slice(footer.as_bytes());
    bytes
}

/// A spec past `MAX_SPEC_LEN` is refused when recording, and a header
/// with room for one is refused on open, before the reader sizes the
/// header buffer from the first record's offset.
#[test]
fn oversized_spec_is_refused_on_write_and_read() {
    let root = temp_root("spec");
    let spec = "s".repeat(MAX_SPEC_LEN + 1);
    let meta = SegmentMeta {
        chip: 7,
        kind: ChipKind::Neuro,
        rows: 2,
        cols: 3,
        config_hash: fnv1a64(spec.as_bytes()),
        spec,
    };
    let payload_len = frame_payload_len(ChipKind::Neuro, 2, 3);
    assert!(matches!(
        Recorder::create(&root, "long", &meta, payload_len, 4),
        Err(StoreError::InvalidValue {
            what: "segment spec length"
        })
    ));
    assert!(!root.join("long.seg").exists());

    std::fs::create_dir_all(&root).unwrap();
    let path = root.join("s.seg");
    std::fs::write(&path, frameless_segment(MAX_SPEC_LEN)).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    assert_eq!(reader.meta().spec.len(), MAX_SPEC_LEN);
    assert_eq!(reader.frames(), 0);
    std::fs::write(&path, frameless_segment(MAX_SPEC_LEN + 1)).unwrap();
    assert!(matches!(
        SegmentReader::open(&path),
        Err(StoreError::InvalidValue {
            what: "segment header length"
        })
    ));
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 4 } else { 64 },
        .. ProptestConfig::default()
    })]

    /// Arbitrary garbage never panics the reader and never yields frames.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let root = temp_root("fuzz");
        std::fs::create_dir_all(&root).unwrap();
        let path = root.join("junk.seg");
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(read_all(&path).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A valid segment with a random byte XORed by a random non-zero
    /// mask is always rejected typed.
    #[test]
    fn random_flips_are_rejected(pos_seed in any::<u64>(), mask in 1u8..=255) {
        let (good, _) = build_segment(ChipKind::Neuro);
        let pos = (pos_seed % good.len() as u64) as usize;
        let mut bad = good;
        bad[pos] ^= mask;
        let root = temp_root("pflip");
        std::fs::create_dir_all(&root).unwrap();
        let path = root.join("p.seg");
        std::fs::write(&path, &bad).unwrap();
        prop_assert!(read_all(&path).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
