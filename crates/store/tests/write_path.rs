//! When the writer's bytes reach the file and the disk: `Recorder::create`
//! leaves a whole header in the file before any frame is offered, and a
//! recording syncs its data every `SYNC_BYTES` as it goes, so the final
//! sync at `finish` writes back only the tail.
//!
//! These tests touch real files, so they live here and not among the
//! library's unit tests.

#![allow(clippy::unwrap_used)] // tests unwrap idiomatically

use bsa_link::ChipKind;
use bsa_store::format::{HEADER_FIXED_LEN, RECORD_OVERHEAD};
use bsa_store::{
    fnv1a64, frame_payload_len, segment_path, Offer, Recorder, SegmentMeta, SegmentReader,
    WriteSummary, DEFAULT_QUEUE_DEPTH, SYNC_BYTES,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const ROWS: u16 = 128;
const COLS: u16 = 128;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bsa-store-wp-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn meta() -> SegmentMeta {
    let spec = "NeuroChipConfig { rows: 128, cols: 128 }".to_string();
    SegmentMeta {
        chip: 1,
        kind: ChipKind::Neuro,
        rows: ROWS,
        cols: COLS,
        config_hash: fnv1a64(spec.as_bytes()),
        spec,
    }
}

fn header_len(meta: &SegmentMeta) -> u64 {
    (HEADER_FIXED_LEN + meta.spec.len() + 1) as u64
}

/// Records `frames` 128×128 frames one at a time, waiting for each to
/// reach the file before offering the next, so the writer's queue runs
/// dry after every frame.
fn record_paced(root: &Path, frames: u64) -> WriteSummary {
    let meta = meta();
    let frame_len = frame_payload_len(ChipKind::Neuro, ROWS, COLS);
    let record_len = (RECORD_OVERHEAD + frame_len) as u64;
    let payload = vec![0x5A; frame_len];
    let mut recorder =
        Recorder::create(root, "paced", &meta, frame_len, DEFAULT_QUEUE_DEPTH).unwrap();
    let path = segment_path(root, "paced").unwrap();
    for i in 0..frames {
        assert_eq!(recorder.offer_bytes(0, &payload).unwrap(), Offer::Accepted);
        let want = header_len(&meta) + (i + 1) * record_len;
        let deadline = Instant::now() + Duration::from_secs(30);
        while std::fs::metadata(&path).map_or(0, |m| m.len()) < want {
            assert!(Instant::now() < deadline, "writer stalled before frame {i}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let summary = recorder.finish().unwrap();
    assert_eq!(
        (summary.frames_written, summary.frames_dropped),
        (frames, 0)
    );
    summary
}

#[test]
fn header_is_in_the_file_when_create_returns() {
    let root = temp_root("header");
    let meta = meta();
    let frame_len = frame_payload_len(ChipKind::Neuro, ROWS, COLS);
    let recorder = Recorder::create(&root, "header", &meta, frame_len, 4).unwrap();
    let path = segment_path(&root, "header").unwrap();
    let early = std::fs::read(&path).unwrap();
    assert_eq!(early.len() as u64, header_len(&meta), "header not flushed");
    recorder.finish().unwrap();
    // The early bytes are the finished segment's header, which decodes.
    let done = std::fs::read(&path).unwrap();
    assert!(done.starts_with(&early));
    assert_eq!(SegmentReader::open(&path).unwrap().meta(), &meta);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_long_recording_syncs_as_it_goes() {
    let root = temp_root("long");
    let frame_len = frame_payload_len(ChipKind::Neuro, ROWS, COLS) as u64;
    let frames = (3 * SYNC_BYTES).div_ceil(frame_len) + 1;
    let summary = record_paced(&root, frames);
    assert!(
        summary.data_syncs >= 2,
        "{} syncs over {frames} frames",
        summary.data_syncs
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_recording_shorter_than_the_sync_interval_syncs_only_at_finish() {
    let root = temp_root("short");
    let frame_len = frame_payload_len(ChipKind::Neuro, ROWS, COLS) as u64;
    let frames = SYNC_BYTES / frame_len / 2;
    assert!(frames > 0);
    assert_eq!(record_paced(&root, frames).data_syncs, 0);
    let _ = std::fs::remove_dir_all(&root);
}
