//! Allocation contract of the store tee: a live stream tees each frame
//! into its recording as that frame's slice of the chunk's encoded
//! sample block, and `Recorder::offer_bytes` copies the slice into one
//! of the recorder's pooled payload buffers, which the writer thread
//! hands back once it holds their bytes. While the writer keeps up,
//! teeing an 8-frame 128×128 chunk therefore makes no heap allocation
//! at all on the teeing thread, the first chunk included.
//!
//! A counting global allocator tallies allocations per thread, so the
//! writer thread's own bookkeeping (its record offsets) is not counted
//! against the tee.

#![allow(clippy::unwrap_used)] // tests unwrap idiomatically

use bsa_link::ChipKind;
use bsa_store::format::{HEADER_FIXED_LEN, RECORD_OVERHEAD};
use bsa_store::{
    fnv1a64, frame_payload_len, segment_path, Offer, Recorder, SegmentMeta, SegmentReader,
    DEFAULT_QUEUE_DEPTH,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const ROWS: u16 = 128;
const COLS: u16 = 128;
const CHUNK_FRAMES: usize = 8;

#[test]
fn warm_tee_of_an_eight_frame_chunk_allocates_nothing() {
    let root = std::env::temp_dir().join(format!("bsa-store-tee-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = "NeuroChipConfig { rows: 128, cols: 128 }".to_string();
    let meta = SegmentMeta {
        chip: 1,
        kind: ChipKind::Neuro,
        rows: ROWS,
        cols: COLS,
        config_hash: fnv1a64(spec.as_bytes()),
        spec,
    };
    let frame_len = frame_payload_len(ChipKind::Neuro, ROWS, COLS);
    let header_len = (HEADER_FIXED_LEN + meta.spec.len() + 1) as u64;
    let record_len = (RECORD_OVERHEAD + frame_len) as u64;
    // A chunk's encoded sample block, as the stream's wire frame holds it.
    let block: Vec<u8> = (0..CHUNK_FRAMES * frame_len)
        .map(|i| (i % 251) as u8)
        .collect();
    let mut recorder =
        Recorder::create(&root, "tee", &meta, frame_len, DEFAULT_QUEUE_DEPTH).unwrap();
    let path = segment_path(&root, "tee").unwrap();

    let tee = |recorder: &mut Recorder, epoch: u32| {
        for frame in block.chunks_exact(frame_len) {
            assert_eq!(recorder.offer_bytes(epoch, frame).unwrap(), Offer::Accepted);
        }
    };
    // The writer hands a buffer back before it writes the record, and a
    // record larger than its buffered writer goes straight to the file,
    // so once the file holds `records` records, their buffers are back.
    let wait_written = |records: u64| {
        let deadline = Instant::now() + Duration::from_secs(30);
        let want = header_len + records * record_len;
        while std::fs::metadata(&path).map_or(0, |m| m.len()) < want {
            assert!(
                Instant::now() < deadline,
                "writer stalled before {records} records"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    const CHUNKS: u32 = 5;
    for epoch in 0..CHUNKS {
        let before = allocs();
        tee(&mut recorder, epoch);
        assert_eq!(allocs() - before, 0, "tee of chunk {epoch} allocated");
        wait_written(u64::from(epoch + 1) * CHUNK_FRAMES as u64);
    }

    // The recycled buffers carried the right bytes.
    let frames = u64::from(CHUNKS) * CHUNK_FRAMES as u64;
    let summary = recorder.finish().unwrap();
    assert_eq!(
        (summary.frames_written, summary.frames_dropped),
        (frames, 0)
    );
    let mut reader = SegmentReader::open_named(&root, "tee").unwrap();
    let mut want = block.chunks_exact(frame_len).cycle();
    for i in 0..frames {
        assert!(
            reader.frame(i).unwrap().payload == want.next().unwrap(),
            "record {i}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
