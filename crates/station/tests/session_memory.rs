// Tests unwrap, expect and panic idiomatically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// The counting allocator keeps its tallies in atomics: it must not
// allocate, and the station's `stats.rs` types are crate-private.
#![allow(clippy::disallowed_types)]
//! Bounded session memory: a station streaming one request holds at most
//! its outbound queue plus one chunk, however many frames the client
//! asked for, because the session draws each chunk from the acquisition
//! cursor just before offering it.
//!
//! A counting global allocator tracks the live-bytes high-water mark of
//! the whole process (station threads and client alike) while one
//! request is served; the contract lives in one `#[test]` so parallel
//! test threads cannot perturb the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use bsa_link::{
    read_message, write_message, ChipId, CultureSpec, Message, NeuroChipSpec, StreamPayload,
};
use bsa_station::{Station, StationConfig};

struct CountingAllocator;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Outbound queue capacity of the station under test, in chunks.
const QUEUE_DEPTH: usize = 16;
const ROWS: u16 = 32;
const COLS: u16 = 32;
/// Bytes of one frame's samples.
const FRAME_BYTES: u64 = ROWS as u64 * COLS as u64 * 8;

/// One culture for every request, spiking over the longest one, so that
/// the per-request culture costs the same whatever the frame count.
fn culture() -> CultureSpec {
    CultureSpec {
        seed: 77,
        neuron_count: 24,
        spike_duration_s: 16.0 * QUEUE_DEPTH as f64 / 2000.0,
    }
}

/// Streams `frames` one-frame chunks through a raw `read_message` loop
/// that decodes each chunk and drops it; returns the frames received.
fn stream(socket: &mut TcpStream, chip: ChipId, frames: u32) -> u32 {
    let request = Message::StartNeuroStream {
        chip,
        frames,
        chunk_frames: 1,
        t0_s: 0.0,
        culture: culture(),
    };
    write_message(socket, &request).unwrap();
    let mut received = 0;
    loop {
        match read_message(socket).unwrap() {
            Message::StreamData {
                payload: StreamPayload::NeuroFrames { samples, .. },
                ..
            } => {
                assert_eq!(samples.len() as u64 * 8, FRAME_BYTES);
                received += 1;
            }
            Message::StreamEnd {
                frames_sent,
                frames_dropped,
                ..
            } => {
                assert_eq!(frames_sent, received);
                assert_eq!(frames_sent + frames_dropped, frames);
                return received;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

/// Peak live heap bytes, above the level at the request, of serving one
/// `frames`-frame stream end to end.
fn stream_peak_bytes(socket: &mut TcpStream, chip: ChipId, frames: u32) -> u64 {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let received = stream(socket, chip, frames);
    assert!(received > 0, "no frame of {frames} arrived");
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

#[test]
fn session_memory_is_bounded_by_queue_depth_not_frame_count() {
    let station = Station::bind(StationConfig {
        queue_depth: QUEUE_DEPTH,
        ..StationConfig::default()
    })
    .unwrap();
    let mut socket = TcpStream::connect(station.addr()).unwrap();
    let spec = NeuroChipSpec {
        rows: ROWS,
        cols: COLS,
        channels: 16,
        seed: 0x0EE5_1281,
        frame_rate_hz: 0.0,
    };
    write_message(&mut socket, &Message::AttachNeuro(spec)).unwrap();
    let chip = match read_message(&mut socket).unwrap() {
        Message::Attached { chip, .. } => chip,
        other => panic!("unexpected reply {other:?}"),
    };
    // Warm-up: calibration and every lazily built chip table.
    stream(&mut socket, chip, 2 * QUEUE_DEPTH as u32);

    let short = stream_peak_bytes(&mut socket, chip, 2 * QUEUE_DEPTH as u32);
    let long = stream_peak_bytes(&mut socket, chip, 16 * QUEUE_DEPTH as u32);

    // Either request may fill the queue (each queued chunk is one encoded
    // frame, the writer thread holds one more, and the session keeps one
    // frame's sample buffer to draw the next chunk into); a further
    // 64 KiB covers scan threads and other per-chunk transients.
    // Holding the long request's 224 extra frames would add 1.8 MB.
    let slack = 2 * QUEUE_DEPTH as u64 * FRAME_BYTES + 64 * 1024;
    assert!(
        long <= short + slack,
        "session memory scales with frame count: {short} bytes for {} frames \
         vs {long} for {} (slack {slack})",
        2 * QUEUE_DEPTH,
        16 * QUEUE_DEPTH
    );
    station.shutdown();
}
