#![allow(clippy::unwrap_used)] // tests/benches unwrap idiomatically
//! Steady-state memory contract for the readout engine: once the frame
//! arena is warm (buffers recycled from a previous recording), the
//! heap-allocation count of a record call must not scale with the frame
//! count — the per-frame sample buffers all come from the pool — a second
//! compile of the same culture allocates nothing, neither does a second
//! default thread-count resolution, and an acquisition
//! cursor drained through one reused chunk buffer holds the same peak
//! memory however many frames it delivers.
//!
//! It also pins the per-die footprint: a paper-sized 128×128 die holds
//! one shared pixel model and compact per-pixel state, its scan plan
//! stores nothing per pixel, and a clean fault map stores nothing per
//! pixel either.
//!
//! A counting global allocator measures real allocator traffic and the
//! live-bytes high-water mark; the whole contract lives in one `#[test]`
//! so parallel test threads cannot perturb the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bsa_core::array::ArrayGeometry;
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig, NeuroPixel};
use bsa_core::ScanOptions;
use bsa_faults::CompiledFaults;
use bsa_neuro::culture::{Culture, CultureConfig};
use bsa_rng::SmallRng;
use bsa_units::{Hertz, Meter, Seconds};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Live heap bytes `build`'s result holds once built.
fn held_bytes<T>(build: impl FnOnce() -> T) -> u64 {
    let base = LIVE.load(Ordering::Relaxed);
    let held = build();
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(base);
    drop(held);
    grown
}

/// Peak live heap bytes, above the level at entry, of opening a cursor
/// and draining `frames` frames through one reused 8-frame chunk buffer
/// (serial path, so no thread-spawn bookkeeping is counted).
fn cursor_peak_bytes(chip: &mut NeuroChip, culture: &Culture, frames: usize) -> u64 {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut acq = chip.acquire(culture, Seconds::ZERO, ScanOptions::serial());
    let mut chunk = Vec::new();
    for _ in 0..frames / 8 {
        chunk.clear();
        acq.next_chunk(&mut chunk, 8);
    }
    drop(acq);
    drop(chunk);
    PEAK.load(Ordering::Relaxed) - base
}

/// Allocations of one warm-arena uncalibrated record of `frames` frames
/// (serial path, so no thread-spawn bookkeeping is counted).
fn warm_record_allocs(chip: &mut NeuroChip, culture: &Culture, frames: usize) -> u64 {
    // Warm the arena with exactly `frames` recycled buffers plus a stripe
    // sized for this workload.
    let warmup =
        chip.record_uncalibrated_with(culture, Seconds::ZERO, frames, ScanOptions::serial());
    chip.recycle(warmup);
    let before = allocs();
    let recording =
        chip.record_uncalibrated_with(culture, Seconds::ZERO, frames, ScanOptions::serial());
    let delta = allocs() - before;
    chip.recycle(recording);
    delta
}

/// Allocations of a second compile of the same culture on a warm
/// single-channel chip, whose compile always runs serially, so no
/// thread-spawn bookkeeping is counted.
fn warm_compile_allocs() -> u64 {
    let config = NeuroChipConfig {
        geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
        frame_rate: Hertz::from_kilo(2.0),
        channels: 1,
        ..NeuroChipConfig::default()
    };
    let side = Meter::from_micro(7.8 * 16.0);
    let cfg = CultureConfig {
        width: side,
        height: side,
        ..CultureConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(5);
    let mut culture = Culture::random(&cfg, &mut rng);
    culture.generate_spikes(Seconds::new(1.0), &mut rng);
    let mut chip = NeuroChip::new(config).unwrap();
    let pairs = chip.compile_culture_sources(&culture);
    assert!(pairs > 0, "the culture must reach the die");
    let before = allocs();
    let again = chip.compile_culture_sources(&culture);
    let delta = allocs() - before;
    assert_eq!(again, pairs);
    delta
}

/// Allocations of a second default thread-count resolution on a
/// 16-channel chip, the question every default acquisition asks.
fn second_thread_resolution_allocs() -> u64 {
    let config = NeuroChipConfig {
        geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
        channels: 16,
        ..NeuroChipConfig::default()
    };
    let chip = NeuroChip::new(config).unwrap();
    let first = chip.resolved_scan_threads(ScanOptions::default());
    let before = allocs();
    let again = chip.resolved_scan_threads(ScanOptions::default());
    let delta = allocs() - before;
    assert_eq!(again, first);
    delta
}

#[test]
fn steady_state_scan_is_allocation_free_per_frame() {
    // Per-die footprint. Every pixel shares its die's design values, so a
    // pixel holds only its own mismatch, calibration state and a pointer
    // to any faults.
    let pixel = std::mem::size_of::<NeuroPixel>();
    assert!(pixel <= 112, "a NeuroPixel takes {pixel} bytes");
    // The scan plan derives each pixel's index, position and sample time
    // from the geometry and keeps one shared sample-time table, so almost
    // all of the die is its 16 384 pixels (1 703 936 bytes).
    let die = held_bytes(|| NeuroChip::new(NeuroChipConfig::default()).unwrap());
    assert!(
        die <= 1_800_000,
        "a 128×128 die holds {die} bytes of heap after construction"
    );
    // One byte per pixel would be 16 KiB.
    let clean = held_bytes(|| CompiledFaults::none(128, 128));
    assert!(
        clean < 1024,
        "a clean 128×128 fault map holds {clean} bytes"
    );

    // A warm culture compile reuses every buffer of its scatter tables.
    assert_eq!(warm_compile_allocs(), 0, "a warm culture compile allocated");

    // The host's parallelism is read once per process, not per request.
    assert_eq!(
        second_thread_resolution_allocs(),
        0,
        "resolving the default scan thread count allocated"
    );

    let config = NeuroChipConfig {
        geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
        frame_rate: Hertz::from_kilo(2.0),
        channels: 4,
        ..NeuroChipConfig::default()
    };
    let culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
    let mut chip = NeuroChip::new(config).unwrap();

    let small = warm_record_allocs(&mut chip, &culture, 4);
    let large = warm_record_allocs(&mut chip, &culture, 28);

    // Per-call overhead (the Recording itself, the frames Vec and its
    // growth) is allowed; per-frame buffers are not. If each of the 24
    // extra frames heap-allocated its sample buffer, `large` would exceed
    // `small` by at least 24.
    assert!(
        large <= small + 8,
        "allocation count scales with frame count: {small} allocs for 4 \
         frames vs {large} for 28"
    );

    // The pool must be doing the work: a warm same-size record serves
    // every frame from recycled buffers and allocates nothing new.
    let stats_before = chip.arena_stats();
    let recording =
        chip.record_uncalibrated_with(&culture, Seconds::ZERO, 28, ScanOptions::serial());
    let stats_after = chip.arena_stats();
    assert_eq!(
        stats_after.allocations, stats_before.allocations,
        "warm arena must not allocate fresh frame buffers"
    );
    assert_eq!(
        stats_after.reuses,
        stats_before.reuses + 28,
        "every frame buffer must come from the pool"
    );
    chip.recycle(recording);

    // Bounded memory: draining 16× the frames through one cursor peaks
    // within a small constant of the short drain. Holding the 480 extra
    // frames (2 KiB each at 16×16) would add about 960 KiB.
    let short = cursor_peak_bytes(&mut chip, &culture, 32);
    let long = cursor_peak_bytes(&mut chip, &culture, 512);
    assert!(
        long <= short + 4096,
        "peak memory scales with frame count: {short} bytes for 32 frames \
         vs {long} for 512"
    );
}
