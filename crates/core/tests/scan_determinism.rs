#![allow(clippy::unwrap_used)] // tests/benches unwrap idiomatically
//! Determinism contracts for the parallel readout engine: recordings must
//! be bit-identical across runs, across worker-thread counts and across
//! acquisition chunkings, because every noise draw comes from a
//! per-stream RNG seeded only by (die seed, stream identity) — never from
//! scheduling order or call boundaries.

use bsa_core::array::ArrayGeometry;
use bsa_core::dna_chip::{DnaChip, DnaChipConfig};
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig, Recording};
use bsa_core::scan::{channel_stream_seed, conversion_stream_seed};
use bsa_core::{ScanMode, ScanOptions};
use bsa_neuro::culture::{Culture, CultureConfig};
use bsa_units::{Ampere, Hertz, Meter, Seconds};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn neuro_config() -> NeuroChipConfig {
    NeuroChipConfig {
        geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
        frame_rate: Hertz::from_kilo(2.0),
        channels: 4,
        ..NeuroChipConfig::default()
    }
}

fn test_culture() -> Culture {
    let cfg = CultureConfig::default();
    let mut rng = SmallRng::seed_from_u64(42);
    Culture::random(&cfg, &mut rng)
}

fn record_fresh(opts: ScanOptions) -> Recording {
    let mut chip = NeuroChip::new(neuro_config()).unwrap();
    chip.record_with(&test_culture(), Seconds::ZERO, 6, opts)
}

#[test]
fn neuro_recording_is_identical_across_runs() {
    let a = record_fresh(ScanOptions::default());
    let b = record_fresh(ScanOptions::default());
    assert_eq!(a, b, "two identically seeded runs must match bit-for-bit");
}

#[test]
fn neuro_recording_is_identical_across_thread_counts() {
    let serial = record_fresh(ScanOptions::serial());
    for threads in [2, 3, 4, 8] {
        let parallel = record_fresh(ScanOptions::with_threads(threads));
        assert_eq!(
            serial, parallel,
            "recording with {threads} worker threads diverged from serial"
        );
    }
    let auto = record_fresh(ScanOptions::default());
    assert_eq!(serial, auto, "auto thread count diverged from serial");
}

#[test]
fn neuro_uncalibrated_recording_is_thread_count_independent() {
    let culture = test_culture();
    let mut a = NeuroChip::new(neuro_config()).unwrap();
    let mut b = NeuroChip::new(neuro_config()).unwrap();
    let ra = a.record_uncalibrated_with(&culture, Seconds::ZERO, 4, ScanOptions::serial());
    let rb = b.record_uncalibrated_with(&culture, Seconds::ZERO, 4, ScanOptions::with_threads(4));
    assert_eq!(ra, rb);
}

#[test]
fn dna_repeated_conversions_draw_fresh_noise_but_reproduce() {
    // Same chip, two conversions: different epochs → different noise.
    let currents: Vec<Ampere> = vec![Ampere::from_nano(5.0); 128];
    let mut chip = DnaChip::new(DnaChipConfig::default()).unwrap();
    let first = chip.measure_currents(&currents).unwrap();
    let second = chip.measure_currents(&currents).unwrap();
    assert_ne!(first, second, "conversion epochs must advance the noise");

    // A fresh chip replays the exact same epoch sequence.
    let mut replay = DnaChip::new(DnaChipConfig::default()).unwrap();
    assert_eq!(replay.measure_currents(&currents).unwrap(), first);
    assert_eq!(replay.measure_currents(&currents).unwrap(), second);
}

/// Frames of 16×16 over 4 channels, recalibrating every 25 ms (50 frames)
/// so a 120-frame run crosses recalibrations at frames 50 and 100 and
/// one-shot scan chunks hit the 32-frame cap in between.
const CHUNKED_FRAMES: usize = 120;

fn chunked_config() -> NeuroChipConfig {
    NeuroChipConfig {
        recalibration_interval: Seconds::from_milli(25.0),
        ..neuro_config()
    }
}

/// Raw bits of every sample of a one-shot recording, frame after frame.
fn one_shot_bits(culture: &Culture, opts: ScanOptions, calibrated: bool) -> Vec<u64> {
    let mut chip = NeuroChip::new(chunked_config()).unwrap();
    let rec = if calibrated {
        chip.record_with(culture, Seconds::ZERO, CHUNKED_FRAMES, opts)
    } else {
        chip.record_uncalibrated_with(culture, Seconds::ZERO, CHUNKED_FRAMES, opts)
    };
    rec.frames()
        .iter()
        .flat_map(|f| f.samples().iter().map(|s| s.to_bits()))
        .collect()
}

/// Raw bits of the same run drained from a cursor in the given chunk
/// sizes, cycling through them until `CHUNKED_FRAMES` frames are out.
fn chunked_bits(
    culture: &Culture,
    opts: ScanOptions,
    calibrated: bool,
    sizes: &[usize],
) -> Vec<u64> {
    let mut chip = NeuroChip::new(chunked_config()).unwrap();
    let mut acq = if calibrated {
        chip.acquire(culture, Seconds::ZERO, opts)
    } else {
        chip.acquire_uncalibrated(culture, Seconds::ZERO, opts)
    };
    let mut samples = Vec::new();
    let mut done = 0;
    for &size in sizes.iter().cycle() {
        if done == CHUNKED_FRAMES {
            break;
        }
        let n = size.min(CHUNKED_FRAMES - done);
        let before = samples.len();
        acq.next_chunk(&mut samples, n);
        assert_eq!(
            samples.len() - before,
            n * 256,
            "next_chunk appends exactly n frames"
        );
        done += n;
    }
    samples.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any chunking of a cursor — sizes from 1 frame to past both the
    /// 32-frame scan cap and the 50-frame recalibration interval — is
    /// bit-identical to one `record_with`, in both scan modes, serial and
    /// auto threads, calibrated and uncalibrated.
    #[test]
    fn any_chunking_matches_one_shot_record(sizes in prop::collection::vec(1usize..=64, 1..8)) {
        let culture = test_culture();
        for mode in [ScanMode::Linearized, ScanMode::Reference] {
            for threads in [ScanOptions::serial(), ScanOptions::default()] {
                let opts = threads.with_mode(mode);
                for calibrated in [true, false] {
                    prop_assert_eq!(
                        chunked_bits(&culture, opts, calibrated, &sizes),
                        one_shot_bits(&culture, opts, calibrated),
                        "{:?}, calibrated: {}, chunks {:?}", opts, calibrated, sizes
                    );
                }
            }
        }
    }
}

proptest! {
    /// Channel streams never alias for any die seed: 256 channels (16×
    /// the paper's channel count) produce 256 distinct seeds, and none
    /// collides with the raw die seed itself.
    #[test]
    fn channel_streams_do_not_alias(die_seed in any::<u64>()) {
        let mut seen = std::collections::BTreeSet::new();
        for ch in 0..256usize {
            let s = channel_stream_seed(die_seed, ch);
            prop_assert!(seen.insert(s), "channel {ch} aliased another stream");
            prop_assert_ne!(s, die_seed);
        }
    }

    /// Conversion streams stay distinct across epochs and pixels for any
    /// die seed — repeated conversions of the 16×8 array never replay a
    /// pixel's noise stream.
    #[test]
    fn conversion_streams_do_not_alias(die_seed in any::<u64>()) {
        let mut seen = std::collections::BTreeSet::new();
        for epoch in 0..16u64 {
            for pixel in 0..128usize {
                let s = conversion_stream_seed(die_seed, epoch, pixel);
                prop_assert!(
                    seen.insert(s),
                    "epoch {epoch} pixel {pixel} aliased another stream"
                );
            }
        }
    }
}
