#![allow(clippy::unwrap_used)] // tests/benches unwrap idiomatically
//! Determinism contracts for the parallel readout engine: recordings must
//! be bit-identical across runs, across worker-thread counts and across
//! acquisition chunkings, because every noise draw comes from a
//! per-stream RNG seeded only by (die seed, stream identity) — never from
//! scheduling order or call boundaries.

use bsa_core::array::{ArrayGeometry, PixelAddress};
use bsa_core::dna_chip::{DnaChip, DnaChipConfig};
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig, Recording};
use bsa_core::{ScanMode, ScanOptions};
use bsa_faults::{FaultKind, InjectionPlan};
use bsa_neuro::culture::{Culture, CultureConfig, CulturedNeuron};
use bsa_neuro::firing::FiringPattern;
use bsa_neuro::junction::ApTemplate;
use bsa_rng::{channel_stream_seed, conversion_stream_seed, SmallRng};
use bsa_units::{Ampere, Hertz, Meter, Seconds, Volt};

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

/// A 16×32 die read out over the paper's 16 channels (two columns each),
/// with channel 5 lost and pixel (4, 20) clipping at ±1 µV: more channels
/// than threads, so workers claim channels in an order that changes from
/// run to run, and neither fault path may shift another channel's stream.
fn sixteen_channel_chip() -> NeuroChip {
    let mut chip = NeuroChip::new(NeuroChipConfig {
        geometry: ArrayGeometry::new(16, 32, Meter::from_micro(7.8)).unwrap(),
        frame_rate: Hertz::from_kilo(2.0),
        channels: 16,
        ..NeuroChipConfig::default()
    })
    .unwrap();
    let faults = InjectionPlan::new(7)
        .lose_channel(5)
        .at(
            4,
            20,
            FaultKind::GainClipping {
                limit: Volt::from_micro(1.0),
            },
        )
        .compile(16, 32);
    chip.inject_faults(&faults).unwrap();
    chip
}

const SIXTEEN_CHANNEL_FRAMES: usize = 20;

fn sixteen_channel_bits(opts: ScanOptions) -> Vec<u64> {
    let rec = sixteen_channel_chip().record_with(
        &test_culture(),
        Seconds::ZERO,
        SIXTEEN_CHANNEL_FRAMES,
        opts,
    );
    // The faults are live: the lost channel's columns read zero and the
    // clipped pixel stays within its limit, touching it at least once.
    let clipped: Vec<f64> = rec
        .frames()
        .iter()
        .map(|f| f.at(PixelAddress::new(4, 20)))
        .collect();
    assert!(clipped.iter().all(|v| v.abs() <= 1e-6), "{clipped:?}");
    assert!(clipped.iter().any(|v| v.abs() == 1e-6), "{clipped:?}");
    for f in rec.frames() {
        for row in 0..16 {
            assert_eq!(f.at(PixelAddress::new(row, 10)), 0.0);
            assert_eq!(f.at(PixelAddress::new(row, 11)), 0.0);
        }
    }
    rec.frames()
        .iter()
        .flat_map(|f| f.samples().iter().map(|s| s.to_bits()))
        .collect()
}

/// The same run drained from a cursor in `size`-frame chunks.
fn sixteen_channel_chunked_bits(opts: ScanOptions, size: usize) -> Vec<u64> {
    let culture = test_culture();
    let mut chip = sixteen_channel_chip();
    let mut acq = chip.acquire(&culture, Seconds::ZERO, opts);
    let mut samples = Vec::new();
    let mut done = 0;
    while done < SIXTEEN_CHANNEL_FRAMES {
        let n = size.min(SIXTEEN_CHANNEL_FRAMES - done);
        acq.next_chunk(&mut samples, n);
        done += n;
    }
    samples.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn sixteen_channels_are_identical_for_any_thread_count_and_chunking() {
    for mode in [ScanMode::Linearized, ScanMode::Reference] {
        let serial = sixteen_channel_bits(ScanOptions::serial().with_mode(mode));
        for threads in [2, 3, 16, 17] {
            assert!(
                sixteen_channel_bits(ScanOptions::with_threads(threads).with_mode(mode)) == serial,
                "{mode:?} with {threads} threads diverged from serial"
            );
        }
        for size in [3, 8] {
            assert!(
                sixteen_channel_chunked_bits(ScanOptions::with_threads(2).with_mode(mode), size)
                    == serial,
                "{mode:?} drained in {size}-frame chunks diverged from serial"
            );
        }
    }
}

/// A culture over the 16×32 die of [`sixteen_channel_chip`] that meets
/// every prune of the fast path's scatter compile: a silent neuron over
/// the middle of the die, a 10 µm neuron whose cull disc reaches only the
/// stripes next to channel 12's, a neuron centred on the edge between
/// channels 1 and 2, and a neuron over lost channel 5.
fn pruning_culture() -> Culture {
    let pitch = 7.8;
    let neuron = |col: f64, row: f64, diameter: f64, spikes_ms: &[f64]| CulturedNeuron {
        x: Meter::from_micro(pitch * col),
        y: Meter::from_micro(pitch * row),
        diameter: Meter::from_micro(diameter),
        pattern: FiringPattern::Silent,
        template: ApTemplate::nominal().clone().scaled(3.0),
        spikes: spikes_ms.iter().map(|&t| Seconds::from_milli(t)).collect(),
    };
    let mut culture = Culture::empty(
        Meter::from_micro(pitch * 32.0),
        Meter::from_micro(pitch * 16.0),
    );
    culture.push(neuron(16.0, 8.0, 80.0, &[]));
    culture.push(neuron(25.0, 6.0, 10.0, &[0.4, 3.1, 7.3]));
    culture.push(neuron(4.0, 9.0, 40.0, &[1.2, 5.5]));
    culture.push(neuron(11.0, 3.0, 30.0, &[0.8, 4.0]));
    culture
}

/// Raw bits of every sample of a recording, frame after frame.
fn recording_bits(rec: &Recording) -> Vec<u64> {
    rec.frames()
        .iter()
        .flat_map(|f| f.samples().iter().map(|s| s.to_bits()))
        .collect()
}

#[test]
fn pruned_scatter_compile_matches_one_serial_record() {
    let culture = pruning_culture();
    let frames = SIXTEEN_CHANNEL_FRAMES;
    for mode in [ScanMode::Linearized, ScanMode::Reference] {
        let record = |culture: &Culture, opts: ScanOptions| {
            sixteen_channel_chip().record_with(culture, Seconds::ZERO, frames, opts.with_mode(mode))
        };
        let serial = record(&culture, ScanOptions::serial());
        // The neurons that do spike show on both sides of the stripe edge,
        // so the case is not vacuous.
        let quiet = record(
            &Culture::empty(culture.width(), culture.height()),
            ScanOptions::serial(),
        );
        for col in [3, 4, 25] {
            assert!(
                serial.frames().iter().zip(quiet.frames()).any(|(a, b)| {
                    a.at(PixelAddress::new(9, col)) != b.at(PixelAddress::new(9, col))
                        || a.at(PixelAddress::new(6, col)) != b.at(PixelAddress::new(6, col))
                }),
                "{mode:?}: the culture never reaches column {col}"
            );
        }
        let serial = recording_bits(&serial);
        for threads in [1, 2, 3, 16] {
            let opts = ScanOptions::with_threads(threads).with_mode(mode);
            assert!(
                recording_bits(&record(&culture, opts)) == serial,
                "{mode:?} with {threads} threads diverged from one serial record"
            );
            for size in [3, 8] {
                let mut chip = sixteen_channel_chip();
                let mut acq = chip.acquire(&culture, Seconds::ZERO, opts);
                let mut samples = Vec::new();
                let mut done = 0;
                while done < frames {
                    let n = size.min(frames - done);
                    acq.next_chunk(&mut samples, n);
                    done += n;
                }
                let bits: Vec<u64> = samples.iter().map(|s| s.to_bits()).collect();
                assert!(
                    bits == serial,
                    "{mode:?} with {threads} threads in {size}-frame chunks diverged"
                );
            }
        }
    }
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

/// Any chunking of a cursor — sizes from 1 frame to past both the
/// 32-frame scan cap and the 50-frame recalibration interval — is
/// bit-identical to one `record_with`, in both scan modes, serial and
/// auto threads, calibrated and uncalibrated. 12 seeded random chunkings;
/// a failure names its case, whose seed is its index.
#[test]
fn any_chunking_matches_one_shot_record() {
    let culture = test_culture();
    for case in 0..12 {
        let mut rng = SmallRng::seed_from_u64(case);
        let count = rng.gen_range(1..8);
        let sizes: Vec<usize> = (0..count).map(|_| rng.gen_range(1..65)).collect();
        for mode in [ScanMode::Linearized, ScanMode::Reference] {
            for threads in [ScanOptions::serial(), ScanOptions::default()] {
                let opts = threads.with_mode(mode);
                for calibrated in [true, false] {
                    assert_eq!(
                        chunked_bits(&culture, opts, calibrated, &sizes),
                        one_shot_bits(&culture, opts, calibrated),
                        "case {case}: {opts:?}, calibrated: {calibrated}, chunks {sizes:?}"
                    );
                }
            }
        }
    }
}

/// Channel streams never alias for any die seed: 256 channels (16×
/// the paper's channel count) produce 256 distinct seeds, and none
/// collides with the raw die seed itself. 256 random die seeds.
#[test]
fn channel_streams_do_not_alias() {
    for case in 0..256 {
        let die_seed = SmallRng::seed_from_u64(case).next_u64();
        let mut seen = std::collections::BTreeSet::new();
        for ch in 0..256usize {
            let s = channel_stream_seed(die_seed, ch);
            assert!(
                seen.insert(s),
                "case {case}: channel {ch} aliased another stream"
            );
            assert_ne!(s, die_seed, "case {case}");
        }
    }
}

/// Conversion streams stay distinct across epochs and pixels for any
/// die seed — repeated conversions of the 16×8 array never replay a
/// pixel's noise stream. 256 random die seeds.
#[test]
fn conversion_streams_do_not_alias() {
    for case in 0..256 {
        let die_seed = SmallRng::seed_from_u64(case).next_u64();
        let mut seen = std::collections::BTreeSet::new();
        for epoch in 0..16u64 {
            for pixel in 0..128usize {
                let s = conversion_stream_seed(die_seed, epoch, pixel);
                assert!(
                    seen.insert(s),
                    "case {case}: epoch {epoch} pixel {pixel} aliased another stream"
                );
            }
        }
    }
}
