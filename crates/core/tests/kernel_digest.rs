#![allow(clippy::unwrap_used)] // tests/benches unwrap idiomatically
//! Golden digests of the neural scan kernels.
//!
//! Each digest is an FNV-1a hash over the `to_bits` of every sample of a
//! take, so any change to a sample's bits — a reordered sum, a fused
//! multiply-add, a noise draw moved — fails here, whatever the
//! experiments' rounded tables still print. The take covers the cases a
//! rewritten kernel must keep: a row count that is no multiple of any
//! small interleave width (13), a lost channel, a clipped pixel, a spiking
//! culture, recalibrations inside the take, several thread counts and a
//! cursor drained in uneven chunks. The constants were captured from the
//! scalar row-at-a-time kernels; the samplers' own bits are pinned
//! host-independently in `bsa-rng`'s golden test, so these hold on any
//! IEEE-754 host.

use bsa_core::array::ArrayGeometry;
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig};
use bsa_core::{ScanMode, ScanOptions};
use bsa_faults::{FaultKind, InjectionPlan};
use bsa_neuro::culture::{Culture, CultureConfig};
use bsa_rng::SmallRng;
use bsa_units::{Hertz, Meter, Seconds, Volt};

const PITCH_UM: f64 = 7.8;

/// FNV-1a over the little-endian bytes of each sample's bits.
fn digest<'a>(samples: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in samples {
        for b in s.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A 13-row, 128-column, 16-channel die recalibrating every 4 ms
/// (8 frames), with channel 5 lost and pixel (4, 20) clipped at 1 µV.
fn faulty_die() -> NeuroChip {
    let config = NeuroChipConfig {
        geometry: ArrayGeometry::new(13, 128, Meter::from_micro(PITCH_UM)).unwrap(),
        frame_rate: Hertz::from_kilo(2.0),
        channels: 16,
        recalibration_interval: Seconds::from_milli(4.0),
        ..NeuroChipConfig::default()
    };
    let mut chip = NeuroChip::new(config).unwrap();
    let faults = InjectionPlan::new(7)
        .lose_channel(5)
        .at(
            4,
            20,
            FaultKind::GainClipping {
                limit: Volt::from_micro(1.0),
            },
        )
        .compile(13, 128);
    chip.inject_faults(&faults).unwrap();
    chip
}

/// A dense, fast-firing culture over `rows × cols` pixels: 60 neurons at
/// 150 Hz, spikes generated over the first 40 ms.
fn busy_culture(rows: usize, cols: usize) -> Culture {
    let cfg = CultureConfig {
        width: Meter::from_micro(PITCH_UM * cols as f64),
        height: Meter::from_micro(PITCH_UM * rows as f64),
        neuron_count: 60,
        mean_rate_hz: 150.0,
        ..CultureConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(38);
    let mut culture = Culture::random(&cfg, &mut rng);
    culture.generate_spikes(Seconds::from_milli(40.0), &mut rng);
    culture
}

const FRAMES: usize = 40;

/// The faulty die's 40-frame linearized take.
const LINEAR_13_ROWS: u64 = 0xdcee_ea1e_4b4c_3444;
/// The same die and culture through the reference scan, 12 frames.
const REFERENCE_13_ROWS: u64 = 0x6cb7_8884_3e74_1dee;
/// The paper's 128×128 die under 20 neurons at 200 Hz, 6 frames.
const LINEAR_PAPER_DIE: u64 = 0x6d98_2463_acdb_0ad1;

fn record(opts: ScanOptions, frames: usize) -> u64 {
    let culture = busy_culture(13, 128);
    let mut chip = faulty_die();
    let rec = chip.record_with(&culture, Seconds::ZERO, frames, opts);
    digest(rec.frames().iter().flat_map(|f| f.samples()))
}

#[test]
fn the_culture_fires_inside_the_take() {
    let culture = busy_culture(13, 128);
    let take = Seconds::from_milli(FRAMES as f64 * 0.5);
    let spikes = culture
        .neurons()
        .iter()
        .flat_map(|n| &n.spikes)
        .filter(|s| s.value() < take.value())
        .count();
    assert!(spikes > 100, "only {spikes} spikes inside the take");
}

#[test]
fn linearized_kernel_is_pinned_at_every_thread_count() {
    for threads in [1, 2, 3] {
        assert_eq!(
            record(ScanOptions::with_threads(threads), FRAMES),
            LINEAR_13_ROWS,
            "{threads} thread(s)"
        );
    }
}

#[test]
fn linearized_kernel_is_pinned_through_uneven_chunks() {
    let culture = busy_culture(13, 128);
    let mut chip = faulty_die();
    let mut acq = chip.acquire(&culture, Seconds::ZERO, ScanOptions::with_threads(2));
    let mut out = Vec::new();
    let mut drawn = 0;
    for n in [3, 7, 1, 13, 5, 11] {
        acq.next_chunk(&mut out, n);
        drawn += n;
    }
    assert_eq!(drawn, FRAMES);
    assert_eq!(digest(&out), LINEAR_13_ROWS);
}

#[test]
fn reference_kernel_is_pinned() {
    let opts = ScanOptions {
        mode: ScanMode::Reference,
        ..ScanOptions::with_threads(2)
    };
    assert_eq!(record(opts, 12), REFERENCE_13_ROWS);
}

#[test]
fn paper_die_is_pinned() {
    let cfg = CultureConfig {
        mean_rate_hz: 200.0,
        ..CultureConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(1);
    let mut culture = Culture::random(&cfg, &mut rng);
    culture.generate_spikes(Seconds::from_milli(10.0), &mut rng);
    let mut chip = NeuroChip::new(NeuroChipConfig::default()).unwrap();
    let rec = chip.record_with(&culture, Seconds::ZERO, 6, ScanOptions::serial());
    assert_eq!(
        digest(rec.frames().iter().flat_map(|f| f.samples())),
        LINEAR_PAPER_DIE
    );
}
