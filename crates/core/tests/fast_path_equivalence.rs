#![allow(clippy::unwrap_used, clippy::panic)] // tests unwrap and panic idiomatically
//! Equivalence contracts between the linearized fast path (the default
//! [`ScanMode::Linearized`]) and the full-solve reference path
//! ([`ScanMode::Reference`]).
//!
//! The two paths share the culture sum, the chain arithmetic and the
//! per-channel RNG streams bit-for-bit; their only divergence is the
//! first-order EKV expansion of the pixel current. DESIGN.md §13 bounds
//! that divergence at the chain output by
//!
//! ```text
//! |fast − reference| ≤ (G / c) · (c·v_max + ΔV_droop)² / (2 · n · U_T) · margin
//! ```
//!
//! with `G` the nominal cleft→output voltage gain, `c` the capacitive
//! coupling ratio, `n` the EKV slope factor, `U_T` the thermal voltage
//! and `ΔV_droop` the largest stored-gate droop excursion since the last
//! re-linearization (bounded by the recalibration interval). These tests
//! assert that bound (with its documented safety margin for per-pixel gm
//! spread), exact behavior at lost channels and dead arrays, and
//! determinism of both paths across thread counts.

use bsa_core::array::{ArrayGeometry, PixelAddress};
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig, Recording};
use bsa_core::scan::{ScanMode, ScanOptions};
use bsa_faults::{FaultKind, InjectionPlan};
use bsa_neuro::culture::{Culture, CultureConfig, CulturedNeuron};
use bsa_neuro::firing::FiringPattern;
use bsa_neuro::junction::{ApTemplate, CleftJunction};
use bsa_rng::SmallRng;
use bsa_units::consts::thermal_voltage;
use bsa_units::{Hertz, Meter, Seconds, Volt};

fn small_config(seed: u64) -> NeuroChipConfig {
    NeuroChipConfig {
        geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
        frame_rate: Hertz::from_kilo(2.0),
        channels: 4,
        seed,
        ..NeuroChipConfig::default()
    }
}

/// A culture with one well-coupled spiking neuron over pixel (8, 8), as
/// in the frame tests — large enough signal to make linearization error
/// visible if the bound were wrong.
fn spiking_culture() -> Culture {
    let template = ApTemplate::from_hh(&CleftJunction::nominal(), Seconds::new(10e-6)).scaled(3.0);
    let mut culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
    let geometry = ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap();
    let (x, y) = geometry.position_of(PixelAddress::new(8, 8));
    culture.push(CulturedNeuron {
        x,
        y,
        diameter: Meter::from_micro(30.0),
        pattern: FiringPattern::Silent,
        template,
        spikes: vec![Seconds::from_micro(2100.0), Seconds::from_micro(31000.0)],
    });
    culture
}

/// Largest |cleft voltage| the culture presents anywhere on the array
/// over the recording window, by dense sampling of electrode positions
/// and frame/row times.
fn peak_cleft_voltage(culture: &Culture, cfg: &NeuroChipConfig, frames: usize) -> f64 {
    let g = cfg.geometry;
    let frame_period = cfg.frame_rate.recip().value();
    let row_period = frame_period / g.rows() as f64;
    let mut vmax = 0.0f64;
    for f in 0..frames {
        for r in 0..g.rows() {
            let t = Seconds::new(f as f64 * frame_period + r as f64 * row_period);
            for c in 0..g.cols() {
                let (x, y) = g.position_of(PixelAddress::new(r, c));
                vmax = vmax.max(culture.cleft_voltage_at(x, y, t).value().abs());
            }
        }
    }
    vmax
}

/// The DESIGN.md §13 output-referred tolerance for a recording of this
/// chip: the second-order EKV term of the combined gate excursion (cleft
/// signal plus worst-case stored-gate droop since re-linearization),
/// times a 4× margin covering per-pixel gm spread around the nominal
/// gain. `duration` is the recording length, which caps the droop
/// excursion for recordings shorter than the recalibration interval.
fn output_tolerance(rec: &Recording, cfg: &NeuroChipConfig, vmax: f64, duration: Seconds) -> f64 {
    let n = cfg.pixel.sensor_fet.slope_factor;
    let ut = thermal_voltage(cfg.pixel.sensor_fet.temperature).value();
    let c = cfg.pixel.coupling_ratio;
    let g = rec.nominal_voltage_gain();
    // Per-pixel droop rates are N(0, droop_rate_v_per_s); 6σ bounds the
    // whole array with overwhelming probability.
    let dt = duration.value().min(cfg.recalibration_interval.value());
    let dv = 6.0 * cfg.pixel.droop_rate_v_per_s * dt;
    let excursion = c * vmax + dv;
    g / c * excursion * excursion / (2.0 * n * ut) * 4.0 + 1e-12
}

/// Length of a `frames`-frame recording at the config's frame rate.
fn duration(cfg: &NeuroChipConfig, frames: usize) -> Seconds {
    Seconds::new(frames as f64 * cfg.frame_rate.recip().value())
}

fn max_abs_diff(a: &Recording, b: &Recording) -> f64 {
    assert_eq!(a.len(), b.len());
    a.frames()
        .iter()
        .zip(b.frames())
        .flat_map(|(fa, fb)| fa.samples().iter().zip(fb.samples()))
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

fn record_pair(
    cfg: &NeuroChipConfig,
    culture: &Culture,
    frames: usize,
    faults: Option<&bsa_faults::CompiledFaults>,
) -> (Recording, Recording) {
    let mut fast_chip = NeuroChip::new(cfg.clone()).unwrap();
    let mut ref_chip = NeuroChip::new(cfg.clone()).unwrap();
    if let Some(f) = faults {
        fast_chip.inject_faults(f).unwrap();
        ref_chip.inject_faults(f).unwrap();
    }
    let fast = fast_chip.record_with(culture, Seconds::ZERO, frames, ScanOptions::default());
    let reference = ref_chip.record_with(culture, Seconds::ZERO, frames, ScanOptions::reference());
    (fast, reference)
}

#[test]
fn fast_path_matches_reference_within_documented_tolerance() {
    let cfg = small_config(0x0EE5_1281);
    let culture = spiking_culture();
    let frames = 12;
    let (fast, reference) = record_pair(&cfg, &culture, frames, None);
    let vmax = peak_cleft_voltage(&culture, &cfg, frames);
    assert!(vmax > 100e-6, "test culture must actually spike: {vmax}");
    let tol = output_tolerance(&reference, &cfg, vmax, duration(&cfg, frames));
    let diff = max_abs_diff(&fast, &reference);
    assert!(
        diff <= tol,
        "fast path diverged {diff} V from reference, tolerance {tol} V"
    );
    // The bound must be meaningful: far below the signal swing itself.
    let swing = reference.nominal_voltage_gain() * vmax;
    assert!(tol < 0.2 * swing, "tolerance {tol} vs swing {swing}");
}

#[test]
fn fast_path_stays_within_tolerance_across_recalibration_boundaries() {
    // 120 frames at 2 kHz = 60 ms > the 50 ms recalibration interval, so
    // the scan crosses a re-linearization boundary mid-recording.
    let cfg = small_config(0x0EE5_1281);
    let culture = spiking_culture();
    let frames = 120;
    let (fast, reference) = record_pair(&cfg, &culture, frames, None);
    let vmax = peak_cleft_voltage(&culture, &cfg, frames);
    let tol = output_tolerance(&reference, &cfg, vmax, duration(&cfg, frames));
    let diff = max_abs_diff(&fast, &reference);
    assert!(diff <= tol, "diff {diff} V, tolerance {tol} V");
}

#[test]
fn lost_channel_is_exactly_silent_in_both_paths() {
    let cfg = small_config(7);
    let culture = spiking_culture();
    // 16 columns over 4 channels: channel 2 serves columns 8–11 — right
    // under the spiking neuron.
    let faults = InjectionPlan::new(33).lose_channel(2).compile(16, 16);
    let (fast, reference) = record_pair(&cfg, &culture, 6, Some(&faults));
    for rec in [&fast, &reference] {
        for frame in rec.frames() {
            for row in 0..16 {
                for col in 8..12 {
                    assert_eq!(
                        frame.at(PixelAddress::new(row, col)),
                        0.0,
                        "lost channel must read exactly zero in every path"
                    );
                }
            }
        }
    }
}

#[test]
fn masked_pixel_health_and_output_match_across_paths() {
    let cfg = small_config(11);
    let culture = spiking_culture();
    let faults = InjectionPlan::new(44)
        .at(8, 8, FaultKind::DeadPixel)
        .at(3, 12, FaultKind::DeadPixel)
        .compile(16, 16);

    let mut fast_chip = NeuroChip::new(cfg.clone()).unwrap();
    let mut ref_chip = NeuroChip::new(cfg.clone()).unwrap();
    fast_chip.inject_faults(&faults).unwrap();
    ref_chip.inject_faults(&faults).unwrap();
    let frames = 8;
    let fast = fast_chip.record_with(&culture, Seconds::ZERO, frames, ScanOptions::default());
    let reference = ref_chip.record_with(&culture, Seconds::ZERO, frames, ScanOptions::reference());

    // Health classification is scan-mode independent.
    assert_eq!(
        fast_chip.health().dead_indices(),
        ref_chip.health().dead_indices(),
        "self-test masks must not depend on the scan mode"
    );
    assert!(fast_chip
        .health()
        .dead_indices()
        .contains(&(8 * 16 + 8usize)));

    // A dead pixel injects exactly zero current in both paths, so its
    // sample differs only through the shared chain state — which differs
    // only by the linearization of its live neighbors.
    let vmax = peak_cleft_voltage(&culture, &cfg, frames);
    let tol = output_tolerance(&reference, &cfg, vmax, duration(&cfg, frames));
    for addr in [PixelAddress::new(8, 8), PixelAddress::new(3, 12)] {
        let fs = fast.pixel_series(addr);
        let rs = reference.pixel_series(addr);
        for (a, b) in fs.iter().zip(&rs) {
            assert!((a - b).abs() <= tol, "masked pixel diverged: {a} vs {b}");
        }
    }
}

#[test]
fn all_dead_array_is_bitwise_identical_across_paths() {
    // With every pixel dead, both paths see identically zero currents, so
    // the recordings must agree bit for bit — any divergence would mean
    // the fast path mishandles noise streams or chain state.
    let cfg = small_config(13);
    let culture = spiking_culture();
    let faults = InjectionPlan::new(55)
        .array_wide(1.0, FaultKind::DeadPixel)
        .compile(16, 16);
    let (fast, reference) = record_pair(&cfg, &culture, 6, Some(&faults));
    assert_eq!(
        fast, reference,
        "all-dead array must be bit-identical across scan modes"
    );
}

#[test]
fn reference_mode_is_bit_identical_across_thread_counts() {
    let cfg = small_config(17);
    let culture = spiking_culture();
    let record = |opts: ScanOptions| {
        let mut chip = NeuroChip::new(cfg.clone()).unwrap();
        chip.record_with(&culture, Seconds::ZERO, 6, opts)
    };
    let serial = record(ScanOptions::serial().with_mode(ScanMode::Reference));
    for threads in [2, 3, 4, 8] {
        let parallel = record(ScanOptions::with_threads(threads).with_mode(ScanMode::Reference));
        assert_eq!(serial, parallel, "reference mode diverged at {threads}");
    }
    let auto = record(ScanOptions::reference());
    assert_eq!(serial, auto, "reference auto-thread run diverged");
}

#[test]
fn fast_mode_is_bit_identical_across_thread_counts() {
    let cfg = small_config(19);
    let culture = spiking_culture();
    let record = |opts: ScanOptions| {
        let mut chip = NeuroChip::new(cfg.clone()).unwrap();
        chip.record_with(&culture, Seconds::ZERO, 6, opts)
    };
    let serial = record(ScanOptions::serial());
    for threads in [2, 3, 4, 8] {
        let parallel = record(ScanOptions::with_threads(threads));
        assert_eq!(serial, parallel, "fast mode diverged at {threads}");
    }
}

/// A small random fault plan: up to two dead pixels, an optional clipped
/// pixel and an optional lost channel.
fn arb_faults(rng: &mut SmallRng) -> InjectionPlan {
    let mut plan = InjectionPlan::new(rng.next_u64());
    for _ in 0..rng.gen_range(0..3) {
        plan = plan.at(
            rng.gen_range(0..16),
            rng.gen_range(0..16),
            FaultKind::DeadPixel,
        );
    }
    if rng.gen_bool(0.5) {
        plan = plan.at(
            rng.gen_range(0..16),
            rng.gen_range(0..16),
            FaultKind::GainClipping {
                limit: Volt::from_milli(50.0),
            },
        );
    }
    if rng.gen_bool(0.5) {
        plan = plan.lose_channel(rng.gen_range(0..4));
    }
    plan
}

/// Over random cultures, die seeds and fault plans, the fast path
/// stays inside the documented tolerance of the reference path, and
/// remains bit-identical across thread counts. 12 seeded random cases; a
/// failure names its case, whose seed is its index.
#[test]
fn equivalence_over_random_cultures_and_faults() {
    for case in 0..12 {
        let mut rng = SmallRng::seed_from_u64(case);
        let cfg = small_config(rng.next_u64());
        let culture_seed = rng.next_u64();
        let culture_cfg = CultureConfig {
            neuron_count: rng.gen_range(0..6),
            ..CultureConfig::default()
        };
        let frames = rng.gen_range(2..7);
        let faults = arb_faults(&mut rng).compile(16, 16);
        let mut rng = SmallRng::seed_from_u64(culture_seed);
        let mut culture = Culture::random(&culture_cfg, &mut rng);
        culture.generate_spikes(Seconds::from_milli(frames as f64 * 0.5), &mut rng);

        let (fast, reference) = record_pair(&cfg, &culture, frames, Some(&faults));
        let vmax = peak_cleft_voltage(&culture, &cfg, frames);
        let tol = output_tolerance(&reference, &cfg, vmax, duration(&cfg, frames));
        let diff = max_abs_diff(&fast, &reference);
        assert!(
            diff <= tol,
            "case {case}: diff {diff} V vs tolerance {tol} V"
        );

        let chip = || {
            let mut chip =
                NeuroChip::new(cfg.clone()).unwrap_or_else(|e| panic!("case {case}: {e}"));
            chip.inject_faults(&faults)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            chip
        };
        let a = chip().record_with(&culture, Seconds::ZERO, frames, ScanOptions::serial());
        let b = chip().record_with(
            &culture,
            Seconds::ZERO,
            frames,
            ScanOptions::with_threads(3),
        );
        assert_eq!(a, b, "case {case}");
    }
}
