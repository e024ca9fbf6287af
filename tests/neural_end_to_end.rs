#![allow(clippy::unwrap_used)] // tests/benches unwrap idiomatically
//! End-to-end integration: neuron models → junction → neural chip → DSP.

use cmos_biosensor_arrays::chips::array::{ArrayGeometry, PixelAddress};
use cmos_biosensor_arrays::chips::neuro_chip::{NeuroChip, NeuroChipConfig};
use cmos_biosensor_arrays::dsp::frames::FrameStack;
use cmos_biosensor_arrays::dsp::spike::{score_detections, SpikeDetector};
use cmos_biosensor_arrays::neuro::culture::{Culture, CulturedNeuron};
use cmos_biosensor_arrays::neuro::firing::FiringPattern;
use cmos_biosensor_arrays::neuro::junction::{ApTemplate, CleftJunction};
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::{Meter, Seconds};

fn small_chip() -> NeuroChip {
    let cfg = NeuroChipConfig {
        geometry: ArrayGeometry::new(16, 16, Meter::from_micro(7.8)).unwrap(),
        channels: 4,
        ..NeuroChipConfig::default()
    };
    NeuroChip::new(cfg).unwrap()
}

fn neuron_at(chip: &NeuroChip, row: usize, col: usize, spikes: Vec<Seconds>) -> CulturedNeuron {
    let (x, y) = chip
        .config()
        .geometry
        .position_of(PixelAddress::new(row, col));
    let template = ApTemplate::from_hh(&CleftJunction::nominal(), Seconds::new(10e-6)).scaled(3.0);
    CulturedNeuron {
        x,
        y,
        diameter: Meter::from_micro(40.0),
        pattern: FiringPattern::Silent,
        template,
        spikes,
    }
}

fn input_referred_stack(chip: &mut NeuroChip, culture: &Culture, frames: usize) -> FrameStack {
    let rec = chip.record(culture, Seconds::ZERO, frames);
    let gain = rec.nominal_voltage_gain();
    FrameStack::new(
        rec.geometry().rows(),
        rec.geometry().cols(),
        rec.frames()
            .iter()
            .map(|f| f.samples().iter().map(|s| s / gain).collect())
            .collect(),
    )
    .detrended()
}

#[test]
fn spike_train_recovered_at_the_soma_pixel() {
    let mut chip = small_chip();
    // Regular 20 Hz train for 200 ms = 4 spikes, offset to land mid-frame.
    let spikes: Vec<Seconds> = (0..4)
        .map(|k| Seconds::from_milli(30.0 + 50.0 * k as f64))
        .collect();
    let mut culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
    culture.push(neuron_at(&chip, 8, 8, spikes.clone()));

    let frames = 400; // 200 ms at 2 kfps
    let stack = input_referred_stack(&mut chip, &culture, frames);
    let series = stack.pixel_series(8, 8);
    let detections = SpikeDetector::default().detect(&series);
    // Detections may align to the AP's broad repolarization phase, up to
    // ~2 ms (4 frames) after the upstroke.
    let truth: Vec<usize> = spikes
        .iter()
        .map(|s| (s.value() * 2000.0) as usize)
        .collect();
    let score = score_detections(&detections, &truth, 5);
    assert!(
        score.recall() >= 0.75,
        "recall = {} (detections {detections:?})",
        score.recall()
    );
    assert!(
        score.precision() >= 0.5,
        "precision = {}",
        score.precision()
    );
}

#[test]
fn two_neurons_resolved_at_distinct_pixels() {
    let mut chip = small_chip();
    let mut culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
    culture.push(neuron_at(&chip, 3, 3, vec![Seconds::from_milli(30.0)]));
    culture.push(neuron_at(&chip, 12, 12, vec![Seconds::from_milli(80.0)]));

    let stack = input_referred_stack(&mut chip, &culture, 240);
    let a = stack.pixel_series(3, 3);
    let b = stack.pixel_series(12, 12);
    // Each neuron's transient peaks in its own pixel at its own time.
    let peak_frame = |s: &[f64]| -> usize {
        s.iter()
            .enumerate()
            .max_by(|x, y| x.1.abs().partial_cmp(&y.1.abs()).unwrap())
            .unwrap()
            .0
    };
    let fa = peak_frame(&a);
    let fb = peak_frame(&b);
    assert!((55..75).contains(&fa), "neuron A peak frame {fa}");
    assert!((155..175).contains(&fb), "neuron B peak frame {fb}");
}

#[test]
fn calibration_ablation_buries_spikes() {
    let mut chip = small_chip();
    let spikes: Vec<Seconds> = (0..3)
        .map(|k| Seconds::from_milli(30.0 + 50.0 * k as f64))
        .collect();
    let mut culture = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
    culture.push(neuron_at(&chip, 8, 8, spikes));

    // Uncalibrated recording: raw offsets at the output dwarf the signal.
    let rec_uncal = chip.record_uncalibrated(&culture, Seconds::ZERO, 100);
    let frame = &rec_uncal.frames()[0];
    let mean = frame.samples().iter().sum::<f64>() / frame.samples().len() as f64;
    let spread = (frame
        .samples()
        .iter()
        .map(|x| (x - mean).powi(2))
        .sum::<f64>()
        / frame.samples().len() as f64)
        .sqrt();
    // Signal at the output for a ~1 mV cleft transient:
    let signal_scale = rec_uncal.nominal_voltage_gain() * 1e-3;
    assert!(
        spread > 4.0 * signal_scale,
        "uncalibrated offset spread {spread} must bury the {signal_scale} signal"
    );
}

#[test]
fn recording_is_deterministic_per_seed() {
    let make = || {
        let mut chip = small_chip();
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = cmos_biosensor_arrays::neuro::culture::CultureConfig {
            neuron_count: 3,
            ..Default::default()
        };
        let mut culture = Culture::random(&cfg, &mut rng);
        culture.generate_spikes(Seconds::from_milli(50.0), &mut rng);
        chip.record(&culture, Seconds::ZERO, 20)
    };
    let a = make();
    let b = make();
    assert_eq!(a.frames(), b.frames());
}

#[test]
fn rolling_shutter_orders_row_samples() {
    let chip = small_chip();
    let t = chip.timing();
    let t_first = t.sample_time(0, PixelAddress::new(0, 0));
    let t_last = t.sample_time(0, PixelAddress::new(15, 15));
    assert!(t_last > t_first);
    assert!(t_last.value() < t.frame_period.value());
}
