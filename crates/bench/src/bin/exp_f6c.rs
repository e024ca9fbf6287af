// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-F6c: full-array neural recording (paper §3, Figs. 5–6).
//!
//! Records a cultured network with the 128×128 chip at 2 kframes/s,
//! detects action potentials per pixel, and checks that every firing
//! neuron is localized by the activity map regardless of its position —
//! plus a frame-rate ablation for spike recall.

use bsa_bench::{banner, eng, pct, sig, Table};
use bsa_core::array::PixelAddress;
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig};
use bsa_dsp::frames::FrameStack;
use bsa_dsp::spike::{score_detections, SpikeDetector};
use bsa_neuro::culture::{Culture, CultureConfig};
use bsa_rng::SmallRng;
use bsa_units::{Hertz, Meter, Seconds};

fn record_stack(chip: &mut NeuroChip, culture: &Culture, frames: usize) -> FrameStack {
    let rec = chip.record(culture, Seconds::ZERO, frames);
    let g = rec.geometry();
    let gain = rec.nominal_voltage_gain();
    let frames: Vec<Vec<f64>> = rec
        .frames()
        .iter()
        .map(|f| f.samples().iter().map(|s| s / gain).collect())
        .collect();
    FrameStack::new(g.rows(), g.cols(), frames)
}

fn main() {
    banner(
        "E-F6c",
        "Figs. 5–6 (128×128 array recording at 2 kframes/s)",
        "each cell monitored independent of position; amplitudes 100 µV – 5 mV",
    );

    let mut rng = SmallRng::seed_from_u64(2026);
    let cfg = CultureConfig {
        neuron_count: 12,
        mean_rate_hz: 30.0,
        ..CultureConfig::default()
    };
    let mut culture = Culture::random(&cfg, &mut rng);
    let duration = Seconds::from_milli(250.0);
    culture.generate_spikes(duration, &mut rng);

    let mut chip = NeuroChip::new(NeuroChipConfig::default()).expect("valid config");
    let timing = chip.timing();
    println!(
        "Recording {} neurons for {} at {} ({} frames of {}×{} pixels, dwell {}).",
        culture.neurons().len(),
        duration,
        timing.frame_rate,
        (duration.value() * timing.frame_rate.value()).round() as usize,
        chip.config().geometry.rows(),
        chip.config().geometry.cols(),
        eng(timing.pixel_dwell.value(), "s"),
    );
    let frames = (duration.value() * timing.frame_rate.value()).round() as usize;
    let stack = record_stack(&mut chip, &culture, frames).detrended();
    println!(
        "Recorded. Total culture spikes: {}.",
        culture.total_spikes()
    );
    println!();

    // (a) Localization: suprathreshold events detected per pixel — a
    // spike-count map over the surface.
    let geometry = chip.config().geometry;
    let detector = SpikeDetector::default();
    let event_map: Vec<usize> = (0..geometry.rows())
        .flat_map(|r| {
            let stack = &stack;
            let detector = &detector;
            (0..geometry.cols()).map(move |c| detector.detect(&stack.pixel_series(r, c)).len())
        })
        .collect();
    let total_events: usize = event_map.iter().sum();
    let active_pixels = event_map.iter().filter(|e| **e > 0).count();
    let mut t = Table::new(
        "Neuron localization via the per-pixel spike-event map",
        &[
            "neuron",
            "position (µm)",
            "diameter",
            "true spikes",
            "events under soma",
            "localized",
        ],
    );
    let mut localized = 0usize;
    for (k, n) in culture.neurons().iter().enumerate() {
        let row = ((n.y.value() / geometry.pitch().value()) as usize).min(geometry.rows() - 1);
        let col = ((n.x.value() / geometry.pitch().value()) as usize).min(geometry.cols() - 1);
        // Events summed over every pixel under the soma footprint — the
        // paper's claim is that *some* pixel monitors each cell.
        let reach = (n.radius().value() / geometry.pitch().value()).ceil() as i64;
        let mut events = 0usize;
        for dr in -reach..=reach {
            for dc in -reach..=reach {
                let r = row as i64 + dr;
                let c = col as i64 + dc;
                if r < 0 || c < 0 || r >= geometry.rows() as i64 || c >= geometry.cols() as i64 {
                    continue;
                }
                let (px, py) = geometry
                    .position_of(bsa_core::array::PixelAddress::new(r as usize, c as usize));
                let dist = ((px - n.x).value().powi(2) + (py - n.y).value().powi(2)).sqrt();
                if dist <= n.radius().value() {
                    events += event_map[r as usize * geometry.cols() + c as usize];
                }
            }
        }
        let is_localized = !n.spikes.is_empty() && events >= 1;
        localized += is_localized as usize;
        t.add_row(vec![
            k.to_string(),
            format!("({:.0}, {:.0})", n.x.as_micro(), n.y.as_micro()),
            eng(n.diameter.value(), "m"),
            n.spikes.len().to_string(),
            events.to_string(),
            is_localized.to_string(),
        ]);
    }
    t.print();
    let firing = culture
        .neurons()
        .iter()
        .filter(|n| !n.spikes.is_empty())
        .count();
    println!();
    println!(
        "Localized {localized}/{firing} firing neurons; {active_pixels}/{} pixels saw events ({} events total).",
        geometry.len(),
        total_events
    );
    // Export the spike-event map as an image artifact.
    let map: Vec<f64> = event_map.iter().map(|e| *e as f64).collect();
    let pgm = std::path::Path::new("target/experiments/f6c_event_map.pgm");
    if bsa_bench::save_pgm(pgm, &map, geometry.rows(), geometry.cols()).is_ok() {
        println!("Spike-event map image written to {}.", pgm.display());
    }
    println!();

    // (b) Per-pixel spike detection at the best-coupled neuron.
    let best = culture
        .neurons()
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.spikes.is_empty())
        .max_by(|a, b| {
            a.1.template
                .amplitude()
                .partial_cmp(&b.1.template.amplitude())
                .unwrap()
        })
        .map(|(k, _)| k)
        .expect("at least one firing neuron");
    let n = &culture.neurons()[best];
    let row = ((n.y.value() / geometry.pitch().value()) as usize).min(geometry.rows() - 1);
    let col = ((n.x.value() / geometry.pitch().value()) as usize).min(geometry.cols() - 1);
    let series = stack.pixel_series(row, col);
    let det = SpikeDetector::default().detect(&series);
    let truth: Vec<usize> = n
        .spikes
        .iter()
        .map(|s| (s.value() * timing.frame_rate.value()) as usize)
        .filter(|f| *f < series.len())
        .collect();
    let score = score_detections(&det, &truth, 3);
    println!(
        "Spike detection at neuron {best}'s pixel ({row}, {col}): recall {} precision {} (truth {}, detected {}).",
        pct(score.recall()),
        pct(score.precision()),
        truth.len(),
        det.len()
    );
    println!();

    // (c) Frame-rate ablation on a smaller array (16×16 under one neuron).
    let mut t = Table::new(
        "Frame-rate ablation: spike recall at the soma pixel (16×16 sub-array)",
        &["frame rate", "recall", "precision"],
    );
    for rate_k in [0.5, 1.0, 2.0, 4.0] {
        let sub_cfg = NeuroChipConfig {
            geometry: bsa_core::array::ArrayGeometry::new(16, 16, Meter::from_micro(7.8))
                .expect("valid geometry"),
            channels: 4,
            frame_rate: Hertz::from_kilo(rate_k),
            ..NeuroChipConfig::default()
        };
        let mut sub = NeuroChip::new(sub_cfg).expect("valid config");
        // Single well-coupled neuron mid-array, regular 20 Hz firing.
        let mut c1 = Culture::empty(Meter::from_milli(1.0), Meter::from_milli(1.0));
        let (x, y) = sub.config().geometry.position_of(PixelAddress::new(8, 8));
        let template = bsa_neuro::junction::ApTemplate::from_hh(
            &bsa_neuro::junction::CleftJunction::nominal(),
            Seconds::new(10e-6),
        )
        .scaled(3.0);
        let mut rng2 = SmallRng::seed_from_u64(5);
        let pattern = bsa_neuro::firing::FiringPattern::Regular {
            rate_hz: 20.0,
            phase: 0.13,
            jitter_s: 1e-3,
        };
        let spikes = pattern.generate(Seconds::from_milli(500.0), &mut rng2);
        c1.push(bsa_neuro::culture::CulturedNeuron {
            x,
            y,
            diameter: Meter::from_micro(40.0),
            pattern,
            template,
            spikes: spikes.clone(),
        });
        let frames = (0.5 * rate_k * 1e3).round() as usize;
        let stack = record_stack(&mut sub, &c1, frames).detrended();
        let series = stack.pixel_series(8, 8);
        let det = SpikeDetector::default().detect(&series);
        let truth: Vec<usize> = spikes
            .iter()
            .map(|s| (s.value() * rate_k * 1e3) as usize)
            .filter(|f| *f < series.len())
            .collect();
        let score = score_detections(&det, &truth, 3);
        t.add_row(vec![
            eng(rate_k * 1e3, "Hz"),
            pct(score.recall()),
            pct(score.precision()),
        ]);
    }
    t.print();
    println!();
    println!("Sub-millisecond APs need ≥2 kframes/s for reliable capture — the paper's");
    println!("full-frame-rate choice.");
    let _ = sig(0.0, 1);
}
