// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-F6a: per-pixel calibration of the neural array
//! (paper Fig. 6, M1/M2/S1 and the calibration phase).
//!
//! Measures the zero-signal output spread of the full 128×128 array
//! before and after calibration, the droop of the stored calibration over
//! time, and the residual error budget (charge injection, M2 mismatch).

use bsa_bench::{banner, eng, times, Table};
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig, NeuroPixel, NeuroPixelConfig};
use bsa_dsp::stats::RunningStats;
use bsa_rng::SmallRng;
use bsa_units::{Seconds, Volt};

fn main() {
    banner(
        "E-F6a",
        "Fig. 6 (sensor-transistor calibration)",
        "signals of 100 µV–5 mV require calibrating M1 against its parameter variations",
    );

    // (a) Pixel-level current spread, uncalibrated vs calibrated.
    let mut rng = SmallRng::seed_from_u64(99);
    let n = 2048;
    let mut uncal = RunningStats::new();
    let mut cal = RunningStats::new();
    let mut injected = RunningStats::new();
    for _ in 0..n {
        let mut p = NeuroPixel::sample(NeuroPixelConfig::default(), &mut rng)
            .expect("default config valid");
        uncal.push(p.read(Volt::ZERO, Seconds::ZERO).value());
        p.calibrate(Seconds::ZERO);
        cal.push(p.read(Volt::ZERO, Seconds::ZERO).value());
        injected.push(p.read(Volt::ZERO, Seconds::ZERO).value());
    }
    // Signal scale: a calibrated pixel's response to 1 mV.
    let mut probe = NeuroPixel::nominal(NeuroPixelConfig::default()).expect("default config valid");
    probe.calibrate(Seconds::ZERO);
    let signal_1mv = (probe.read(Volt::from_milli(1.0), Seconds::ZERO)
        - probe.read(Volt::ZERO, Seconds::ZERO))
    .value();
    let signal_100uv = signal_1mv / 10.0;

    let mut t = Table::new(
        format!("Difference-current spread over {n} pixels (σ of ΔI at V_cleft = 0)"),
        &["condition", "σ(ΔI)", "vs 100 µV signal", "vs 5 mV signal"],
    );
    for (name, stats) in [("uncalibrated", &uncal), ("calibrated", &cal)] {
        let sd = stats.std_dev();
        t.add_row(vec![
            name.to_string(),
            eng(sd, "A"),
            times(sd / signal_100uv),
            times(sd / (signal_1mv * 5.0)),
        ]);
    }
    t.print();
    println!();
    println!(
        "Calibration improvement: ×{:.0}. Uncalibrated offsets bury a 100 µV signal ({}×).",
        uncal.std_dev() / cal.std_dev(),
        (uncal.std_dev() / signal_100uv).round()
    );
    println!(
        "The post-calibration residual ({:.1}× a 100 µV signal) is a *static* pattern —",
        cal.std_dev() / signal_100uv
    );
    println!("charge injection and M2 mismatch — removed by per-pixel baseline subtraction;");
    println!("only calibration makes the array usable at all at these signal levels.");
    println!();

    // (b) Droop between recalibrations: the *added* drift since refresh.
    let mut t = Table::new(
        "Stored-calibration droop: drift added since the last refresh",
        &["time since cal", "σ(ΔI)", "added drift (input-referred)"],
    );
    let mut pixels: Vec<NeuroPixel> = (0..512)
        .map(|_| {
            NeuroPixel::sample(NeuroPixelConfig::default(), &mut rng).expect("default config valid")
        })
        .collect();
    for p in &mut pixels {
        p.calibrate(Seconds::ZERO);
    }
    let gm = probe.conversion_gain(Seconds::ZERO).value();
    let mut sigma0 = 0.0;
    for t_ms in [0.0, 10.0, 50.0, 200.0, 1000.0] {
        let now = Seconds::from_milli(t_ms);
        let stats: RunningStats = pixels
            .iter()
            .map(|p| p.read(Volt::ZERO, now).value())
            .collect();
        let sd = stats.std_dev();
        if t_ms == 0.0 {
            sigma0 = sd;
        }
        let added = (sd * sd - sigma0 * sigma0).max(0.0).sqrt();
        t.add_row(vec![
            eng(t_ms * 1e-3, "s"),
            eng(sd, "A"),
            eng(added / gm, "V"),
        ]);
    }
    t.print();
    println!();
    println!("At the 50 ms recalibration interval the added drift stays well below the");
    println!("100 µV signal floor; left for a second it grows past it — why the paper");
    println!("performs the calibration *periodically*, rows in parallel.");
    println!();

    // (c) Full-chip offset map spread through the complete signal chain.
    let mut chip = NeuroChip::new(NeuroChipConfig::default()).expect("default config valid");
    chip.calibrate(Seconds::ZERO);
    let map = chip.offset_map(Seconds::ZERO);
    let stats: RunningStats = map.iter().copied().collect();
    let gain = chip.nominal_voltage_gain();
    println!(
        "Full 128×128 chip, chain output: offset σ = {} ({} input-referred), gain = {:.0} V/V.",
        eng(stats.std_dev(), "V"),
        eng(stats.std_dev() / gain, "V"),
        gain
    );
}
