// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-F4: the full 16×8 DNA microarray chip (paper Fig. 4).
//!
//! Exercises the periphery around the pixel array: auto-calibration
//! against the on-chip current references, five-decade dynamic range of
//! the whole array, and integrity of the 6-pin serial readout.

use bsa_bench::{banner, eng, pct, sig, times, Table};
use bsa_core::dna_chip::{decode_frames, DnaChip, DnaChipConfig, PIN_COUNT};
use bsa_units::sweep::decades;
use bsa_units::Ampere;

fn main() {
    banner(
        "E-F4",
        "Fig. 4 (16×8 DNA microarray chip with periphery)",
        "8×16 sensor array, auto-calibration, D/A converters, 6-pin serial interface",
    );

    let config = DnaChipConfig::default();
    let mut chip = DnaChip::new(config).expect("default config valid");
    println!(
        "Chip: {}×{} = {} sensor sites, {}-pin interface, 0.5 µm/5 V process model.",
        chip.geometry().rows(),
        chip.geometry().cols(),
        chip.geometry().len(),
        PIN_COUNT
    );
    println!();

    // (a) Auto-calibration.
    let report = chip.auto_calibrate();
    let mut t = Table::new(
        "Auto-calibration: conversion-gain spread across the 128 pixels",
        &["quantity", "value"],
    );
    t.add_row(vec![
        "relative spread before calibration".into(),
        pct(report.spread_before),
    ]);
    t.add_row(vec![
        "relative spread after calibration".into(),
        pct(report.spread_after),
    ]);
    t.add_row(vec!["improvement".into(), times(report.improvement())]);
    t.add_row(vec![
        "pixel yield (dead-pixel screen)".into(),
        format!(
            "{} ({} dead)",
            pct(report.yield_fraction()),
            report.dead_pixels.len()
        ),
    ]);
    t.print();
    println!();

    // (b) Electrochemical DAC sweep.
    let mut t = Table::new(
        "Electrochemical D/A converter (bandgap-referenced)",
        &["code", "electrode voltage"],
    );
    for code in [0u32, 64, 128, 192, 255] {
        t.add_row(vec![
            code.to_string(),
            format!("{}", chip.electrode_voltage(code)),
        ]);
    }
    t.print();
    println!();

    // (c) Array-wide dynamic range: one decade per pair of columns.
    let n = chip.geometry().len();
    let ladder = decades(1e-12, 100e-9, 5);
    let currents: Vec<Ampere> = (0..n)
        .map(|k| Ampere::new(ladder[k % ladder.len()]))
        .collect();
    let counts = chip
        .measure_currents(&currents)
        .expect("one current per pixel");
    let estimates = chip
        .estimate_currents(&counts)
        .expect("one count per pixel");
    let mut t = Table::new(
        "Array dynamic range: recovered vs applied current (median per decade)",
        &["applied", "median recovered", "median |rel err|"],
    );
    for target in &ladder {
        let mut errs: Vec<f64> = Vec::new();
        let mut recs: Vec<f64> = Vec::new();
        for (i, c) in currents.iter().enumerate() {
            if (c.value() - target).abs() / target < 1e-9 {
                recs.push(estimates[i].value());
                errs.push((estimates[i].value() - target).abs() / target);
            }
        }
        recs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        t.add_row(vec![
            eng(*target, "A"),
            eng(recs[recs.len() / 2], "A"),
            pct(errs[errs.len() / 2]),
        ]);
    }
    t.print();
    println!();

    // (d) Serial interface integrity over the full array.
    let readout = chip.run_assay(&bsa_core::dna_chip::SampleMix::new());
    let bits = chip.serial_readout(&readout);
    let decoded = decode_frames(&bits).expect("stream decodes");
    let intact = decoded
        .iter()
        .zip(readout.to_readings().iter())
        .all(|(a, b)| a == b);
    println!(
        "Serial readout: {} bits for {} sites, decoded losslessly: {intact}",
        bits.len(),
        decoded.len()
    );
    println!(
        "Bits per site: {} (sync + address + 24-bit count + checksum).",
        bits.len() / decoded.len()
    );
    let _ = sig(0.0, 1);
}
