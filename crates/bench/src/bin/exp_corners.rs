// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Extension experiment E-X2: process corners and temperature.
//!
//! The paper's chips must work across fab corners and operating
//! temperature; this experiment sweeps both and shows that (a) the
//! bandgap-referenced periphery and (b) the auto-calibration make the
//! DNA chip's current readout corner- and temperature-insensitive, while
//! an uncalibrated readout shifts visibly.

use bsa_bench::{banner, eng, pct, Table};
use bsa_circuit::mismatch::ProcessCorner;
use bsa_circuit::mosfet::{Mosfet, MosfetParams};
use bsa_circuit::reference::BandgapReference;
use bsa_core::dna_chip::{DnaPixel, DnaPixelConfig, PixelVariation};
use bsa_units::{Ampere, Kelvin, Seconds, Volt};

fn main() {
    banner(
        "E-X2",
        "§2 periphery (bandgap/current references, auto-calibration)",
        "readout must be corner- and temperature-insensitive",
    );

    // (a) Raw device current across corners at fixed bias — what the
    // periphery has to fight.
    let mut t = Table::new(
        "Sensor-FET current at fixed bias across process corners",
        &["corner", "I_D (V_G = 1.2 V)", "vs TT"],
    );
    let i_tt = Mosfet::try_new(MosfetParams::n05um(10.0, 2.0))
        .expect("corner parameters are valid")
        .drain_current(Volt::new(1.2), Volt::ZERO, Volt::new(2.5));
    for corner in ProcessCorner::ALL {
        let params = corner.apply(MosfetParams::n05um(10.0, 2.0));
        let i = Mosfet::try_new(params)
            .expect("corner parameters are valid")
            .drain_current(Volt::new(1.2), Volt::ZERO, Volt::new(2.5));
        t.add_row(vec![
            format!("{corner:?}"),
            eng(i.value(), "A"),
            format!("{:+.1} %", (i.value() / i_tt.value() - 1.0) * 100.0),
        ]);
    }
    t.print();
    println!();

    // (b) Bandgap over temperature: the reference the DACs divide from.
    let bg = BandgapReference::typical_5v();
    let mut t = Table::new(
        "Bandgap reference over temperature (5 V supply)",
        &["temperature", "V_ref", "vs 300 K"],
    );
    let v300 = bg.output(Kelvin::new(300.0), Volt::new(5.0));
    for temp in [273.0, 300.0, 310.0, 330.0, 350.0] {
        let v = bg.output(Kelvin::new(temp), Volt::new(5.0));
        t.add_row(vec![
            eng(temp, "K"),
            format!("{v}"),
            eng((v - v300).value(), "V"),
        ]);
    }
    t.print();
    println!(
        "Box tempco 273–350 K: {:.1} ppm/K.",
        bg.tempco_ppm_per_k(Kelvin::new(273.0), Kelvin::new(350.0), Volt::new(5.0))
    );
    println!();

    // (c) Converter gain error across corners, uncalibrated vs calibrated.
    // Corners shift C_int (oxide thickness) and the comparator offset; we
    // model a corner as a systematic pixel variation.
    let mut t = Table::new(
        "DNA-pixel current recovery across corners (1 nA applied)",
        &["corner", "uncalibrated error", "calibrated error"],
    );
    let i = Ampere::from_nano(1.0);
    let frame = Seconds::new(10.0);
    for (name, c_err, v_off_mv) in [
        ("TT", 0.0, 0.0),
        ("FF (thin ox: +3 % C, −15 mV)", 0.03, -15.0),
        ("SS (thick ox: −3 % C, +15 mV)", -0.03, 15.0),
    ] {
        let var = PixelVariation {
            c_int_rel_err: c_err,
            comparator_offset: Volt::from_milli(v_off_mv),
            delay_rel_err: 0.0,
        };
        let mut p = DnaPixel::with_variation(DnaPixelConfig::default(), var);
        let count = p.convert_ideal(i, frame);
        let est = p.estimate_current(count, frame);
        let uncal = (est.value() - i.value()).abs() / i.value();
        // Calibrate against the on-chip 10 nA reference.
        let i_ref = Ampere::from_nano(10.0);
        let ref_count = p.convert_ideal(i_ref, frame);
        let k = i_ref.value() / p.estimate_current(ref_count, frame).value();
        p.set_gain_correction(k);
        let est2 = p.estimate_current(count, frame);
        let cal = (est2.value() - i.value()).abs() / i.value();
        t.add_row(vec![name.to_string(), pct(uncal), pct(cal)]);
    }
    t.print();
    println!();
    println!("Auto-calibration collapses the corner-induced conversion-gain shift to the");
    println!("quantization floor — the reason the periphery carries calibration circuits.");
}
