// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-F3: the in-pixel sawtooth current-to-frequency converter
//! (paper Fig. 3).
//!
//! Reproduces (a) the sawtooth transient at the integration node, (b) the
//! frequency-vs-current transfer over the full 1 pA … 100 nA range, and
//! (c) the accuracy of off-chip current recovery from the counted pulses.

use bsa_bench::{banner, eng, Table};
use bsa_core::dna_chip::{DnaPixel, DnaPixelConfig};
use bsa_units::sweep::decades;
use bsa_units::{Ampere, Seconds};

fn main() {
    banner(
        "E-F3",
        "Fig. 3 (sawtooth current-to-frequency conversion)",
        "measured frequency approximately proportional to sensor current, 1 pA – 100 nA",
    );

    let config = DnaPixelConfig::default();
    println!(
        "Converter design: C_int = {}, ΔV = {}, dead time = {}",
        config.c_int,
        config.delta_v,
        (config.comparator_delay + config.reset_width)
    );
    println!();

    // (a) Sawtooth transient for three representative currents.
    let pixel = DnaPixel::nominal(config.clone());
    let mut saw = Table::new(
        "Fig. 3 timing diagram: sawtooth ramps in a 100 µs window",
        &["sensor current", "ramps in window", "ramp period"],
    );
    for i_na in [10.0, 30.0, 100.0] {
        let i = Ampere::from_nano(i_na);
        let w = pixel
            .transient(i, Seconds::from_micro(100.0), Seconds::from_nano(10.0))
            .expect("nominal pixel transient");
        let mid = pixel.config().v_start.value() + 0.5 * pixel.config().delta_v.value();
        let ramps = w.rising_crossings(mid);
        saw.add_row(vec![
            eng(i.value(), "A"),
            ramps.to_string(),
            eng(pixel.period(i).value(), "s"),
        ]);
    }
    saw.print();
    println!();

    // (b) + (c) Transfer curve over five decades.
    let mut pixel = DnaPixel::nominal(config);
    let mut t = Table::new(
        "Transfer: frequency and recovered current vs sensor current",
        &[
            "I_sensor",
            "f ideal (I/Q)",
            "f actual",
            "linearity dev",
            "count (10 s)",
            "I recovered",
            "rel err",
        ],
    );
    let q = 100e-15; // C_int·ΔV
    let frame = Seconds::new(10.0);
    let mut worst_mid_dev: f64 = 0.0;
    for i_val in decades(1e-12, 100e-9, 5) {
        let i = Ampere::new(i_val);
        let f_ideal = i_val / q;
        let f_actual = pixel.frequency(i).value();
        let dev = (f_actual - f_ideal) / f_ideal;
        if (1e-11..1e-8).contains(&i_val) {
            worst_mid_dev = worst_mid_dev.max(dev.abs());
        }
        let count = pixel.convert_ideal(i, frame);
        let est = pixel.estimate_current(count, frame);
        let rel = (est.value() - i_val).abs() / i_val;
        t.add_row(vec![
            eng(i_val, "A"),
            eng(f_ideal, "Hz"),
            eng(f_actual, "Hz"),
            format!("{:.2} %", dev * 100.0),
            count.to_string(),
            eng(est.value(), "A"),
            format!("{:.2} %", rel * 100.0),
        ]);
    }
    t.print();
    println!();
    println!(
        "Shape check: proportional over the mid decades (worst deviation {:.3} %),",
        worst_mid_dev * 100.0
    );
    println!("dead-time compression appears only at the top of the range — as in the paper.");
}
