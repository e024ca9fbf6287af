// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-F5: the cell–chip junction (paper Fig. 5).
//!
//! Sweeps the point-contact model: cleft height vs seal resistance and
//! action-potential amplitude at the sensor, and checks that the 7.8 µm
//! pixel pitch covers every neuron position for the paper's 10–100 µm
//! neuron diameters.

use bsa_bench::{banner, eng, sig, Table};
use bsa_neuro::junction::{ApTemplate, CleftJunction};
use bsa_units::{Meter, Seconds};

fn main() {
    banner(
        "E-F5",
        "Fig. 5 (capacitively probed cleft under a neuron)",
        "~60 nm cleft; sensor signals 100 µV – 5 mV; 7.8 µm pitch monitors every cell position",
    );

    let dt = Seconds::new(10e-6);

    // (a) Cleft-height sweep at fixed 20 µm contact.
    let mut t = Table::new(
        "Cleft height vs seal resistance and AP amplitude at the sensor",
        &["cleft height", "R_seal", "AP peak-to-peak at sensor"],
    );
    for h_nm in [20.0, 40.0, 60.0, 100.0, 200.0] {
        let j = CleftJunction::new(Meter::from_nano(h_nm), Meter::from_micro(10.0), 0.7)
            .expect("valid junction");
        let template = ApTemplate::from_hh(&j, dt);
        t.add_row(vec![
            eng(h_nm * 1e-9, "m"),
            eng(j.seal_resistance().value(), "Ω"),
            eng(template.amplitude().value(), "V"),
        ]);
    }
    t.print();
    println!();

    // (b) Contact-size sweep at the nominal 60 nm cleft.
    let mut t = Table::new(
        "Contact radius vs AP amplitude (60 nm cleft)",
        &["contact radius", "attached area", "AP peak-to-peak"],
    );
    let mut amplitudes = Vec::new();
    for r_um in [3.0, 5.0, 10.0, 20.0, 40.0] {
        let j = CleftJunction::new(Meter::from_nano(60.0), Meter::from_micro(r_um), 0.7)
            .expect("valid junction");
        let template = ApTemplate::from_hh(&j, dt);
        amplitudes.push(template.amplitude().value());
        t.add_row(vec![
            eng(r_um * 1e-6, "m"),
            format!("{:.0} µm²", j.contact_area().value() * 1e12),
            eng(template.amplitude().value(), "V"),
        ]);
    }
    t.print();
    println!();
    let lo = amplitudes.iter().cloned().fold(f64::MAX, f64::min);
    let hi = amplitudes.iter().cloned().fold(0.0, f64::max);
    println!(
        "Amplitude window across physiological geometry: {} – {} (paper: 100 µV – 5 mV).",
        eng(lo, "V"),
        eng(hi, "V")
    );
    println!();

    // (c) Pitch coverage: worst-case number of pixels receiving ≥50 % of
    // the junction signal (soma footprint plus its Gaussian skirt,
    // σ = r/2) for a neuron of diameter d, over all grid placements.
    let pitch = 7.8e-6;
    let mut t = Table::new(
        "Pixel coverage vs neuron diameter (7.8 µm pitch, ≥50 % coupling)",
        &["neuron diameter", "worst-case coupled pixels", "monitored"],
    );
    for d_um in [10.0, 20.0, 50.0, 100.0] {
        let d = d_um * 1e-6;
        let r = d / 2.0;
        // ≥50 % coupling reach: w(d) = exp(−½((d−r)/(r/2))²) ≥ 0.5.
        let reach_50 = r * (1.0 + 0.5 * (2.0f64.ln() * 2.0).sqrt());
        // Worst case over sub-pixel offsets of the soma center.
        let mut worst = usize::MAX;
        let steps = 20;
        for ox in 0..steps {
            for oy in 0..steps {
                let cx = ox as f64 / steps as f64 * pitch;
                let cy = oy as f64 / steps as f64 * pitch;
                let mut covered = 0usize;
                let span = (reach_50 / pitch).ceil() as i64 + 1;
                for gx in -span..=span {
                    for gy in -span..=span {
                        let px = gx as f64 * pitch;
                        let py = gy as f64 * pitch;
                        if ((px - cx).powi(2) + (py - cy).powi(2)).sqrt() <= reach_50 {
                            covered += 1;
                        }
                    }
                }
                worst = worst.min(covered);
            }
        }
        t.add_row(vec![
            eng(d, "m"),
            worst.to_string(),
            (worst >= 1).to_string(),
        ]);
    }
    t.print();
    println!();
    println!("Every neuron of ≥10 µm diameter covers at least one pixel at any position —");
    println!("the paper's claim that the pitch monitors each cell independent of position.");
    let _ = sig(0.0, 1);
}
