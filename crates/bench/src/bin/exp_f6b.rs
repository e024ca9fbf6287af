// Experiment binaries abort on broken I/O or impossible configs by design.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Experiment E-F6b: the readout signal chain (paper Fig. 6, right half).
//!
//! Verifies the gain partitioning ×100 (on-chip, BW 4 MHz) × ×7 × 8:1 mux
//! × output driver (BW 32 MHz) × ×4 × ×2 (off-chip) = 5600, the gain-stage
//! calibration, amplitude linearity across the 100 µV – 5 mV window, and
//! the settling/crosstalk penalty of pushing the frame rate.

use bsa_bench::{banner, eng, pct, sig, Table};
use bsa_core::array::ArrayGeometry;
use bsa_core::neuro_chip::{ChainConfig, ChannelChain, NeuroPixel, NeuroPixelConfig, ScanTiming};
use bsa_dsp::stats::RunningStats;
use bsa_rng::SmallRng;
use bsa_units::{Ampere, Hertz, Seconds, Volt};

fn main() {
    banner(
        "E-F6b",
        "Fig. 6 (complete signal path)",
        "on-chip ×100 and ×7, off-chip ×4 and ×2; readout amp BW 4 MHz, driver BW 32 MHz",
    );

    let mut rng = SmallRng::seed_from_u64(7);

    // (a) Gain-stage calibration across 16 channels.
    let mut channels: Vec<ChannelChain> = (0..16)
        .map(|_| ChannelChain::sample(ChainConfig::default(), &mut rng))
        .collect();
    let before: RunningStats = channels.iter().map(|c| c.current_gain()).collect();
    for c in &mut channels {
        c.calibrate();
    }
    let after: RunningStats = channels.iter().map(|c| c.current_gain()).collect();
    let mut t = Table::new(
        "16-channel gain spread (nominal 100·7·4·2 = 5600)",
        &["condition", "mean gain", "σ/µ"],
    );
    t.add_row(vec![
        "before stage calibration".into(),
        sig(before.mean(), 4),
        pct(before.rel_spread()),
    ]);
    t.add_row(vec![
        "after stage calibration".into(),
        sig(after.mean(), 4),
        pct(after.rel_spread()),
    ]);
    t.print();
    println!();

    // (b) End-to-end amplitude linearity over the paper's signal window.
    let mut pixel =
        NeuroPixel::sample(NeuroPixelConfig::default(), &mut rng).expect("default config valid");
    pixel.calibrate(Seconds::ZERO);
    let mut chain = channels[0].clone();
    let mut quiet_cfg = chain.config().clone();
    quiet_cfg.input_noise = Ampere::ZERO;
    let dwell = Seconds::from_nano(488.0);
    let mut t = Table::new(
        "End-to-end transfer: cleft signal → chain output (single sample)",
        &["V_cleft", "ΔI pixel", "V_out", "effective gain (V/V)"],
    );
    let mut chain_quiet = ChannelChain::sample(quiet_cfg, &mut rng);
    chain_quiet.calibrate();
    let base = pixel.read(Volt::ZERO, Seconds::ZERO);
    for v_uv in [100.0, 300.0, 1000.0, 3000.0, 5000.0] {
        let v = Volt::from_micro(v_uv);
        let i = pixel.read(v, Seconds::ZERO) - base;
        chain_quiet.reset_settling();
        // Settle on the value (two dwells) to remove the step transient.
        chain_quiet.process_sample(i, dwell, &mut rng);
        let out = chain_quiet.process_sample(i, dwell, &mut rng);
        t.add_row(vec![
            eng(v.value(), "V"),
            eng(i.value(), "A"),
            eng(out.value(), "V"),
            sig(out.value() / v.value(), 3),
        ]);
    }
    t.print();
    println!();
    println!(
        "Chain current gain ×{:.0}; pixel transconductance makes the overall",
        chain.current_gain()
    );
    println!("cleft-to-output voltage gain shown in the last column (≈ g_m·k·5600·R_conv).");
    println!();

    // (c) Frame-rate ablation: settling residue (crosstalk) vs frame rate.
    let geometry = ArrayGeometry::neuro_128x128();
    let mut t = Table::new(
        "Mux settling ablation: crosstalk from the previous pixel vs frame rate",
        &["frame rate", "pixel dwell", "residual crosstalk"],
    );
    for rate_k in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let timing = ScanTiming::new(geometry, Hertz::from_kilo(rate_k), 16).expect("valid timing");
        // Big step, then zero: fraction of the step surviving one dwell.
        chain.reset_settling();
        let mut cfg = chain.config().clone();
        cfg.input_noise = Ampere::ZERO;
        let mut c = ChannelChain::sample(cfg, &mut rng);
        c.calibrate();
        let step = Ampere::from_nano(100.0);
        let full = c.process_sample(step, Seconds::from_micro(100.0), &mut rng);
        c.reset_settling();
        c.process_sample(step, timing.pixel_dwell, &mut rng);
        let residue = c.process_sample(Ampere::ZERO, timing.pixel_dwell, &mut rng);
        t.add_row(vec![
            eng(rate_k * 1e3, "Hz"),
            eng(timing.pixel_dwell.value(), "s"),
            pct((residue.value() / full.value()).abs()),
        ]);
    }
    t.print();
    println!();
    println!("At the paper's 2 kframes/s the 488 ns dwell settles fully through the");
    println!("4 MHz readout amplifier; pushing the frame rate ≳8× makes the previous");
    println!("pixel bleed into the next — the BW numbers in Fig. 6 are sized for 2 kfps.");
}
