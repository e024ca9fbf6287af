//! Extension experiment E-X3: noise floors of the two readout paths.
//!
//! The paper's detection limits (1 pA currents, 100 µV potentials) are set
//! by noise. This experiment measures, in simulation, (a) the counting
//! noise of the DNA pixel's converter vs current — shot-noise limited at
//! the bottom of the range — and (b) the spectral noise floor of a neural
//! channel, and checks both against the analytic models in
//! `bsa_circuit::noise`.

use bsa_bench::{banner, eng, sig, Table};
use bsa_circuit::noise::{shot_current_density, white_rms};
use bsa_core::dna_chip::{DnaPixel, DnaPixelConfig};
use bsa_core::neuro_chip::{ChainConfig, ChannelChain};
use bsa_dsp::spectrum::Periodogram;
use bsa_dsp::stats::RunningStats;
use bsa_rng::SmallRng;
use bsa_units::{Ampere, Hertz, Seconds};

fn main() {
    banner(
        "E-X3",
        "§2/§3 detection limits (1 pA, 100 µV)",
        "shot noise bounds the converter at low currents; channel noise bounds the 100 µV floor",
    );

    // (a) Converter counting noise vs current.
    let mut rng = SmallRng::seed_from_u64(1);
    let mut t = Table::new(
        "DNA converter: relative count noise over one 10 s frame",
        &[
            "I_sensor",
            "mean count",
            "σ(count)",
            "relative",
            "shot-limit prediction",
        ],
    );
    let frame = Seconds::new(10.0);
    for i_val in [1e-12, 10e-12, 100e-12, 1e-9, 10e-9] {
        let i = Ampere::new(i_val);
        let mut pixel = DnaPixel::nominal(DnaPixelConfig::default());
        let stats: RunningStats = (0..400)
            .map(|_| pixel.convert(i, frame, &mut rng).count as f64)
            .collect();
        // Shot-limit: σ_N/N = sqrt(1/(N·n_e)) with n_e electrons per ramp,
        // plus the ±1 quantization floor.
        let n_e = 100e-15 / bsa_units::consts::ELEMENTARY_CHARGE;
        let n = stats.mean();
        let predicted = ((n / n_e + 1.0 / 12.0).sqrt()) / n;
        t.add_row(vec![
            eng(i_val, "A"),
            sig(stats.mean(), 4),
            sig(stats.std_dev(), 3),
            format!("{:.2e}", stats.rel_spread()),
            format!("{predicted:.2e}"),
        ]);
    }
    t.print();
    println!();
    println!(
        "Shot density at 1 pA: {} — integrated over the frame this is the",
        eng(shot_current_density(Ampere::from_pico(1.0)), "A²/Hz")
    );
    println!("counting fluctuation the table shows; the converter is shot-noise-limited.");
    println!();

    // (b) Neural channel noise spectrum at zero signal.
    let mut chain = ChannelChain::sample(ChainConfig::default(), &mut rng);
    chain.calibrate();
    let fs = Hertz::from_kilo(2.0); // per-pixel sample rate at 2 kfps
    let dwell = Seconds::from_nano(488.0);
    let samples: Vec<f64> = (0..4096)
        .map(|_| {
            chain.reset_settling();
            chain.process_sample(Ampere::ZERO, dwell, &mut rng).value()
        })
        .collect();
    let p = Periodogram::compute(&samples, fs);
    let floor = p.noise_floor(Hertz::new(100.0), Hertz::new(900.0));
    let gain = chain.current_gain() * chain.config().conversion_resistance.value();
    let input_floor_a = floor.sqrt() / gain;
    let mut t = Table::new(
        "Neural channel output noise (zero signal, per-pixel 2 kS/s)",
        &["quantity", "value"],
    );
    t.add_row(vec![
        "output PSD floor".into(),
        format!("{:.2e} V²/Hz", floor),
    ]);
    t.add_row(vec![
        "input-referred current density".into(),
        format!("{} /√Hz", eng(input_floor_a, "A")),
    ]);
    let total_rms = p.band_power(Hertz::new(1.0), Hertz::new(1000.0)).sqrt();
    t.add_row(vec![
        "output RMS (1 Hz – 1 kHz)".into(),
        eng(total_rms, "V"),
    ]);
    let spec_rms = white_rms(
        (chain.config().input_noise.value() * gain).powi(2),
        Hertz::new(1.0),
    );
    t.add_row(vec!["per-sample RMS from spec".into(), eng(spec_rms, "V")]);
    let input_v = total_rms / gain / 24e-6 * 1e6; // vs a 24 µS/0.8 pixel
    t.add_row(vec![
        "input-referred voltage RMS".into(),
        format!("{:.1} µV (vs the 100 µV floor)", input_v),
    ]);
    let slope = p.loglog_slope(Hertz::new(20.0), Hertz::new(800.0));
    t.add_row(vec![
        "PSD log-log slope".into(),
        format!("{slope:.2} (white ≈ 0)"),
    ]);
    t.print();
}
