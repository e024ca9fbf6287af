//! Noise generators and spectral densities.
//!
//! Detecting 1 pA sensor currents (DNA chip) and 100 µV neural signals means
//! the simulation must include the relevant noise floors:
//!
//! * **Thermal** channel noise, S_i = 4kT·γ·g_m;
//! * **Flicker (1/f)** noise, S_v = K_f / (C_ox·W·L·f), dominant at the low
//!   frequencies of electrochemical measurements;
//! * **Shot** noise of electrode currents, S_i = 2qI.
//!
//! Time-domain generation is deterministic given a seeded [`SmallRng`].
//! Gaussian samples come from `bsa-rng`'s Marsaglia polar
//! [`GaussianSampler`]; pink noise comes from a Voss–McCartney
//! octave-bank generator.

use bsa_rng::{GaussianSampler, SmallRng};
use bsa_units::consts::{BOLTZMANN, ELEMENTARY_CHARGE};
use bsa_units::{Ampere, Hertz, Kelvin, Seconds, Siemens};

/// Draws a Poisson-distributed count with the given mean.
///
/// Uses Knuth's product method for small means and a Gaussian approximation
/// above 64 (where the relative error of the approximation is < 1 %).
pub fn poisson(mean: f64, rng: &mut SmallRng) -> u64 {
    assert!(mean >= 0.0, "poisson mean must be non-negative");
    if mean == 0.0 {
        return 0;
    }
    if mean > 64.0 {
        let mut g = GaussianSampler::new();
        let x = mean + mean.sqrt() * g.sample(rng);
        return x.round().max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Thermal (Johnson) channel-current noise density 4kT·γ·g_m in A²/Hz.
///
/// `gamma` is the excess-noise factor (2/3 long-channel saturation).
pub fn thermal_current_density(gm: Siemens, gamma: f64, t: Kelvin) -> f64 {
    4.0 * BOLTZMANN * t.value() * gamma * gm.value()
}

/// Shot-noise current density 2qI in A²/Hz for a current crossing a barrier
/// (electrode currents, subthreshold channels).
pub fn shot_current_density(i: Ampere) -> f64 {
    2.0 * ELEMENTARY_CHARGE * i.value().abs()
}

/// Flicker-noise gate-voltage density K_f/(C_ox·W·L·f) in V²/Hz.
///
/// `kf` is the process flicker coefficient in V²·F (typ. 1e-24 for NMOS),
/// `cox_f_per_um2` the oxide capacitance per µm², `area_um2` the gate area.
///
/// # Panics
///
/// Panics if `f` is not strictly positive.
pub fn flicker_voltage_density(kf: f64, cox_f_per_um2: f64, area_um2: f64, f: Hertz) -> f64 {
    assert!(f.value() > 0.0, "flicker density needs f > 0");
    kf / (cox_f_per_um2 * area_um2 * f.value())
}

/// Converts a one-sided white density (X²/Hz) into the RMS of samples taken
/// with the given bandwidth: σ = sqrt(S · B).
pub fn white_rms(density: f64, bandwidth: Hertz) -> f64 {
    (density * bandwidth.value()).sqrt()
}

/// Streaming white-noise source with a fixed RMS per sample.
#[derive(Debug, Clone)]
pub struct WhiteNoise {
    rms: f64,
    gauss: GaussianSampler,
}

impl WhiteNoise {
    /// Creates a source whose samples have standard deviation `rms`.
    pub fn new(rms: f64) -> Self {
        Self {
            rms,
            gauss: GaussianSampler::new(),
        }
    }

    /// Creates a source for a one-sided density sampled at bandwidth `bw`.
    pub fn from_density(density: f64, bw: Hertz) -> Self {
        Self::new(white_rms(density, bw))
    }

    /// Next noise sample.
    pub fn next_sample(&mut self, rng: &mut SmallRng) -> f64 {
        self.rms * self.gauss.sample(rng)
    }

    /// The configured per-sample RMS.
    pub fn rms(&self) -> f64 {
        self.rms
    }
}

/// Voss–McCartney pink-noise (1/f) generator.
///
/// Maintains `octaves` white generators updated at octave-spaced rates; the
/// sum has a power spectral density within ±0.5 dB of 1/f over the covered
/// range. Output is scaled so the per-sample RMS equals `rms`.
#[derive(Debug, Clone)]
pub struct PinkNoise {
    rows: Vec<f64>,
    counter: u64,
    rms: f64,
    gauss: GaussianSampler,
}

impl PinkNoise {
    /// Creates a generator with the given number of octaves (frequency
    /// decades covered ≈ octaves · 0.3) and per-sample RMS.
    ///
    /// # Panics
    ///
    /// Panics if `octaves == 0` or `octaves > 48`.
    pub fn new(octaves: usize, rms: f64) -> Self {
        assert!(octaves > 0 && octaves <= 48, "octaves must be in 1..=48");
        Self {
            rows: vec![0.0; octaves],
            counter: 0,
            rms,
            gauss: GaussianSampler::new(),
        }
    }

    /// Next pink-noise sample.
    pub fn next_sample(&mut self, rng: &mut SmallRng) -> f64 {
        self.counter = self.counter.wrapping_add(1);
        // Row k updates every 2^k samples: trailing-zero trick. `rows` is
        // nonempty by construction (`new` asserts `octaves >= 1`), so the
        // clamp always lands on a row; `get_mut` keeps the method total
        // without relying on that invariant from here.
        let k = (self.counter.trailing_zeros() as usize).min(self.rows.len() - 1);
        if let Some(row) = self.rows.get_mut(k) {
            *row = self.gauss.sample(rng);
        }
        let sum: f64 = self.rows.iter().sum();
        // Normalize: sum of n independent N(0,1) rows has σ = sqrt(n).
        self.rms * sum / (self.rows.len() as f64).sqrt()
    }
}

/// Integrates shot noise over a counting interval: returns the actually
/// collected charge count for an ideal current `i` flowing for `dt`, as a
/// Poisson draw over elementary charges.
///
/// At the DNA chip's 1 pA lower limit, only ~6×10⁶ electrons/s arrive; over
/// a 10 ms frame that is a 2.5 σ ≈ 0.4 % counting fluctuation — visible in
/// the converter's low-current noise floor.
pub fn electrons_collected(i: Ampere, dt: Seconds, rng: &mut SmallRng) -> u64 {
    let mean = (i.value().abs() * dt.value()) / ELEMENTARY_CHARGE;
    poisson(mean, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(v: &[f64]) -> (f64, f64) {
        let n = v.len() as f64;
        let mean = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn poisson_small_mean() {
        let mut rng = SmallRng::seed_from_u64(3);
        let v: Vec<f64> = (0..50_000).map(|_| poisson(2.5, &mut rng) as f64).collect();
        let (mean, sd) = stats(&v);
        assert!((mean - 2.5).abs() < 0.05, "mean = {mean}");
        assert!((sd - 2.5f64.sqrt()).abs() < 0.05, "sd = {sd}");
    }

    #[test]
    fn poisson_large_mean_uses_gaussian() {
        let mut rng = SmallRng::seed_from_u64(4);
        let v: Vec<f64> = (0..20_000)
            .map(|_| poisson(1000.0, &mut rng) as f64)
            .collect();
        let (mean, sd) = stats(&v);
        assert!((mean - 1000.0).abs() < 2.0);
        assert!((sd - 1000.0f64.sqrt()).abs() < 1.0);
    }

    #[test]
    fn poisson_zero_mean() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn densities_have_expected_magnitudes() {
        use bsa_units::consts::ROOM_TEMPERATURE;
        // gm = 100 µS, γ = 2/3: S ≈ 1.1e-24 A²/Hz.
        let s = thermal_current_density(Siemens::from_micro(100.0), 2.0 / 3.0, ROOM_TEMPERATURE);
        assert!((s - 1.104e-24).abs() / s < 0.01, "s = {s}");
        // 1 nA shot noise: 3.2e-28 A²/Hz.
        let s = shot_current_density(Ampere::from_nano(1.0));
        assert!((s - 3.204e-28).abs() / s < 0.01, "s = {s}");
    }

    #[test]
    fn flicker_rolls_off_as_one_over_f() {
        let a = flicker_voltage_density(1e-24, 2.3e-15, 10.0, Hertz::new(10.0));
        let b = flicker_voltage_density(1e-24, 2.3e-15, 10.0, Hertz::new(100.0));
        assert!((a / b - 10.0).abs() < 1e-9);
    }

    #[test]
    fn white_noise_rms_matches_spec() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut w = WhiteNoise::new(3.0);
        let v: Vec<f64> = (0..50_000).map(|_| w.next_sample(&mut rng)).collect();
        let (_, sd) = stats(&v);
        assert!((sd - 3.0).abs() < 0.05, "sd = {sd}");
    }

    #[test]
    fn pink_noise_rms_and_spectrum_slope() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut p = PinkNoise::new(16, 1.0);
        let n = 1 << 15;
        let v: Vec<f64> = (0..n).map(|_| p.next_sample(&mut rng)).collect();
        let (_, sd) = stats(&v);
        assert!((sd - 1.0).abs() < 0.15, "sd = {sd}");

        // Crude spectral check: power in consecutive octave bands of a DFT
        // should be roughly equal for 1/f noise (equal power per octave).
        let band_power = |f_lo: usize, f_hi: usize| -> f64 {
            (f_lo..f_hi)
                .map(|k| {
                    let (mut re, mut im) = (0.0, 0.0);
                    for (t, x) in v.iter().enumerate() {
                        let phi = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                        re += x * phi.cos();
                        im += x * phi.sin();
                    }
                    (re * re + im * im) / n as f64
                })
                .sum()
        };
        let p1 = band_power(8, 16);
        let p2 = band_power(64, 128);
        let ratio = p1 / p2;
        assert!(ratio > 0.4 && ratio < 2.5, "octave power ratio = {ratio}");
    }

    #[test]
    fn pink_noise_single_octave_degenerates_to_white() {
        // The minimum legal configuration: the row clamp lands on row 0
        // for every sample, so the generator reduces to scaled white
        // noise and must keep producing (regression for the row update
        // going through `get_mut`).
        let mut rng = SmallRng::seed_from_u64(9);
        let mut p = PinkNoise::new(1, 2.0);
        let v: Vec<f64> = (0..4096).map(|_| p.next_sample(&mut rng)).collect();
        let (_, sd) = stats(&v);
        assert!((sd - 2.0).abs() < 0.15, "sd = {sd}");
    }

    #[test]
    fn electron_counting_fluctuates_at_low_current() {
        let mut rng = SmallRng::seed_from_u64(8);
        let i = Ampere::from_pico(1.0);
        let dt = Seconds::from_milli(1.0);
        let mean_expected = i.value() * dt.value() / ELEMENTARY_CHARGE;
        let counts: Vec<f64> = (0..2_000)
            .map(|_| electrons_collected(i, dt, &mut rng) as f64)
            .collect();
        let (mean, sd) = stats(&counts);
        assert!((mean - mean_expected).abs() / mean_expected < 0.01);
        assert!((sd - mean_expected.sqrt()).abs() / mean_expected.sqrt() < 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        let mut wa = WhiteNoise::new(1.0);
        let mut wb = WhiteNoise::new(1.0);
        for _ in 0..100 {
            assert_eq!(wa.next_sample(&mut a), wb.next_sample(&mut b));
        }
    }
}
