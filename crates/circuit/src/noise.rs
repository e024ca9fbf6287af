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
//! Time-domain generation is deterministic given an [`rand::Rng`] seed.
//! Gaussian samples come from a Marsaglia polar transform
//! ([`GaussianSampler`]) or, on the readout's per-sample path, from a
//! ziggurat ([`Ziggurat`]); pink noise comes from a Voss–McCartney
//! octave-bank generator.

use bsa_units::consts::{BOLTZMANN, ELEMENTARY_CHARGE};
use bsa_units::{Ampere, Hertz, Kelvin, Seconds, Siemens};
use rand::Rng;
use std::sync::OnceLock;

/// Marsaglia-polar Gaussian sampler producing `N(0, 1)` variates.
///
/// Caches the second variate of each polar pair, so consecutive calls cost
/// one `ln`/`sqrt` pair per two samples — and no trigonometry at all,
/// which matters in the readout inner loop where this sampler runs once
/// per pixel sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaussianSampler {
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one standard-normal sample using `rng` for uniforms.
    pub fn sample<R: Rng>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Marsaglia polar: rejection-sample a point in the open unit disc
        // (w = 0 would divide by zero, w ≥ 1 would flip the ln sign), then
        // scale both coordinates into an independent Gaussian pair.
        loop {
            let x = 2.0 * rng.gen::<f64>() - 1.0;
            let y = 2.0 * rng.gen::<f64>() - 1.0;
            let w = x * x + y * y;
            if w > 0.0 && w < 1.0 {
                let s = (-2.0 * w.ln() / w).sqrt();
                self.spare = Some(y * s);
                return x * s;
            }
        }
    }
}

/// Layers of the ziggurat, the base layer with its tail included.
const ZIGGURAT_LAYERS: usize = 256;

/// Right edge R of the base layer's rectangle for 256 layers (Marsaglia
/// & Tsang 2000): the tail beyond it is sampled exactly.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;

/// Area V of every layer under the unnormalized density e^(−x²/2).
const ZIGGURAT_V: f64 = 0.004_928_673_233_99;

/// The layer edges of a 256-layer ziggurat over e^(−x²/2).
#[derive(Debug)]
struct ZigguratTables {
    /// `x[i]` is the right edge of layer `i`. `x[0] = V/f(R)` is the base
    /// layer's pseudo-width (rectangle plus tail), `x[1] = R` and
    /// `x[256] = 0` is the peak.
    x: [f64; ZIGGURAT_LAYERS + 1],
    /// `f[i] = e^(−x[i]²/2)`: the layer's bottom, and the top of layer `i − 1`.
    f: [f64; ZIGGURAT_LAYERS + 1],
}

impl ZigguratTables {
    /// Stacks the layers up from R: each one is as wide as its lower edge
    /// and tall enough to hold area V.
    fn build() -> Self {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        let mut edge = ZIGGURAT_R;
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = match i {
                0 => ZIGGURAT_V / density(ZIGGURAT_R),
                ZIGGURAT_LAYERS => 0.0,
                _ => {
                    let current = edge;
                    edge = (-2.0 * (density(current) + ZIGGURAT_V / current).ln()).sqrt();
                    current
                }
            };
        }
        Self {
            f: x.map(density),
            x,
        }
    }
}

/// The ziggurat tables, built on first use.
fn ziggurat_tables() -> &'static ZigguratTables {
    static TABLES: OnceLock<ZigguratTables> = OnceLock::new();
    TABLES.get_or_init(ZigguratTables::build)
}

/// Ziggurat sampler for `N(0, 1)` variates (Marsaglia & Tsang 2000, 256
/// layers, exact tail).
///
/// Almost every draw (98.5 %) costs one `u64` and one multiply: its
/// low 8 bits pick a layer, its top 52 bits a signed position inside the
/// layer's rectangle. Only draws that land in a layer's wedge or in the
/// tail take a second uniform and an `exp` or `ln`. The sampler holds no
/// state between draws, so each one is a pure function of the RNG
/// stream, and it costs about a third of a [`GaussianSampler`] draw.
#[derive(Debug, Clone, Copy)]
pub struct Ziggurat {
    tables: &'static ZigguratTables,
}

impl Default for Ziggurat {
    fn default() -> Self {
        Self::new()
    }
}

impl Ziggurat {
    /// A sampler over the shared layer tables.
    pub fn new() -> Self {
        Self {
            tables: ziggurat_tables(),
        }
    }

    /// Draws one standard-normal sample using `rng` for uniform bits.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let ZigguratTables { x, f } = self.tables;
        loop {
            let bits = rng.next_u64();
            let layer = (bits & 0xff) as usize;
            // 2 + 52 mantissa bits is uniform in [2, 4): u in [−1, 1).
            let u = f64::from_bits(0x4000_0000_0000_0000 | (bits >> 12)) - 3.0;
            // layer + 1 <= 256: every lookup hits, and the `else` never runs.
            let (Some(&outer), Some(&inner), Some(&bottom), Some(&top)) = (
                x.get(layer),
                x.get(layer + 1),
                f.get(layer),
                f.get(layer + 1),
            ) else {
                continue;
            };
            let z = u * outer;
            if z.abs() < inner {
                return z;
            }
            if layer == 0 {
                return Self::tail(rng, u < 0.0);
            }
            // Wedge: accept under the density at a uniform height
            // between the layer's bottom and top.
            if bottom + (top - bottom) * rng.gen::<f64>() < (-0.5 * z * z).exp() {
                return z;
            }
        }
    }

    /// Exact draw from the tail beyond R (Marsaglia 1964).
    fn tail<R: Rng>(rng: &mut R, negative: bool) -> f64 {
        loop {
            // 1 − [0, 1) is in (0, 1]: both logarithms stay finite.
            let t = -(1.0 - rng.gen::<f64>()).ln() / ZIGGURAT_R;
            let y = -(1.0 - rng.gen::<f64>()).ln();
            if 2.0 * y >= t * t {
                let z = ZIGGURAT_R + t;
                return if negative { -z } else { z };
            }
        }
    }
}

/// Draws a Poisson-distributed count with the given mean.
///
/// Uses Knuth's product method for small means and a Gaussian approximation
/// above 64 (where the relative error of the approximation is < 1 %).
pub fn poisson<R: Rng>(mean: f64, rng: &mut R) -> u64 {
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
        p *= rng.gen::<f64>();
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
    pub fn next_sample<R: Rng>(&mut self, rng: &mut R) -> f64 {
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
    pub fn next_sample<R: Rng>(&mut self, rng: &mut R) -> f64 {
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
pub fn electrons_collected<R: Rng>(i: Ampere, dt: Seconds, rng: &mut R) -> u64 {
    let mean = (i.value().abs() * dt.value()) / ELEMENTARY_CHARGE;
    poisson(mean, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn stats(v: &[f64]) -> (f64, f64) {
        let n = v.len() as f64;
        let mean = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    /// Draws `n` samples from each normal sampler, polar then ziggurat.
    fn both_samplers(seed: u64, n: usize) -> [(&'static str, Vec<f64>); 2] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut polar = GaussianSampler::new();
        let polar: Vec<f64> = (0..n).map(|_| polar.sample(&mut rng)).collect();
        let zig = Ziggurat::new();
        let zig: Vec<f64> = (0..n).map(|_| zig.sample(&mut rng)).collect();
        [("polar", polar), ("ziggurat", zig)]
    }

    #[test]
    fn gaussian_moments() {
        for (name, v) in both_samplers(1, 50_000) {
            let (mean, sd) = stats(&v);
            assert!(mean.abs() < 0.02, "{name}: mean = {mean}");
            assert!((sd - 1.0).abs() < 0.02, "{name}: sd = {sd}");
        }
    }

    #[test]
    fn gaussian_tails_are_plausible() {
        let n = 100_000;
        for (name, v) in both_samplers(2, n) {
            let beyond_2sigma = v.iter().filter(|z| z.abs() > 2.0).count();
            let frac = beyond_2sigma as f64 / n as f64;
            assert!((frac - 0.0455).abs() < 0.005, "{name}: frac = {frac}");
        }
    }

    #[test]
    fn ziggurat_tail_beyond_the_base_layer_has_its_share() {
        // P(|z| > R) = erfc(R/√2) = 2.58e-4 for R = 3.6542: about 516 of
        // 2e6 draws (σ ≈ 23), split evenly between the two tails.
        let mut rng = SmallRng::seed_from_u64(12);
        let zig = Ziggurat::new();
        let n = 2_000_000;
        let (mut below, mut above) = (0usize, 0usize);
        for _ in 0..n {
            let z = zig.sample(&mut rng);
            if z < -3.6542 {
                below += 1;
            } else if z > 3.6542 {
                above += 1;
            }
        }
        let share = (below + above) as f64 / n as f64;
        assert!((share / 2.58e-4 - 1.0).abs() < 0.15, "share = {share}");
        assert!(below > 180 && above > 180, "tails {below} / {above}");
    }

    #[test]
    fn ziggurat_tables_stack_layers_of_equal_area() {
        let ZigguratTables { x, f } = ziggurat_tables();
        assert_eq!(x.get(1), Some(&3.654_152_885_361_009));
        assert_eq!(x.last(), Some(&0.0));
        assert_eq!(f.last(), Some(&1.0));
        // The base layer: its pseudo-width times f(R) covers rectangle
        // and tail.
        let base = x.first().zip(f.get(1)).map_or(0.0, |(x0, f1)| x0 * f1);
        assert!((base / ZIGGURAT_V - 1.0).abs() < 1e-12, "base {base}");
        let mut layers = 1;
        for (xs, fs) in x.windows(2).zip(f.windows(2)).skip(1) {
            let ([outer, _], [bottom, top]) = (xs, fs) else {
                unreachable!("windows(2) yields pairs");
            };
            let area = outer * (top - bottom);
            assert!(
                (area / ZIGGURAT_V - 1.0).abs() < 1e-8,
                "layer {layers}: area {area}"
            );
            layers += 1;
        }
        assert_eq!(layers, ZIGGURAT_LAYERS);
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
