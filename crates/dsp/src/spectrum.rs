//! Spectral analysis: periodograms and band power.
//!
//! Used to characterize the recorded noise floors (thermal, flicker, shot)
//! of the sensor channels and to verify filter responses. Direct DFT — the
//! record lengths involved (≤ a few thousand frames) don't justify an FFT
//! dependency.

use bsa_units::Hertz;
use std::f64::consts::PI;

/// One-sided power spectral density estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Periodogram {
    /// Frequency of each bin in Hz.
    pub frequencies: Vec<f64>,
    /// Power spectral density per bin, in (signal units)²/Hz.
    pub psd: Vec<f64>,
}

impl Periodogram {
    /// Computes the one-sided periodogram of `x` sampled at `fs` Hz, with
    /// a Hann window (bins 1 … n/2; DC is excluded).
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer than 4 samples or `fs` is not positive.
    pub fn compute(x: &[f64], fs: Hertz) -> Self {
        let fs = fs.value();
        assert!(x.len() >= 4, "periodogram needs at least 4 samples");
        assert!(fs > 0.0, "sample rate must be positive");
        let n = x.len();
        // Hann window with its power normalization.
        let window: Vec<f64> = (0..n)
            .map(|k| 0.5 * (1.0 - (2.0 * PI * k as f64 / n as f64).cos()))
            .collect();
        let win_power: f64 = window.iter().map(|w| w * w).sum();

        let half = n / 2;
        let mut frequencies = Vec::with_capacity(half);
        let mut psd = Vec::with_capacity(half);
        for k in 1..=half {
            let (mut re, mut im) = (0.0, 0.0);
            for (t, (&xv, &wv)) in x.iter().zip(window.iter()).enumerate() {
                let phi = -2.0 * PI * (k * t) as f64 / n as f64;
                let v = xv * wv;
                re += v * phi.cos();
                im += v * phi.sin();
            }
            let power = (re * re + im * im) / win_power;
            // One-sided: double everything except Nyquist.
            let scale = if k == half && n.is_multiple_of(2) {
                1.0
            } else {
                2.0
            };
            frequencies.push(k as f64 * fs / n as f64);
            psd.push(scale * power / fs);
        }
        Self { frequencies, psd }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.psd.len()
    }

    /// `true` if the periodogram has no bins.
    pub fn is_empty(&self) -> bool {
        self.psd.is_empty()
    }

    /// Total power in `[f_lo, f_hi]` (trapezoidal bin sum).
    pub fn band_power(&self, f_lo: Hertz, f_hi: Hertz) -> f64 {
        let df = match (self.frequencies.first(), self.frequencies.get(1)) {
            (Some(f0), Some(f1)) => f1 - f0,
            _ => 0.0,
        };
        self.frequencies
            .iter()
            .zip(self.psd.iter())
            .filter(|(f, _)| **f >= f_lo.value() && **f <= f_hi.value())
            .map(|(_, p)| p * df)
            .sum()
    }

    /// Frequency of the largest PSD bin (0 Hz for an empty periodogram).
    pub fn peak_frequency(&self) -> Hertz {
        Hertz::new(
            self.frequencies
                .iter()
                .zip(self.psd.iter())
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(f, _)| *f)
                .unwrap_or(0.0),
        )
    }

    /// Median PSD over `[f_lo, f_hi]` — a robust noise-floor estimate that
    /// ignores narrowband tones.
    pub fn noise_floor(&self, f_lo: Hertz, f_hi: Hertz) -> f64 {
        let mut band: Vec<f64> = self
            .frequencies
            .iter()
            .zip(self.psd.iter())
            .filter(|(f, _)| **f >= f_lo.value() && **f <= f_hi.value())
            .map(|(_, p)| *p)
            .collect();
        band.sort_by(|a, b| a.total_cmp(b));
        band.get(band.len() / 2).copied().unwrap_or(0.0)
    }

    /// Log-log slope of the PSD between two frequencies (decades of power
    /// per decade of frequency): ≈0 for white noise, ≈−1 for 1/f.
    pub fn loglog_slope(&self, f_lo: Hertz, f_hi: Hertz) -> f64 {
        let p_lo = self.noise_floor(f_lo, f_lo * 2.0);
        let p_hi = self.noise_floor(f_hi / 2.0, f_hi);
        if p_lo <= 0.0 || p_hi <= 0.0 {
            return 0.0;
        }
        (p_hi / p_lo).log10() / (f_hi / f_lo).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hz(v: f64) -> Hertz {
        Hertz::new(v)
    }

    fn sine(f: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|k| amp * (2.0 * PI * f * k as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn sine_peak_lands_at_its_frequency() {
        let fs = 1000.0;
        let x = sine(100.0, fs, 1024, 1.0);
        let p = Periodogram::compute(&x, hz(fs));
        assert!(
            (p.peak_frequency().value() - 100.0).abs() < 2.0,
            "peak at {}",
            p.peak_frequency().value()
        );
    }

    #[test]
    fn sine_power_is_recovered() {
        // A sine of amplitude A has power A²/2.
        let fs = 1000.0;
        let x = sine(100.0, fs, 4096, 2.0);
        let p = Periodogram::compute(&x, hz(fs));
        let power = p.band_power(hz(90.0), hz(110.0));
        assert!((power - 2.0).abs() / 2.0 < 0.05, "power = {power}");
    }

    #[test]
    fn white_noise_is_flat() {
        // Deterministic pseudo-noise via LCG.
        let mut state = 7u64;
        let x: Vec<f64> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let p = Periodogram::compute(&x, hz(1000.0));
        let slope = p.loglog_slope(hz(10.0), hz(400.0));
        assert!(slope.abs() < 0.3, "white slope = {slope}");
        // Parseval: total band power ≈ variance (1/12 for uniform).
        let total = p.band_power(hz(0.0), hz(500.0));
        assert!(
            (total - 1.0 / 12.0).abs() / (1.0 / 12.0) < 0.1,
            "total = {total}"
        );
    }

    #[test]
    fn noise_floor_ignores_tones() {
        let fs = 1000.0;
        let mut x = sine(100.0, fs, 2048, 10.0);
        let mut state = 3u64;
        for v in &mut x {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v += (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        let p = Periodogram::compute(&x, hz(fs));
        let floor = p.noise_floor(hz(150.0), hz(450.0));
        let peak = p.psd[p
            .frequencies
            .iter()
            .position(|f| (*f - 100.0).abs() < 1.0)
            .unwrap()];
        assert!(peak > 100.0 * floor, "peak {peak} vs floor {floor}");
    }

    #[test]
    fn frequencies_are_uniform_grid() {
        let p = Periodogram::compute(&vec![0.0; 256], hz(512.0));
        assert_eq!(p.len(), 128);
        assert!((p.frequencies[0] - 2.0).abs() < 1e-12);
        assert!((p.frequencies[127] - 256.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn rejects_tiny_input() {
        Periodogram::compute(&[1.0, 2.0], hz(100.0));
    }
}
