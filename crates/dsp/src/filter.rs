//! IIR and FIR filters for the recorded waveforms.
//!
//! Neural recordings carry slow baseline drift (calibration droop between
//! refresh cycles) under millisecond action potentials; a high-pass/
//! band-pass separates them. The filters here are second-order biquads in
//! transposed direct form II, designed with the bilinear transform.

use bsa_units::Hertz;
use std::f64::consts::PI;

/// A biquad (second-order IIR) filter section.
#[derive(Debug, Clone, PartialEq)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    z1: f64,
    z2: f64,
}

impl Biquad {
    /// Creates a biquad from normalized coefficients (a0 = 1).
    pub fn from_coefficients(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Self {
            b0,
            b1,
            b2,
            a1,
            a2,
            z1: 0.0,
            z2: 0.0,
        }
    }

    /// Butterworth low-pass with cutoff `fc` at sample rate `fs`
    /// (bilinear transform, Q = 1/√2).
    ///
    /// # Panics
    ///
    /// Panics unless 0 < fc < fs/2.
    pub fn lowpass(fc: Hertz, fs: Hertz) -> Self {
        let (fc, fs) = (fc.value(), fs.value());
        assert!(fc > 0.0 && fc < fs / 2.0, "cutoff must be in (0, fs/2)");
        let k = (PI * fc / fs).tan();
        let q = std::f64::consts::FRAC_1_SQRT_2;
        let norm = 1.0 / (1.0 + k / q + k * k);
        Self::from_coefficients(
            k * k * norm,
            2.0 * k * k * norm,
            k * k * norm,
            2.0 * (k * k - 1.0) * norm,
            (1.0 - k / q + k * k) * norm,
        )
    }

    /// Butterworth high-pass with cutoff `fc` at sample rate `fs`.
    ///
    /// # Panics
    ///
    /// Panics unless 0 < fc < fs/2.
    pub fn highpass(fc: Hertz, fs: Hertz) -> Self {
        let (fc, fs) = (fc.value(), fs.value());
        assert!(fc > 0.0 && fc < fs / 2.0, "cutoff must be in (0, fs/2)");
        let k = (PI * fc / fs).tan();
        let q = std::f64::consts::FRAC_1_SQRT_2;
        let norm = 1.0 / (1.0 + k / q + k * k);
        Self::from_coefficients(
            norm,
            -2.0 * norm,
            norm,
            2.0 * (k * k - 1.0) * norm,
            (1.0 - k / q + k * k) * norm,
        )
    }

    /// Processes one sample (transposed direct form II).
    pub fn process(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.z1;
        self.z1 = self.b1 * x - self.a1 * y + self.z2;
        self.z2 = self.b2 * x - self.a2 * y;
        y
    }

    /// Filters a whole slice, returning the output.
    pub fn process_slice(&mut self, xs: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(xs.len());
        self.process_into(xs, &mut out);
        out
    }

    /// Filters a whole slice into a caller-provided buffer (cleared and
    /// refilled) — the allocation-free form for hot loops.
    pub fn process_into(&mut self, xs: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(xs.iter().map(|&x| self.process(x)));
    }

    /// Filters a buffer in place — no allocation, no second buffer.
    pub fn process_in_place(&mut self, xs: &mut [f64]) {
        for x in xs.iter_mut() {
            *x = self.process(*x);
        }
    }

    /// Resets the filter state.
    pub fn reset(&mut self) {
        self.z1 = 0.0;
        self.z2 = 0.0;
    }

    /// Steady-state magnitude response at frequency `f` for sample rate
    /// `fs`, evaluated analytically from the coefficients.
    pub fn magnitude_at(&self, f: Hertz, fs: Hertz) -> f64 {
        let w = 2.0 * PI * (f / fs);
        let (re, im) = (w.cos(), -w.sin());
        // z^-1 = e^{-jw}; evaluate numerator/denominator at z^-1.
        let num = complex_add(
            complex_add((self.b0, 0.0), complex_mul((self.b1, 0.0), (re, im))),
            complex_mul((self.b2, 0.0), complex_mul((re, im), (re, im))),
        );
        let den = complex_add(
            complex_add((1.0, 0.0), complex_mul((self.a1, 0.0), (re, im))),
            complex_mul((self.a2, 0.0), complex_mul((re, im), (re, im))),
        );
        (num.0 * num.0 + num.1 * num.1).sqrt() / (den.0 * den.0 + den.1 * den.1).sqrt()
    }
}

fn complex_mul(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

fn complex_add(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 + b.0, a.1 + b.1)
}

/// Band-pass as a high-pass/low-pass cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct BandPass {
    hp: Biquad,
    lp: Biquad,
}

impl BandPass {
    /// Creates a band-pass passing `[f_lo, f_hi]` at sample rate `fs`.
    ///
    /// # Panics
    ///
    /// Panics unless 0 < f_lo < f_hi < fs/2.
    pub fn new(f_lo: Hertz, f_hi: Hertz, fs: Hertz) -> Self {
        assert!(f_lo < f_hi, "band edges must be ordered");
        Self {
            hp: Biquad::highpass(f_lo, fs),
            lp: Biquad::lowpass(f_hi, fs),
        }
    }

    /// Processes one sample.
    pub fn process(&mut self, x: f64) -> f64 {
        self.lp.process(self.hp.process(x))
    }

    /// Filters a whole slice.
    pub fn process_slice(&mut self, xs: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(xs.len());
        self.process_into(xs, &mut out);
        out
    }

    /// Filters a whole slice into a caller-provided buffer (cleared and
    /// refilled) — the allocation-free form for hot loops.
    pub fn process_into(&mut self, xs: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(xs.iter().map(|&x| self.process(x)));
    }

    /// Filters a buffer in place — no allocation, no second buffer.
    pub fn process_in_place(&mut self, xs: &mut [f64]) {
        for x in xs.iter_mut() {
            *x = self.process(*x);
        }
    }

    /// Resets state.
    pub fn reset(&mut self) {
        self.hp.reset();
        self.lp.reset();
    }
}

/// Centered moving-average FIR smoother (window must be odd); the ends are
/// averaged over the available partial window.
///
/// # Panics
///
/// Panics if `window` is even or zero.
pub fn moving_average(xs: &[f64], window: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(xs.len());
    moving_average_into(xs, window, &mut out);
    out
}

/// [`moving_average`] into a caller-provided buffer (cleared and
/// refilled) — the allocation-free form for hot loops.
///
/// # Panics
///
/// Panics if `window` is even or zero.
pub fn moving_average_into(xs: &[f64], window: usize, out: &mut Vec<f64>) {
    assert!(window % 2 == 1 && window > 0, "window must be odd");
    let half = window / 2;
    out.clear();
    out.extend((0..xs.len()).map(|i| {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(xs.len());
        let window_sum: f64 = xs.get(lo..hi).map(|w| w.iter().sum()).unwrap_or(0.0);
        window_sum / (hi - lo) as f64
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hz(v: f64) -> Hertz {
        Hertz::new(v)
    }

    fn sine(f: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| (2.0 * PI * f * k as f64 / fs).sin())
            .collect()
    }

    fn rms(xs: &[f64]) -> f64 {
        (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
    }

    #[test]
    fn lowpass_passes_low_blocks_high() {
        let fs = 2000.0;
        let mut f = Biquad::lowpass(hz(100.0), hz(fs));
        let low = f.process_slice(&sine(10.0, fs, 4000));
        f.reset();
        let high = f.process_slice(&sine(900.0, fs, 4000));
        assert!(rms(&low[2000..]) > 0.65, "low rms = {}", rms(&low[2000..]));
        assert!(
            rms(&high[2000..]) < 0.05,
            "high rms = {}",
            rms(&high[2000..])
        );
    }

    #[test]
    fn highpass_blocks_dc() {
        let fs = 2000.0;
        let mut f = Biquad::highpass(hz(10.0), hz(fs));
        let out = f.process_slice(&vec![1.0; 4000]);
        assert!(
            out.last().unwrap().abs() < 1e-3,
            "DC leak = {}",
            out.last().unwrap()
        );
    }

    #[test]
    fn cutoff_gain_is_minus_3db() {
        let fs = 2000.0;
        let f = Biquad::lowpass(hz(100.0), hz(fs));
        let g = f.magnitude_at(hz(100.0), hz(fs));
        assert!(
            (g - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01,
            "g = {g}"
        );
    }

    #[test]
    fn magnitude_matches_measured_response() {
        let fs = 2000.0;
        let mut f = Biquad::lowpass(hz(150.0), hz(fs));
        let analytic = f.magnitude_at(hz(60.0), hz(fs));
        let out = f.process_slice(&sine(60.0, fs, 8000));
        let measured = rms(&out[4000..]) / rms(&sine(60.0, fs, 8000)[4000..]);
        assert!(
            (measured - analytic).abs() < 0.02,
            "{measured} vs {analytic}"
        );
    }

    #[test]
    fn bandpass_selects_band() {
        let fs = 2000.0;
        let mut bp = BandPass::new(hz(50.0), hz(500.0), hz(fs));
        let inband = bp.process_slice(&sine(200.0, fs, 4000));
        bp.reset();
        let below = bp.process_slice(&sine(2.0, fs, 4000));
        bp.reset();
        let above = bp.process_slice(&sine(950.0, fs, 4000));
        assert!(rms(&inband[2000..]) > 0.6);
        assert!(rms(&below[2000..]) < 0.1);
        assert!(rms(&above[2000..]) < 0.1);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn bandpass_rejects_inverted_edges() {
        BandPass::new(hz(500.0), hz(50.0), hz(2000.0));
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn lowpass_rejects_cutoff_above_nyquist() {
        Biquad::lowpass(hz(1500.0), hz(2000.0));
    }

    #[test]
    fn moving_average_smooths_and_preserves_mean() {
        let xs: Vec<f64> = (0..100)
            .map(|k| if k % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let out = moving_average(&xs, 5);
        assert_eq!(out.len(), xs.len());
        assert!(rms(&out[10..90]) < rms(&xs));
        // A constant signal is unchanged, including the edges.
        let c = moving_average(&[3.0; 20], 7);
        assert!(c.iter().all(|x| (x - 3.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn moving_average_rejects_even_window() {
        moving_average(&[1.0, 2.0], 2);
    }

    #[test]
    fn scratch_variants_match_allocating_forms() {
        let fs = 2000.0;
        let xs = sine(80.0, fs, 500);

        let mut f = Biquad::lowpass(hz(100.0), hz(fs));
        let reference = f.process_slice(&xs);
        f.reset();
        let mut buf = Vec::new();
        f.process_into(&xs, &mut buf);
        assert_eq!(buf, reference);
        f.reset();
        let mut in_place = xs.clone();
        f.process_in_place(&mut in_place);
        assert_eq!(in_place, reference);

        let mut bp = BandPass::new(hz(50.0), hz(500.0), hz(fs));
        let bp_ref = bp.process_slice(&xs);
        bp.reset();
        bp.process_into(&xs, &mut buf);
        assert_eq!(buf, bp_ref);
        bp.reset();
        let mut bp_in_place = xs.clone();
        bp.process_in_place(&mut bp_in_place);
        assert_eq!(bp_in_place, bp_ref);

        let ma_ref = moving_average(&xs, 5);
        moving_average_into(&xs, 5, &mut buf);
        assert_eq!(buf, ma_ref);
    }

    #[test]
    fn filter_state_reset_restores_determinism() {
        let fs = 2000.0;
        let mut f = Biquad::lowpass(hz(100.0), hz(fs));
        let a = f.process_slice(&sine(50.0, fs, 100));
        f.reset();
        let b = f.process_slice(&sine(50.0, fs, 100));
        assert_eq!(a, b);
    }
}
