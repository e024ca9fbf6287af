//! Robust statistics used throughout the readout pipeline.

use crate::error::DspError;

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` if no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator; 0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Relative spread σ/|µ| (0 if the mean is zero).
    pub fn rel_spread(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Extends the accumulator with more samples.
impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Median of an already sorted slice (averages the middle pair for even
/// lengths); NaN for an empty slice — public callers have already
/// rejected that.
fn median_of_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    let at = |i: usize| v.get(i).copied().unwrap_or(f64::NAN);
    if n % 2 == 1 {
        at(n / 2)
    } else {
        0.5 * (at((n / 2).wrapping_sub(1)) + at(n / 2))
    }
}

/// Median of a slice (averages the middle pair for even lengths).
///
/// Errors on an empty slice. NaNs sort last (total order), so a
/// NaN-contaminated input yields a NaN/odd median rather than a panic.
pub fn median(values: &[f64]) -> Result<f64, DspError> {
    median_with(values, &mut Vec::with_capacity(values.len()))
}

/// [`median`] using a caller-provided scratch buffer for the sort copy —
/// the allocation-free form for hot loops. Errors on an empty slice.
pub fn median_with(values: &[f64], scratch: &mut Vec<f64>) -> Result<f64, DspError> {
    if values.is_empty() {
        return Err(DspError::EmptyInput { what: "median" });
    }
    scratch.clear();
    scratch.extend_from_slice(values);
    scratch.sort_by(|a, b| a.total_cmp(b));
    Ok(median_of_sorted(scratch))
}

/// Median absolute deviation, scaled by 1.4826 to estimate σ for Gaussian
/// data. Errors on an empty slice.
pub fn mad_sigma(values: &[f64]) -> Result<f64, DspError> {
    mad_sigma_with(values, &mut Vec::with_capacity(values.len()))
}

/// [`mad_sigma`] using a caller-provided scratch buffer — the
/// allocation-free form for hot loops. Errors on an empty slice.
pub fn mad_sigma_with(values: &[f64], scratch: &mut Vec<f64>) -> Result<f64, DspError> {
    let med = median_with(values, scratch)?;
    scratch.clear();
    scratch.extend(values.iter().map(|x| (x - med).abs()));
    scratch.sort_by(|a, b| a.total_cmp(b));
    Ok(1.4826 * median_of_sorted(scratch))
}

/// Linear-interpolated percentile `p` ∈ [0, 100].
///
/// Errors on an empty slice or a `p` outside [0, 100].
pub fn percentile(values: &[f64], p: f64) -> Result<f64, DspError> {
    if values.is_empty() {
        return Err(DspError::EmptyInput { what: "percentile" });
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(DspError::InvalidArgument {
            what: "percentile p",
            expected: "[0, 100]",
        });
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let interpolated = if lo == hi {
        v.get(lo).copied().unwrap_or(f64::NAN)
    } else {
        let frac = rank - lo as f64;
        let (a, b) = (v.get(lo), v.get(hi));
        match (a, b) {
            (Some(a), Some(b)) => a * (1.0 - frac) + b * frac,
            _ => f64::NAN,
        }
    };
    Ok(interpolated)
}

/// Fixed-width histogram over `[lo, hi)`; under/overflow are clamped into
/// the end bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
        }
    }

    /// Adds a sample (clamped into the range).
    pub fn push(&mut self, x: f64) {
        let frac = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
        if let Some(bin) = self.bins.get_mut(idx) {
            *bin += 1;
        }
    }

    /// The bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Center value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.bins.len());
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let s: RunningStats = data.iter().copied().collect();
        assert_eq!(s.len(), 6);
        assert!((s.mean() - 3.5).abs() < 1e-12);
        assert!((s.variance() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn welford_is_stable_for_offset_data() {
        // Large offset + tiny variance: naive sum-of-squares would lose it.
        let s: RunningStats = (0..1000).map(|k| 1e9 + (k % 2) as f64 * 1e-3).collect();
        // Rounding at the 1e9 offset scale limits accuracy to a few %.
        assert!((s.variance() - 2.5e-7).abs() / 2.5e-7 < 0.05);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.rel_spread(), 0.0);
    }

    #[test]
    fn extend_accumulates() {
        let mut s = RunningStats::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
    }

    #[test]
    fn median_rejects_empty() {
        assert_eq!(median(&[]), Err(DspError::EmptyInput { what: "median" }));
        assert!(mad_sigma(&[]).is_err());
    }

    #[test]
    fn mad_estimates_gaussian_sigma() {
        // Deterministic pseudo-Gaussian via the central limit of a LCG.
        let mut state = 12345u64;
        let mut next = || {
            let mut sum = 0.0;
            for _ in 0..12 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                sum += (state >> 11) as f64 / (1u64 << 53) as f64;
            }
            (sum - 6.0) * 2.0 // σ = 2
        };
        let data: Vec<f64> = (0..5000).map(|_| next()).collect();
        let sigma = mad_sigma(&data).unwrap();
        assert!((sigma - 2.0).abs() < 0.15, "sigma = {sigma}");
    }

    #[test]
    fn mad_is_robust_to_outliers() {
        let mut data = vec![0.0; 99];
        for (k, d) in data.iter_mut().enumerate() {
            *d = (k as f64 - 49.0) / 50.0; // uniform in [-0.98, 1.0]
        }
        data.push(1e9); // one wild outlier
        let sigma = mad_sigma(&data).unwrap();
        assert!(sigma < 2.0, "MAD must ignore the outlier, got {sigma}");
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0).unwrap(), 0.0);
        assert_eq!(percentile(&v, 100.0).unwrap(), 40.0);
        assert_eq!(percentile(&v, 50.0).unwrap(), 20.0);
        assert_eq!(percentile(&v, 62.5).unwrap(), 25.0);
        assert!(percentile(&v, 101.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn histogram_binning_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 5.0, 9.9, -3.0, 42.0] {
            h.push(x);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.bins()[0], 3); // 0.5, 1.5, and clamped −3
        assert_eq!(h.bins()[4], 2); // 9.9 and clamped 42
        assert_eq!(h.bins()[2], 1); // 5.0
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        Histogram::new(0.0, 1.0, 0);
    }
}
