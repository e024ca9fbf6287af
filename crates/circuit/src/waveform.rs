//! Uniformly sampled waveforms and transient-simulation timing.

use crate::error::{require_positive, CircuitError};
use bsa_units::{Hertz, Seconds};

/// A uniformly sampled real-valued waveform.
///
/// Used for analog node voltages in transient runs (e.g. the sawtooth at
/// the DNA pixel's integration node, paper Fig. 3 timing diagram) and for
/// the per-pixel time series of the neural array.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    dt: Seconds,
    samples: Vec<f64>,
}

impl Waveform {
    /// Creates an empty waveform with the given sample interval.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if `dt` is not strictly positive.
    pub fn new(dt: Seconds) -> Result<Self, CircuitError> {
        require_positive("sample interval", dt.value())?;
        Ok(Self {
            dt,
            samples: Vec::new(),
        })
    }

    /// Creates a waveform from existing samples.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if `dt` is not strictly positive.
    pub fn from_samples(dt: Seconds, samples: Vec<f64>) -> Result<Self, CircuitError> {
        require_positive("sample interval", dt.value())?;
        Ok(Self { dt, samples })
    }

    /// Sample interval.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Sample rate 1/dt.
    pub fn sample_rate(&self) -> Hertz {
        self.dt.recip()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the waveform has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total covered duration, len·dt.
    pub fn duration(&self) -> Seconds {
        self.dt * self.samples.len() as f64
    }

    /// Appends a sample.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// The raw sample slice.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Consumes the waveform, returning its samples.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Linear interpolation at absolute time `t`; clamps beyond the ends.
    pub fn sample_at(&self, t: Seconds) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let x = (t.value() / self.dt.value()).max(0.0);
        let i = x.floor() as usize;
        if i + 1 >= self.samples.len() {
            return self.samples.last().copied().unwrap_or(0.0);
        }
        let frac = x - i as f64;
        let a = self.samples.get(i).copied().unwrap_or(0.0);
        let b = self.samples.get(i + 1).copied().unwrap_or(a);
        a * (1.0 - frac) + b * frac
    }

    /// Minimum sample (0.0 for an empty waveform).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum sample (0.0 for an empty waveform).
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Arithmetic mean (0.0 for an empty waveform).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Root-mean-square value.
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            (self.samples.iter().map(|x| x * x).sum::<f64>() / self.samples.len() as f64).sqrt()
        }
    }

    /// Peak-to-peak span.
    pub fn peak_to_peak(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.max() - self.min()
        }
    }

    /// Counts rising crossings of `level`.
    pub fn rising_crossings(&self, level: f64) -> usize {
        self.samples
            .windows(2)
            .filter(|w| matches!(**w, [a, b] if a <= level && b > level))
            .count()
    }
}

/// Fixed-step transient clock.
///
/// Iterates simulation time deterministically: `for t in clock.iter() { … }`
/// visits `steps` instants spaced by `dt` starting at 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientClock {
    dt: Seconds,
    steps: usize,
}

impl TransientClock {
    /// Creates a clock covering `duration` with step `dt` (rounding the
    /// step count up so the whole duration is covered).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if `dt` or `duration` is not positive.
    pub fn new(dt: Seconds, duration: Seconds) -> Result<Self, CircuitError> {
        require_positive("time step", dt.value())?;
        require_positive("duration", duration.value())?;
        // Snap near-integer ratios before ceiling so 1 ms / 1 µs is exactly
        // 1000 steps despite float rounding.
        let ratio = duration.value() / dt.value();
        let steps = if (ratio - ratio.round()).abs() < 1e-9 * ratio.max(1.0) {
            ratio.round() as usize
        } else {
            ratio.ceil() as usize
        };
        Ok(Self { dt, steps })
    }

    /// The time step.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Number of steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Iterator over simulation instants 0, dt, 2·dt, …
    pub fn iter(&self) -> impl Iterator<Item = Seconds> + '_ {
        let dt = self.dt;
        (0..self.steps).map(move |k| dt * k as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        Waveform::from_samples(
            Seconds::from_micro(1.0),
            (0..=10).map(|k| k as f64).collect(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_zero_dt() {
        assert!(Waveform::new(Seconds::ZERO).is_err());
    }

    #[test]
    fn duration_and_rate() {
        let w = ramp();
        assert_eq!(w.len(), 11);
        assert!((w.duration().as_micro() - 11.0).abs() < 1e-9);
        assert!((w.sample_rate().value() - 1e6).abs() < 1e-3);
    }

    #[test]
    fn interpolation_between_samples() {
        let w = ramp();
        let v = w.sample_at(Seconds::from_micro(2.5));
        assert!((v - 2.5).abs() < 1e-12);
    }

    #[test]
    fn interpolation_clamps_at_ends() {
        let w = ramp();
        assert_eq!(w.sample_at(Seconds::new(-1.0)), 0.0);
        assert_eq!(w.sample_at(Seconds::new(1.0)), 10.0);
    }

    #[test]
    fn statistics() {
        let w = Waveform::from_samples(Seconds::new(1.0), vec![-1.0, 1.0, -1.0, 1.0]).unwrap();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.rms(), 1.0);
        assert_eq!(w.peak_to_peak(), 2.0);
        assert_eq!(w.max(), 1.0);
    }

    #[test]
    fn empty_waveform_statistics_are_zero() {
        let w = Waveform::new(Seconds::new(1.0)).unwrap();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.rms(), 0.0);
        assert_eq!(w.peak_to_peak(), 0.0);
        assert_eq!(w.sample_at(Seconds::new(1.0)), 0.0);
    }

    #[test]
    fn rising_crossings_counts_sawtooth_periods() {
        // Three sawtooth ramps 0→1.
        let mut samples = Vec::new();
        for _ in 0..3 {
            samples.extend((0..10).map(|k| k as f64 / 10.0));
        }
        let w = Waveform::from_samples(Seconds::new(1e-6), samples).unwrap();
        assert_eq!(w.rising_crossings(0.55), 3);
    }

    #[test]
    fn clock_covers_duration() {
        let c = TransientClock::new(Seconds::from_micro(1.0), Seconds::from_milli(1.0)).unwrap();
        assert_eq!(c.steps(), 1000);
        let times: Vec<Seconds> = c.iter().collect();
        assert_eq!(times.len(), 1000);
        assert_eq!(times[0], Seconds::ZERO);
        assert!((times[999].as_micro() - 999.0).abs() < 1e-9);
    }

    #[test]
    fn clock_rounds_partial_steps_up() {
        let c = TransientClock::new(Seconds::new(0.3), Seconds::new(1.0)).unwrap();
        assert_eq!(c.steps(), 4);
    }
}
