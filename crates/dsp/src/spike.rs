//! Action-potential detection on per-pixel time series.
//!
//! The neural chip delivers 2 k samples/s per pixel; spikes are ~1 ms
//! transients of 100 µV – 5 mV riding on per-pixel offsets and slow droop.
//! Detection: remove the baseline, estimate the noise floor robustly
//! (MAD), then threshold either the signal itself or its nonlinear energy
//! (NEO). After a detection the detector waits out a refractory period
//! and re-arms only once the feature is back under threshold, so one
//! action potential is one detection.

use crate::stats::{mad_sigma_with, median_with};

/// Spike-detection method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionMethod {
    /// Absolute amplitude threshold at `k`·σ of the noise.
    AmplitudeThreshold,
    /// Nonlinear energy operator ψ\[n\] = x²\[n\] − x\[n−1\]·x\[n+1\],
    /// thresholded at `k`·σ of ψ's noise — emphasizes short transients.
    Neo,
}

/// Spike detector configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeDetector {
    /// Detection method.
    pub method: DetectionMethod,
    /// Threshold in units of the robust noise σ.
    pub threshold_sigmas: f64,
    /// Refractory period in samples after a detection (at least one); the
    /// detector then re-arms once the feature is back under threshold.
    pub refractory_samples: usize,
}

impl Default for SpikeDetector {
    /// Amplitude detection at 4.5 σ with 4-sample (2 ms at 2 kfps)
    /// refractory.
    fn default() -> Self {
        Self {
            method: DetectionMethod::AmplitudeThreshold,
            threshold_sigmas: 4.5,
            refractory_samples: 4,
        }
    }
}

/// Reusable working memory for [`SpikeDetector::detect_into`], so
/// detection sweeps over many pixels allocate once instead of per series.
#[derive(Debug, Clone, Default)]
pub struct SpikeScratch {
    centered: Vec<f64>,
    feature: Vec<f64>,
    sort: Vec<f64>,
}

impl SpikeScratch {
    /// Creates empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SpikeDetector {
    /// Detects spikes in a series, returning sample indices of detections.
    ///
    /// The series is median-subtracted first; the noise σ comes from the
    /// MAD, so the spikes themselves barely bias it.
    pub fn detect(&self, series: &[f64]) -> Vec<usize> {
        let mut out = Vec::new();
        self.detect_into(series, &mut SpikeScratch::new(), &mut out);
        out
    }

    /// [`detect`](Self::detect) with caller-provided scratch space and
    /// output buffer (cleared and refilled) — the allocation-free form
    /// for per-pixel sweeps.
    pub fn detect_into(&self, series: &[f64], scratch: &mut SpikeScratch, out: &mut Vec<usize>) {
        out.clear();
        if series.len() < 3 {
            return;
        }
        // len >= 3 makes the median/MAD calls infallible; the fallbacks
        // only defend the error-type boundary.
        let base = median_with(series, &mut scratch.sort).unwrap_or(0.0);
        scratch.centered.clear();
        scratch.centered.extend(series.iter().map(|x| x - base));
        let centered = &scratch.centered;

        let sigma = match self.method {
            DetectionMethod::AmplitudeThreshold => {
                let sigma = mad_sigma_with(centered, &mut scratch.sort)
                    .unwrap_or(0.0)
                    .max(1e-30);
                scratch.feature.clear();
                scratch.feature.extend(centered.iter().map(|x| x.abs()));
                sigma
            }
            DetectionMethod::Neo => {
                // ψ[i] = x[i]² − x[i−1]·x[i+1]; the two end samples stay 0.
                scratch.feature.clear();
                scratch.feature.push(0.0);
                scratch
                    .feature
                    .extend(centered.windows(3).map(|w| match *w {
                        [prev, x, next] => x * x - prev * next,
                        _ => 0.0,
                    }));
                scratch.feature.push(0.0);
                mad_sigma_with(&scratch.feature, &mut scratch.sort)
                    .unwrap_or(0.0)
                    .max(1e-30)
            }
        };
        let feature = &scratch.feature;

        let threshold = self.threshold_sigmas * sigma;
        let refractory = self.refractory_samples.max(1);
        let mut i = 0;
        while i < feature.len() {
            let here = feature.get(i).copied().unwrap_or(0.0);
            if here > threshold {
                // Align to the local maximum within the refractory window.
                let end = (i + refractory).min(feature.len());
                let mut peak = i;
                let mut peak_value = here;
                for (j, &v) in feature.iter().enumerate().take(end).skip(i + 1) {
                    if v > peak_value {
                        peak = j;
                        peak_value = v;
                    }
                }
                out.push(peak);
                // The event lasts the refractory period and then until the
                // feature is back under threshold: an action potential
                // whose after-lobe outlasts the refractory window still
                // counts once.
                i = peak + refractory;
                while feature.get(i).is_some_and(|&v| v > threshold) {
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
    }
}

/// Scoring of detections against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionScore {
    /// Ground-truth events matched by a detection.
    pub true_positives: usize,
    /// Detections with no matching ground-truth event.
    pub false_positives: usize,
    /// Ground-truth events with no detection.
    pub false_negatives: usize,
}

impl DetectionScore {
    /// Recall = TP / (TP + FN); 1.0 when there are no events.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Precision = TP / (TP + FP); 1.0 when there are no detections.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Matches detections to ground-truth event indices with a tolerance (in
/// samples); each truth event consumes at most one detection.
pub fn score_detections(detected: &[usize], truth: &[usize], tolerance: usize) -> DetectionScore {
    let mut used = vec![false; detected.len()];
    let mut tp = 0usize;
    for &t in truth {
        let hit = detected
            .iter()
            .zip(&mut used)
            .find(|(&d, used)| !**used && d.abs_diff(t) <= tolerance);
        if let Some((_, used)) = hit {
            *used = true;
            tp += 1;
        }
    }
    DetectionScore {
        true_positives: tp,
        false_positives: detected.len() - tp,
        false_negatives: truth.len() - tp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noise from a deterministic LCG + spikes of the given amplitude.
    fn synth(spike_at: &[usize], amp: f64, n: usize, noise: f64) -> Vec<f64> {
        let mut state = 99u64;
        let mut series: Vec<f64> = (0..n)
            .map(|_| {
                let mut sum = 0.0;
                for _ in 0..12 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    sum += (state >> 11) as f64 / (1u64 << 53) as f64;
                }
                (sum - 6.0) * noise
            })
            .collect();
        for &s in spike_at {
            if s < n {
                series[s] += amp;
                if s + 1 < n {
                    series[s + 1] -= 0.4 * amp; // biphasic tail
                }
            }
        }
        series
    }

    #[test]
    fn detects_clear_spikes() {
        let truth = [50, 120, 300, 480];
        let series = synth(&truth, 1.0, 600, 0.05);
        let det = SpikeDetector::default().detect(&series);
        let score = score_detections(&det, &truth, 2);
        assert_eq!(score.true_positives, 4);
        assert_eq!(score.false_positives, 0);
        assert!((score.f1() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn misses_subthreshold_spikes() {
        let truth = [100, 200];
        let series = synth(&truth, 0.1, 400, 0.05); // 2 σ spikes
        let det = SpikeDetector::default().detect(&series);
        let score = score_detections(&det, &truth, 2);
        assert!(score.recall() < 1.0);
    }

    #[test]
    fn refractory_prevents_double_counting() {
        let truth = [100];
        let mut series = synth(&truth, 1.0, 300, 0.02);
        series[101] += 0.8; // same event, adjacent sample
        let det = SpikeDetector::default().detect(&series);
        assert_eq!(det.len(), 1, "detections = {det:?}");
    }

    #[test]
    fn long_after_lobe_is_one_detection() {
        // An extracellular AP: a sharp peak, then an after-lobe that stays
        // over threshold for twice the refractory period.
        let truth = [100, 220];
        let mut series = synth(&truth, 1.0, 300, 0.02);
        for &t in &truth {
            for x in series.iter_mut().skip(t + 1).take(8) {
                *x -= 0.5;
            }
        }
        let det = SpikeDetector::default().detect(&series);
        assert_eq!(det, truth, "one detection per action potential");
    }

    #[test]
    fn neo_detects_sharp_transients() {
        let truth = [80, 250];
        let series = synth(&truth, 0.6, 400, 0.05);
        let det = SpikeDetector {
            method: DetectionMethod::Neo,
            threshold_sigmas: 8.0,
            refractory_samples: 4,
        }
        .detect(&series);
        let score = score_detections(&det, &truth, 2);
        assert_eq!(score.true_positives, 2, "det = {det:?}");
    }

    #[test]
    fn neo_rejects_slow_drift_better_than_amplitude() {
        // Slow huge ramp + one small sharp spike.
        let n = 600;
        let mut series: Vec<f64> = (0..n).map(|k| 3.0 * (k as f64 / n as f64)).collect();
        let noise = synth(&[], 0.0, n, 0.01);
        for (s, x) in series.iter_mut().zip(noise.iter()) {
            *s += x;
        }
        series[300] += 0.4;
        series[301] -= 0.15;
        let neo = SpikeDetector {
            method: DetectionMethod::Neo,
            threshold_sigmas: 10.0,
            refractory_samples: 4,
        }
        .detect(&series);
        let neo_score = score_detections(&neo, &[300], 2);
        assert_eq!(neo_score.true_positives, 1, "neo = {neo:?}");
        assert!(neo_score.false_positives <= 1);
    }

    #[test]
    fn empty_and_tiny_series() {
        let d = SpikeDetector::default();
        assert!(d.detect(&[]).is_empty());
        assert!(d.detect(&[1.0, 2.0]).is_empty());
    }

    #[test]
    fn detect_into_reuses_scratch_across_series() {
        let det = SpikeDetector::default();
        let mut scratch = SpikeScratch::new();
        let mut out = Vec::new();
        for (truth, amp) in [(vec![50usize, 200], 1.0), (vec![30, 90, 150], 0.8)] {
            let series = synth(&truth, amp, 300, 0.04);
            det.detect_into(&series, &mut scratch, &mut out);
            assert_eq!(out, det.detect(&series));
        }
        // NEO path through the same scratch.
        let neo = SpikeDetector {
            method: DetectionMethod::Neo,
            threshold_sigmas: 8.0,
            refractory_samples: 4,
        };
        let series = synth(&[80, 250], 0.6, 400, 0.05);
        neo.detect_into(&series, &mut scratch, &mut out);
        assert_eq!(out, neo.detect(&series));
    }

    #[test]
    fn no_spikes_in_pure_noise() {
        let series = synth(&[], 0.0, 2000, 0.05);
        let det = SpikeDetector::default().detect(&series);
        // 4.5 σ on 2000 Gaussian samples: expect ≈0 crossings (p ≈ 7e-6).
        assert!(det.len() <= 1, "false detections: {det:?}");
    }

    #[test]
    fn score_handles_edge_cases() {
        let s = score_detections(&[], &[], 2);
        assert_eq!(s.recall(), 1.0);
        assert_eq!(s.precision(), 1.0);
        let s = score_detections(&[5], &[], 2);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.recall(), 1.0);
        let s = score_detections(&[], &[5], 2);
        assert_eq!(s.false_negatives, 1);
        assert_eq!(s.f1(), 0.0);
    }

    #[test]
    fn one_detection_matches_at_most_one_truth() {
        // Two truth events near one detection: only one TP.
        let s = score_detections(&[100], &[99, 101], 2);
        assert_eq!(s.true_positives, 1);
        assert_eq!(s.false_negatives, 1);
    }
}
