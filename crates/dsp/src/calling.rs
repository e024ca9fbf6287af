//! Hybridization match/mismatch calling on DNA-chip readouts.
//!
//! "Identification of the sites with double-stranded DNA thus reveals the
//! composition of the sample, since the probes and their positions are
//! known" (paper Section 2). With redox-cycling currents spanning
//! 1 pA … 100 nA, matched sites sit orders of magnitude above the
//! background; calling operates on log-currents with a robust
//! background-derived threshold.

use crate::stats::{mad_sigma, median};

/// A per-site call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// Double-stranded DNA present (hybridized).
    Match,
    /// No (or mismatched, washed-away) hybridization.
    Mismatch,
}

/// Match-calling configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchCaller {
    /// Threshold above the background median, in robust σ of the
    /// log₁₀-current background distribution.
    pub threshold_sigmas: f64,
    /// Floor current (A) below which log-currents are clamped (avoids
    /// −∞ for zero-count sites).
    pub current_floor: f64,
    /// Minimum current ratio over the background median for a Match call —
    /// rejects faint residuals (partially washed single-mismatch sites)
    /// that clear the statistical threshold but carry no real coverage.
    pub min_ratio_over_background: f64,
}

impl Default for MatchCaller {
    fn default() -> Self {
        Self {
            threshold_sigmas: 6.0,
            current_floor: 1e-14,
            min_ratio_over_background: 30.0,
        }
    }
}

/// Result of calling an array.
#[derive(Debug, Clone, PartialEq)]
pub struct CallingResult {
    /// Per-site calls in the input order.
    pub calls: Vec<Call>,
    /// The log₁₀(A) threshold used.
    pub log_threshold: f64,
    /// Median background current (A).
    pub background_current: f64,
}

impl CallingResult {
    /// Number of match calls.
    pub fn match_count(&self) -> usize {
        self.calls.iter().filter(|c| **c == Call::Match).count()
    }

    /// Indices of match calls.
    pub fn match_indices(&self) -> Vec<usize> {
        self.calls
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == Call::Match)
            .map(|(i, _)| i)
            .collect()
    }
}

impl MatchCaller {
    /// Calls every site from its estimated current (A).
    ///
    /// The background statistics are taken from the lower half of the
    /// log-current distribution, making the caller robust even when many
    /// sites are matches.
    pub fn call(&self, currents_a: &[f64]) -> CallingResult {
        if currents_a.is_empty() {
            return CallingResult {
                calls: Vec::new(),
                log_threshold: f64::INFINITY,
                background_current: 0.0,
            };
        }
        let logs: Vec<f64> = currents_a
            .iter()
            .map(|i| i.max(self.current_floor).log10())
            .collect();
        // Background: the lower half of sites.
        let mut sorted = logs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let half = (sorted.len() / 2).max(1);
        let lower = sorted.get(..half).unwrap_or(&sorted[..]);
        // `lower` is non-empty here, so the statistics cannot fail.
        let bg_median = median(lower).unwrap_or(0.0);
        let bg_sigma = mad_sigma(lower).unwrap_or(0.0).max(0.05);
        let log_threshold = (bg_median + self.threshold_sigmas * bg_sigma)
            .max(bg_median + self.min_ratio_over_background.log10());

        let calls = logs
            .iter()
            .map(|l| {
                if *l > log_threshold {
                    Call::Match
                } else {
                    Call::Mismatch
                }
            })
            .collect();
        CallingResult {
            calls,
            log_threshold,
            background_current: 10f64.powf(bg_median),
        }
    }

    /// Discrimination ratio: median matched current over median
    /// non-matched current, given ground-truth labels. Returns `None`
    /// unless both classes are present.
    pub fn discrimination_ratio(currents_a: &[f64], truth_match: &[bool]) -> Option<f64> {
        let matched: Vec<f64> = currents_a
            .iter()
            .zip(truth_match)
            .filter(|(_, m)| **m)
            .map(|(i, _)| *i)
            .collect();
        let unmatched: Vec<f64> = currents_a
            .iter()
            .zip(truth_match)
            .filter(|(_, m)| !**m)
            .map(|(i, _)| *i)
            .collect();
        if matched.is_empty() || unmatched.is_empty() {
            return None;
        }
        let med_matched = median(&matched).ok()?;
        let med_unmatched = median(&unmatched).ok()?;
        Some(med_matched / med_unmatched.max(1e-30))
    }
}

/// Confusion counts of calls against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallAccuracy {
    /// Matches called matches.
    pub true_positives: usize,
    /// Mismatches called matches.
    pub false_positives: usize,
    /// Mismatches called mismatches.
    pub true_negatives: usize,
    /// Matches called mismatches.
    pub false_negatives: usize,
}

impl CallAccuracy {
    /// Computes the confusion counts.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn of(calls: &[Call], truth_match: &[bool]) -> Self {
        assert_eq!(calls.len(), truth_match.len());
        let mut acc = Self {
            true_positives: 0,
            false_positives: 0,
            true_negatives: 0,
            false_negatives: 0,
        };
        for (c, &t) in calls.iter().zip(truth_match) {
            match (c, t) {
                (Call::Match, true) => acc.true_positives += 1,
                (Call::Match, false) => acc.false_positives += 1,
                (Call::Mismatch, false) => acc.true_negatives += 1,
                (Call::Mismatch, true) => acc.false_negatives += 1,
            }
        }
        acc
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let total =
            self.true_positives + self.false_positives + self.true_negatives + self.false_negatives;
        if total == 0 {
            1.0
        } else {
            (self.true_positives + self.true_negatives) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 120 background sites near 1 pA (±20 %), 8 match sites near 50 nA.
    fn synthetic_array() -> (Vec<f64>, Vec<bool>) {
        let mut currents = Vec::new();
        let mut truth = Vec::new();
        for k in 0..128 {
            if k % 16 == 0 {
                currents.push(50e-9 * (1.0 + 0.1 * ((k % 7) as f64 - 3.0) / 3.0));
                truth.push(true);
            } else {
                currents.push(1e-12 * (1.0 + 0.2 * ((k % 11) as f64 - 5.0) / 5.0));
                truth.push(false);
            }
        }
        (currents, truth)
    }

    #[test]
    fn calls_synthetic_array_perfectly() {
        let (currents, truth) = synthetic_array();
        let result = MatchCaller::default().call(&currents);
        let acc = CallAccuracy::of(&result.calls, &truth);
        assert_eq!(acc.accuracy(), 1.0, "confusion: {acc:?}");
        assert_eq!(result.match_count(), 8);
    }

    #[test]
    fn background_statistics_are_sane() {
        let (currents, _) = synthetic_array();
        let result = MatchCaller::default().call(&currents);
        assert!(
            (result.background_current - 1e-12).abs() / 1e-12 < 0.3,
            "bg = {}",
            result.background_current
        );
        assert!(result.log_threshold < -9.0, "threshold too high");
    }

    #[test]
    fn discrimination_ratio_is_large() {
        let (currents, truth) = synthetic_array();
        let ratio = MatchCaller::discrimination_ratio(&currents, &truth).unwrap();
        assert!(ratio > 1e4, "ratio = {ratio}");
    }

    #[test]
    fn discrimination_ratio_requires_both_classes() {
        assert!(MatchCaller::discrimination_ratio(&[1.0, 2.0], &[true, true]).is_none());
        assert!(MatchCaller::discrimination_ratio(&[1.0, 2.0], &[false, false]).is_none());
    }

    #[test]
    fn zero_currents_are_floored_not_nan() {
        let result = MatchCaller::default().call(&[0.0, 0.0, 1e-8]);
        assert_eq!(result.calls[2], Call::Match);
        assert_eq!(result.calls[0], Call::Mismatch);
        assert!(result.log_threshold.is_finite());
    }

    #[test]
    fn all_background_array_calls_no_matches() {
        let currents: Vec<f64> = (0..64)
            .map(|k| 1e-12 * (1.0 + 0.1 * ((k % 5) as f64 - 2.0)))
            .collect();
        let result = MatchCaller::default().call(&currents);
        assert_eq!(result.match_count(), 0, "calls: {:?}", result.calls);
    }

    #[test]
    fn match_indices_reported() {
        let (currents, truth) = synthetic_array();
        let result = MatchCaller::default().call(&currents);
        let expected: Vec<usize> = truth
            .iter()
            .enumerate()
            .filter(|(_, t)| **t)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(result.match_indices(), expected);
    }

    #[test]
    fn accuracy_edge_case_empty() {
        let acc = CallAccuracy::of(&[], &[]);
        assert_eq!(acc.accuracy(), 1.0);
    }
}
