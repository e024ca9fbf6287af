//! Folds streamed frames, assay estimates and yield summaries into
//! per-pixel and per-chip states.
//!
//! Classification is observation-driven and pure: the same frames and
//! estimates always produce the same assessment. The discriminators
//! mirror what the chip models actually do:
//!
//! * Lost readout channels read **exactly** `0.0` (the multiplexer
//!   output is grounded), so whole-window silence is the channel-loss
//!   signature.
//! * Dead neuro pixels contribute no difference current but still pass
//!   through the noisy readout chain, so they read *quiet*, not silent:
//!   their RMS sits far below the array median (measured ≈ 0.09× the
//!   median, against ≥ 0.25× for signal-bearing pixels).
//! * DNA comparator drift biases the *current estimates* until the
//!   per-pixel gain correction is re-derived; auto-calibration restores
//!   estimates to within ≈ 2% of baseline while a 400 mV drift biases
//!   them by ≈ 30%. Estimates, not raw counts, are therefore the
//!   recovery-sensitive observable.
//!
//! Masked pixels are repaired by the station's neighbor interpolation
//! before they reach the classifier, which is exactly how masking
//! restores effective yield.

use bsa_link::YieldSummary;
use std::collections::BTreeSet;

/// State of one pixel, as inferred from the current observation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PixelState {
    /// Behaving like its neighbors / its own baseline.
    Healthy,
    /// Every sample in the window was exactly `0.0`: a lost readout
    /// channel (or a hard-grounded output).
    Silent,
    /// RMS far below the array median: dead pixel reading only chain
    /// noise.
    Quiet,
    /// Samples pinned at the gain chain's swing limit.
    Clipping,
    /// Assay estimate shifted away from this pixel's captured baseline.
    Drifted,
    /// Assay estimate strongly elevated above baseline: a hybridization
    /// signal, not a defect.
    Elevated,
}

/// Chip-level condition distilled from the pixel states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipCondition {
    /// Nothing actionable observed.
    Healthy,
    /// One or more whole readout channels are silent.
    ChannelLoss,
    /// Scattered dead (quiet/silent) pixels above the dead-pixel floor.
    DeadPixels,
    /// Assay estimates drifted from baseline on too many pixels.
    BaselineDrift,
    /// Too many pixels pinned at the swing limit.
    Clipping,
    /// A subset of spots reports strongly elevated estimates while the
    /// rest hold baseline: the assay found its targets.
    HybridizationDetected,
    /// Not enough data to classify (no frames, or no captured baseline
    /// for a DNA chip).
    Unobserved,
}

// Thresholds. Fractions are of the whole array unless noted. Each was
// measured against the chip models (see the module docs).

/// A pixel whose window RMS falls below this fraction of the array median
/// RMS counts as quiet (dead).
const RMS_FLOOR_FRACTION: f64 = 0.25;
/// Sample magnitude at or beyond which a neuro sample counts as clipped,
/// in the stream's sample units.
const CLIP_LEVEL: f64 = 0.045;
/// Fraction of a pixel's samples that must clip to call the pixel
/// clipping.
const CLIP_SAMPLE_FRACTION: f64 = 0.5;
/// Fraction of clipping pixels that makes the chip's condition
/// [`ChipCondition::Clipping`].
const CLIP_FLOOR: f64 = 0.02;
/// Fraction of unmasked dead pixels (outside lost channels) that makes the
/// chip's condition [`ChipCondition::DeadPixels`].
const DEAD_FLOOR: f64 = 0.02;
/// Relative deviation of a DNA pixel's current estimate from its baseline
/// at which the pixel counts as drifted. Drift faults bias estimates
/// ≈ 30%; calibration noise stays ≈ 2%.
const PIXEL_DEVIATION: f64 = 0.15;
/// Ratio of a DNA pixel's estimate over its baseline at which the pixel
/// counts as a hybridization signal instead of a defect.
const HYBRIDIZATION_RATIO: f64 = 8.0;
/// Fraction of drifted pixels that makes the chip's condition
/// [`ChipCondition::BaselineDrift`].
const DRIFT_FLOOR: f64 = 0.05;
/// Fraction of elevated pixels that makes the chip's condition
/// [`ChipCondition::HybridizationDetected`].
const HYBRIDIZATION_FLOOR: f64 = 0.01;

/// One observation window's verdict on a chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipAssessment {
    /// The distilled chip condition.
    pub condition: ChipCondition,
    /// Fraction of pixels producing usable data this window (`0..=1`).
    pub effective_yield: f64,
    /// Per-pixel states in row-major order.
    pub pixel_states: Vec<PixelState>,
    /// Row-major indices of dead (quiet/silent) pixels outside lost
    /// channels that are not already masked — the mask candidates.
    pub mask_candidates: Vec<u32>,
    /// Readout channels observed (or reported) fully silent, sorted.
    pub lost_channels: Vec<u32>,
}

/// Folds observations into [`ChipAssessment`]s. Holds the per-chip DNA
/// estimate baseline captured before faults were injected; the default
/// classifier has none.
#[derive(Debug, Clone, Default)]
pub struct StateClassifier {
    dna_baseline: Option<Vec<f64>>,
}

impl StateClassifier {
    /// Captures the pre-fault DNA estimate baseline later observations
    /// are compared against (per-pixel estimated currents in amperes).
    pub fn set_dna_baseline(&mut self, estimates: Vec<f64>) {
        self.dna_baseline = Some(estimates);
    }

    /// Drops the captured baseline (e.g. after reattaching a fresh chip).
    pub fn clear_dna_baseline(&mut self) {
        self.dna_baseline = None;
    }

    /// `true` once a DNA baseline has been captured.
    #[must_use]
    pub fn has_dna_baseline(&self) -> bool {
        self.dna_baseline.is_some()
    }

    /// Classifies a neuro chip from one window of streamed frames.
    ///
    /// `frames` are row-major `rows * cols` sample vectors as delivered
    /// by the station (post mask repair); `masked` is the controller's
    /// view of the pixels it has already masked.
    #[must_use]
    pub fn observe_neuro(
        &self,
        summary: &YieldSummary,
        rows: u16,
        cols: u16,
        frames: &[Vec<f64>],
        masked: &BTreeSet<u32>,
    ) -> ChipAssessment {
        let total = usize::from(rows) * usize::from(cols);
        if total == 0 || frames.is_empty() {
            return ChipAssessment {
                condition: ChipCondition::Unobserved,
                effective_yield: 0.0,
                pixel_states: Vec::new(),
                mask_candidates: Vec::new(),
                lost_channels: summary.lost_channels.clone(),
            };
        }

        let mut square_sums = vec![0.0f64; total];
        let mut zero_samples = vec![0usize; total];
        let mut clipped_samples = vec![0usize; total];
        let mut samples_seen = vec![0usize; total];
        for frame in frames {
            let mut sq = square_sums.iter_mut();
            let mut zeros = zero_samples.iter_mut();
            let mut clips = clipped_samples.iter_mut();
            let mut seen = samples_seen.iter_mut();
            for &s in frame.iter().take(total) {
                let (Some(q), Some(z), Some(c), Some(n)) =
                    (sq.next(), zeros.next(), clips.next(), seen.next())
                else {
                    break;
                };
                *n += 1;
                *q += s * s;
                if s == 0.0 {
                    *z += 1;
                }
                if s.abs() >= CLIP_LEVEL {
                    *c += 1;
                }
            }
        }

        let rms: Vec<f64> = square_sums
            .iter()
            .zip(samples_seen.iter())
            .map(|(&q, &n)| if n == 0 { 0.0 } else { (q / n as f64).sqrt() })
            .collect();
        let median_rms = median_of_positive(&rms);
        let quiet_floor = RMS_FLOOR_FRACTION * median_rms;

        let pixel_states: Vec<PixelState> = rms
            .iter()
            .zip(zero_samples.iter())
            .zip(clipped_samples.iter())
            .zip(samples_seen.iter())
            .map(|(((&rms, &zeros), &clips), &seen)| {
                if seen == 0 {
                    PixelState::Healthy
                } else if zeros == seen {
                    PixelState::Silent
                } else if (clips as f64) >= CLIP_SAMPLE_FRACTION * (seen as f64) {
                    PixelState::Clipping
                } else if rms < quiet_floor {
                    PixelState::Quiet
                } else {
                    PixelState::Healthy
                }
            })
            .collect();

        let lost_channels = detect_lost_channels(summary, cols, &pixel_states);
        let channel_pixels = channel_pixel_set(cols, summary.total_channels, &lost_channels, total);

        let dead_total = pixel_states
            .iter()
            .filter(|&&s| matches!(s, PixelState::Silent | PixelState::Quiet))
            .count();
        let mask_candidates: Vec<u32> = pixel_states
            .iter()
            .enumerate()
            .filter(|(idx, &state)| {
                matches!(state, PixelState::Silent | PixelState::Quiet)
                    && !channel_pixels.contains(&(*idx as u32))
                    && !masked.contains(&(*idx as u32))
            })
            .map(|(idx, _)| idx as u32)
            .collect();
        let clipping = pixel_states
            .iter()
            .filter(|&&s| s == PixelState::Clipping)
            .count();

        let effective_yield = (total - dead_total) as f64 / total as f64;
        let condition = if !lost_channels.is_empty() {
            ChipCondition::ChannelLoss
        } else if (mask_candidates.len() as f64) >= DEAD_FLOOR * (total as f64) {
            ChipCondition::DeadPixels
        } else if (clipping as f64) >= CLIP_FLOOR * (total as f64) {
            ChipCondition::Clipping
        } else {
            ChipCondition::Healthy
        };

        ChipAssessment {
            condition,
            effective_yield,
            pixel_states,
            mask_candidates,
            lost_channels,
        }
    }

    /// Classifies a DNA chip from one assay's per-pixel current
    /// estimates against the captured baseline. Without a baseline the
    /// chip is [`ChipCondition::Unobserved`].
    #[must_use]
    pub fn observe_dna(&self, summary: &YieldSummary, estimates: &[f64]) -> ChipAssessment {
        let total = estimates.len();
        let Some(baseline) = self
            .dna_baseline
            .as_ref()
            .filter(|b| b.len() == total && total > 0)
        else {
            return ChipAssessment {
                condition: ChipCondition::Unobserved,
                effective_yield: summary_yield(summary),
                pixel_states: Vec::new(),
                mask_candidates: Vec::new(),
                lost_channels: summary.lost_channels.clone(),
            };
        };

        let pixel_states: Vec<PixelState> = estimates
            .iter()
            .zip(baseline.iter())
            .map(|(&value, &reference)| {
                let reference_mag = reference.abs().max(f64::MIN_POSITIVE);
                if value.abs() >= HYBRIDIZATION_RATIO * reference_mag {
                    PixelState::Elevated
                } else if (value - reference).abs() >= PIXEL_DEVIATION * reference_mag {
                    PixelState::Drifted
                } else {
                    PixelState::Healthy
                }
            })
            .collect();

        let drifted = pixel_states
            .iter()
            .filter(|&&s| s == PixelState::Drifted)
            .count();
        let elevated = pixel_states
            .iter()
            .filter(|&&s| s == PixelState::Elevated)
            .count();

        let effective_yield = (total - drifted) as f64 / total as f64;
        let condition = if (elevated as f64) >= HYBRIDIZATION_FLOOR * (total as f64)
            && (drifted as f64) < DRIFT_FLOOR * (total as f64)
        {
            ChipCondition::HybridizationDetected
        } else if (drifted as f64) >= DRIFT_FLOOR * (total as f64) {
            ChipCondition::BaselineDrift
        } else {
            ChipCondition::Healthy
        };

        ChipAssessment {
            condition,
            effective_yield,
            pixel_states,
            mask_candidates: Vec::new(),
            lost_channels: summary.lost_channels.clone(),
        }
    }
}

/// Median RMS over pixels with any signal at all (silent pixels would
/// otherwise drag the median toward zero on heavily faulted arrays).
fn median_of_positive(rms: &[f64]) -> f64 {
    let mut positive: Vec<f64> = rms.iter().copied().filter(|&r| r > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    positive.sort_by(f64::total_cmp);
    let mid = positive.len() / 2;
    positive.get(mid).copied().unwrap_or(0.0)
}

/// A channel is lost when every one of its pixels is silent, or the
/// chip's own health report says so.
fn detect_lost_channels(
    summary: &YieldSummary,
    cols: u16,
    pixel_states: &[PixelState],
) -> Vec<u32> {
    let mut lost: BTreeSet<u32> = summary.lost_channels.iter().copied().collect();
    let channels = summary.total_channels as usize;
    let cols = usize::from(cols);
    if channels > 0 && cols % channels == 0 && cols >= channels {
        let cols_per_ch = cols / channels;
        for ch in 0..channels {
            let all_silent = pixel_states
                .iter()
                .enumerate()
                .filter(|(idx, _)| (idx % cols) / cols_per_ch == ch)
                .all(|(_, &state)| state == PixelState::Silent);
            if all_silent && !pixel_states.is_empty() {
                lost.insert(ch as u32);
            }
        }
    }
    lost.into_iter().collect()
}

/// Usable-pixel fraction straight from a yield summary (healthy and
/// out-of-family pixels both produce data).
fn summary_yield(summary: &YieldSummary) -> f64 {
    if summary.total_pixels == 0 {
        return 0.0;
    }
    f64::from(summary.healthy + summary.out_of_family) / f64::from(summary.total_pixels)
}

/// Row-major indices belonging to the given lost channels.
fn channel_pixel_set(
    cols: u16,
    total_channels: u32,
    lost_channels: &[u32],
    total: usize,
) -> BTreeSet<u32> {
    let mut set = BTreeSet::new();
    let cols = usize::from(cols);
    let channels = total_channels as usize;
    if cols == 0 || channels == 0 || cols % channels != 0 {
        return set;
    }
    let cols_per_ch = cols / channels;
    for idx in 0..total {
        let ch = (idx % cols) / cols_per_ch;
        if lost_channels.contains(&(ch as u32)) {
            set.insert(idx as u32);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(total: u32, channels: u32) -> YieldSummary {
        YieldSummary {
            total_pixels: total,
            healthy: total,
            out_of_family: 0,
            dead: 0,
            lost_channels: Vec::new(),
            total_channels: channels,
            injected: 0,
            serial: Default::default(),
            degradation: bsa_link::DegradationSummary::FullPerformance,
        }
    }

    #[test]
    fn quiet_pixels_classify_dead() {
        let c = StateClassifier::default();
        // 4x4, one channel; pixels 0 and 5 read only faint noise while
        // the rest carry signal.
        let mut frame = vec![1e-2; 16];
        for idx in [0usize, 5] {
            if let Some(s) = frame.get_mut(idx) {
                *s = 1e-4;
            }
        }
        let frames = vec![frame.clone(), frame];
        let a = c.observe_neuro(&summary(16, 1), 4, 4, &frames, &BTreeSet::new());
        assert_eq!(a.condition, ChipCondition::DeadPixels);
        assert_eq!(a.mask_candidates, vec![0, 5]);
        assert!((a.effective_yield - 14.0 / 16.0).abs() < 1e-12);
        assert_eq!(a.pixel_states.first(), Some(&PixelState::Quiet));
    }

    #[test]
    fn whole_silent_channel_classifies_channel_loss() {
        let c = StateClassifier::default();
        // 4x4, two channels of two columns each; channel 1 silent.
        let frame: Vec<f64> = (0..16)
            .map(|idx| if (idx % 4) / 2 == 1 { 0.0 } else { 2e-3 })
            .collect();
        let frames = vec![frame];
        let a = c.observe_neuro(&summary(16, 2), 4, 4, &frames, &BTreeSet::new());
        assert_eq!(a.condition, ChipCondition::ChannelLoss);
        assert_eq!(a.lost_channels, vec![1]);
        // Channel pixels are not mask candidates.
        assert!(a.mask_candidates.is_empty());
    }

    #[test]
    fn clipped_pixels_classify_clipping() {
        let c = StateClassifier::default();
        let frame: Vec<f64> = (0..16)
            .map(|idx| if idx == 3 { 0.05 } else { 1e-2 })
            .collect();
        let frames = vec![frame.clone(), frame];
        let a = c.observe_neuro(&summary(16, 1), 4, 4, &frames, &BTreeSet::new());
        assert_eq!(a.condition, ChipCondition::Clipping);
        assert_eq!(a.pixel_states.get(3), Some(&PixelState::Clipping));
    }

    #[test]
    fn masked_pixels_are_not_mask_candidates() {
        let c = StateClassifier::default();
        let mut frame = vec![1e-2; 16];
        if let Some(s) = frame.get_mut(7) {
            *s = 1e-4;
        }
        let masked: BTreeSet<u32> = [7u32].into_iter().collect();
        let a = c.observe_neuro(&summary(16, 1), 4, 4, &[frame], &masked);
        assert!(a.mask_candidates.is_empty());
        // Condition clears once the only dead pixel is masked...
        assert_eq!(a.condition, ChipCondition::Healthy);
        // ...but the yield still reflects that the pixel carries no data
        // of its own this window.
        assert!((a.effective_yield - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn dna_drift_against_baseline() {
        let mut c = StateClassifier::default();
        c.set_dna_baseline(vec![10e-9; 16]);
        // Half the pixels read 30% low, mirroring a 400 mV comparator
        // drift; the rest sit within calibration noise.
        let estimates: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 7e-9 } else { 10.1e-9 })
            .collect();
        let a = c.observe_dna(&summary(16, 1), &estimates);
        assert_eq!(a.condition, ChipCondition::BaselineDrift);
        assert!((a.effective_yield - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dna_elevated_subset_is_hybridization_not_drift() {
        let mut c = StateClassifier::default();
        c.set_dna_baseline(vec![1e-9; 100]);
        let estimates: Vec<f64> = (0..100).map(|i| if i < 3 { 50e-9 } else { 1e-9 }).collect();
        let a = c.observe_dna(&summary(100, 1), &estimates);
        assert_eq!(a.condition, ChipCondition::HybridizationDetected);
        assert!((a.effective_yield - 1.0).abs() < 1e-12);
        assert_eq!(a.pixel_states.first(), Some(&PixelState::Elevated));
    }

    #[test]
    fn dna_without_baseline_is_unobserved() {
        let c = StateClassifier::default();
        let a = c.observe_dna(&summary(16, 1), &[1e-9; 16]);
        assert_eq!(a.condition, ChipCondition::Unobserved);
    }
}
