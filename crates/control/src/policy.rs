//! The recovery policy: a deterministic map from classified chip state
//! to typed actions.
//!
//! The engine is a pure function of the assessment it is shown, its own
//! bounded counters, and a seeded RNG stream (used only to draw fresh
//! chip seeds for reattachment). Two engines built with the same seed
//! and fed the same assessments emit the same actions in the same
//! order — that is what makes recovery traces replayable.

use crate::classifier::{ChipAssessment, ChipCondition};
use bsa_rng::SmallRng;

/// A typed recovery action for the controller to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Re-run auto-calibration on the chip.
    Recalibrate,
    /// Mask the given row-major pixel indices so the station
    /// interpolates over them.
    MaskPixels(Vec<u32>),
    /// Re-run the configured assay to confirm a hybridization call.
    ReRunAssay,
    /// Detach the chip and attach a replacement with the given seed.
    Reattach {
        /// Seed for the replacement chip's noise/spike RNG.
        seed: u64,
    },
}

impl Action {
    /// A short stable label for traces.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Recalibrate => "recalibrate".to_string(),
            Self::MaskPixels(pixels) => format!("mask_pixels({})", pixels.len()),
            Self::ReRunAssay => "re_run_assay".to_string(),
            Self::Reattach { .. } => "reattach".to_string(),
        }
    }
}

/// Bounds on how far the policy escalates.
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Most pixels the policy will mask before preferring replacement.
    pub mask_budget: usize,
    /// Recalibrations attempted before escalating drift to reattach.
    pub max_recalibrations: u32,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            mask_budget: 256,
            max_recalibrations: 2,
        }
    }
}

/// Deterministic policy engine. See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct PolicyEngine {
    rng: SmallRng,
    config: PolicyConfig,
    recalibrations: u32,
    hybridization_reported: bool,
}

impl PolicyEngine {
    /// An engine whose reattach seeds derive from `seed`.
    #[must_use]
    pub fn new(seed: u64, config: PolicyConfig) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            config,
            recalibrations: 0,
            hybridization_reported: false,
        }
    }

    /// Resets the escalation counters (called after a reattach hands us
    /// a physically fresh chip).
    pub fn reset_escalation(&mut self) {
        self.recalibrations = 0;
        self.hybridization_reported = false;
    }

    /// Decides the next action for the assessed chip, or `None` when
    /// nothing needs doing.
    pub fn decide(&mut self, assessment: &ChipAssessment) -> Option<Action> {
        match assessment.condition {
            ChipCondition::Healthy | ChipCondition::Unobserved => None,
            ChipCondition::ChannelLoss => Some(self.reattach()),
            ChipCondition::DeadPixels => {
                if assessment.mask_candidates.is_empty() {
                    // Everything dead is already masked but the chip
                    // still reads dead: the mask is not taking effect,
                    // so replace the part.
                    Some(self.reattach())
                } else if assessment.mask_candidates.len() <= self.config.mask_budget {
                    Some(Action::MaskPixels(assessment.mask_candidates.clone()))
                } else {
                    Some(self.reattach())
                }
            }
            ChipCondition::BaselineDrift | ChipCondition::Clipping => {
                if self.recalibrations < self.config.max_recalibrations {
                    self.recalibrations += 1;
                    Some(Action::Recalibrate)
                } else {
                    Some(self.reattach())
                }
            }
            ChipCondition::HybridizationDetected => {
                if self.hybridization_reported {
                    None
                } else {
                    self.hybridization_reported = true;
                    Some(Action::ReRunAssay)
                }
            }
        }
    }

    fn reattach(&mut self) -> Action {
        Action::Reattach {
            seed: self.rng.next_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::PixelState;

    fn assessment(condition: ChipCondition) -> ChipAssessment {
        ChipAssessment {
            condition,
            effective_yield: 0.5,
            pixel_states: vec![PixelState::Healthy; 4],
            mask_candidates: vec![1, 2],
            lost_channels: Vec::new(),
        }
    }

    #[test]
    fn healthy_needs_no_action() {
        let mut p = PolicyEngine::new(1, PolicyConfig::default());
        assert_eq!(p.decide(&assessment(ChipCondition::Healthy)), None);
    }

    #[test]
    fn dead_pixels_mask_within_budget_else_reattach() {
        let mut p = PolicyEngine::new(1, PolicyConfig::default());
        assert_eq!(
            p.decide(&assessment(ChipCondition::DeadPixels)),
            Some(Action::MaskPixels(vec![1, 2]))
        );
        let mut small = PolicyEngine::new(
            1,
            PolicyConfig {
                mask_budget: 1,
                max_recalibrations: 2,
            },
        );
        assert!(matches!(
            small.decide(&assessment(ChipCondition::DeadPixels)),
            Some(Action::Reattach { .. })
        ));
    }

    #[test]
    fn drift_recalibrates_then_escalates() {
        let mut p = PolicyEngine::new(1, PolicyConfig::default());
        assert_eq!(
            p.decide(&assessment(ChipCondition::BaselineDrift)),
            Some(Action::Recalibrate)
        );
        assert_eq!(
            p.decide(&assessment(ChipCondition::BaselineDrift)),
            Some(Action::Recalibrate)
        );
        assert!(matches!(
            p.decide(&assessment(ChipCondition::BaselineDrift)),
            Some(Action::Reattach { .. })
        ));
    }

    #[test]
    fn hybridization_confirms_once() {
        let mut p = PolicyEngine::new(1, PolicyConfig::default());
        assert_eq!(
            p.decide(&assessment(ChipCondition::HybridizationDetected)),
            Some(Action::ReRunAssay)
        );
        assert_eq!(
            p.decide(&assessment(ChipCondition::HybridizationDetected)),
            None
        );
    }

    #[test]
    fn same_seed_same_reattach_seeds() {
        let mut a = PolicyEngine::new(42, PolicyConfig::default());
        let mut b = PolicyEngine::new(42, PolicyConfig::default());
        for _ in 0..4 {
            assert_eq!(
                a.decide(&assessment(ChipCondition::ChannelLoss)),
                b.decide(&assessment(ChipCondition::ChannelLoss))
            );
        }
    }
}
