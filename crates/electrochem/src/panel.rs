//! Probe-panel design for microarray assays.
//!
//! A practical microarray run needs a *panel*: one probe per target
//! sequence, all usable under a single hybridization/wash condition. That
//! requires (a) melting temperatures inside a common window, so one
//! stringency discriminates every site, and (b) low cross-hybridization
//! between each probe and the other targets. This module selects such
//! probe sets from target sequences — the design step upstream of
//! [`crate::assay`].

use crate::hybridization::HybridizationModel;
use crate::sequence::DnaSequence;
use bsa_units::Kelvin;
use std::error::Error;
use std::fmt;

/// Panel-design parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelDesign {
    /// Probe length in bases (the paper: typically 15–40).
    pub probe_length: usize,
    /// Acceptable melting-temperature window.
    pub tm_min: Kelvin,
    /// Upper edge of the window.
    pub tm_max: Kelvin,
    /// Maximum tolerated complementarity (matched bases at the best
    /// alignment) between a probe and any *other* panel target.
    pub max_cross_matches: usize,
    /// Hybridization model used for Tm evaluation.
    pub model: HybridizationModel,
}

impl Default for PanelDesign {
    /// 20-mers with Tm in 310–360 K and ≤ 13/20 cross-matches.
    fn default() -> Self {
        Self {
            probe_length: 20,
            tm_min: Kelvin::new(310.0),
            tm_max: Kelvin::new(360.0),
            max_cross_matches: 13,
            model: HybridizationModel::default(),
        }
    }
}

/// One designed probe.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignedProbe {
    /// Index of the target this probe detects.
    pub target_index: usize,
    /// Offset of the probe window within the target.
    pub offset: usize,
    /// The probe sequence (reverse complement of the target window).
    pub probe: DnaSequence,
    /// Predicted melting temperature against its own target.
    pub tm: Kelvin,
    /// Worst cross-complementarity against any other target.
    pub worst_cross_matches: usize,
}

/// Error when no valid probe exists for a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignPanelError {
    /// Index of the target that could not be covered.
    pub target_index: usize,
}

impl fmt::Display for DesignPanelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no probe window satisfies the panel constraints for target {}",
            self.target_index
        )
    }
}

impl Error for DesignPanelError {}

impl PanelDesign {
    /// Designs one probe per target.
    ///
    /// For each target, every probe-length window is scored; windows whose
    /// Tm falls in the panel window and whose cross-complementarity with
    /// every other target stays below the limit are candidates, and the
    /// candidate with the lowest cross-complementarity (ties: most central
    /// Tm) wins.
    ///
    /// # Errors
    ///
    /// Returns [`DesignPanelError`] naming the first target for which no
    /// window qualifies.
    pub fn design(&self, targets: &[DnaSequence]) -> Result<Vec<DesignedProbe>, DesignPanelError> {
        let tm_mid = 0.5 * (self.tm_min.value() + self.tm_max.value());
        let mut out = Vec::with_capacity(targets.len());
        for (ti, target) in targets.iter().enumerate() {
            let mut best: Option<DesignedProbe> = None;
            if target.len() >= self.probe_length {
                for offset in 0..=(target.len() - self.probe_length) {
                    let bases = target.bases().get(offset..offset + self.probe_length);
                    let Some(bases) = bases else {
                        continue;
                    };
                    let window = DnaSequence::new(bases.to_vec());
                    let probe = window.reverse_complement();
                    let tm = self.model.melting_temperature(&probe, target);
                    if tm < self.tm_min || tm > self.tm_max {
                        continue;
                    }
                    let worst_cross = targets
                        .iter()
                        .enumerate()
                        .filter(|(tj, _)| *tj != ti)
                        .map(|(_, other)| probe.complementary_matches(other))
                        .max()
                        .unwrap_or(0);
                    if worst_cross > self.max_cross_matches {
                        continue;
                    }
                    let candidate = DesignedProbe {
                        target_index: ti,
                        offset,
                        probe,
                        tm,
                        worst_cross_matches: worst_cross,
                    };
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            candidate.worst_cross_matches < b.worst_cross_matches
                                || (candidate.worst_cross_matches == b.worst_cross_matches
                                    && (candidate.tm.value() - tm_mid).abs()
                                        < (b.tm.value() - tm_mid).abs())
                        }
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
            }
            match best {
                Some(p) => out.push(p),
                None => return Err(DesignPanelError { target_index: ti }),
            }
        }
        Ok(out)
    }

    /// Spread of panel melting temperatures (max − min), the uniformity a
    /// shared wash condition needs.
    pub fn tm_spread(probes: &[DesignedProbe]) -> Kelvin {
        let min = probes
            .iter()
            .map(|p| p.tm.value())
            .fold(f64::INFINITY, f64::min);
        let max = probes.iter().map(|p| p.tm.value()).fold(0.0, f64::max);
        if probes.is_empty() {
            Kelvin::ZERO
        } else {
            Kelvin::new(max - min)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_rng::SmallRng;

    fn random_targets(n: usize, len: usize, seed: u64) -> Vec<DnaSequence> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| DnaSequence::random(len, &mut rng)).collect()
    }

    #[test]
    fn designs_one_probe_per_target() {
        let targets = random_targets(8, 120, 1);
        let panel = PanelDesign::default().design(&targets).unwrap();
        assert_eq!(panel.len(), 8);
        for (i, p) in panel.iter().enumerate() {
            assert_eq!(p.target_index, i);
            assert_eq!(p.probe.len(), 20);
        }
    }

    #[test]
    fn probes_perfectly_match_their_own_target() {
        let targets = random_targets(5, 100, 2);
        let panel = PanelDesign::default().design(&targets).unwrap();
        for p in &panel {
            assert!(p.probe.is_perfect_match(&targets[p.target_index]));
        }
    }

    #[test]
    fn cross_hybridization_is_bounded() {
        let targets = random_targets(10, 100, 3);
        let design = PanelDesign::default();
        let panel = design.design(&targets).unwrap();
        for p in &panel {
            assert!(p.worst_cross_matches <= design.max_cross_matches);
            // Verify against the actual other targets.
            for (tj, other) in targets.iter().enumerate() {
                if tj != p.target_index {
                    assert!(p.probe.complementary_matches(other) <= design.max_cross_matches);
                }
            }
        }
    }

    #[test]
    fn tm_window_is_respected() {
        let targets = random_targets(6, 150, 4);
        let design = PanelDesign::default();
        let panel = design.design(&targets).unwrap();
        for p in &panel {
            assert!(
                p.tm >= design.tm_min && p.tm <= design.tm_max,
                "Tm = {}",
                p.tm
            );
        }
        let spread = PanelDesign::tm_spread(&panel);
        assert!(spread.value() < (design.tm_max - design.tm_min).value() + 1e-9);
    }

    #[test]
    fn identical_targets_cannot_be_separated() {
        // Two copies of the same target: any probe for one fully matches
        // the other, so the cross-hybridization constraint must fail.
        let t = random_targets(1, 100, 5).remove(0);
        let targets = vec![t.clone(), t];
        let err = PanelDesign::default().design(&targets).unwrap_err();
        assert_eq!(err.target_index, 0);
        assert!(err.to_string().contains("target 0"));
    }

    #[test]
    fn short_target_fails_cleanly() {
        let targets = vec![DnaSequence::new(vec![])];
        assert!(PanelDesign::default().design(&targets).is_err());
    }

    #[test]
    fn designed_panel_works_in_the_assay() {
        use crate::assay::{AssayConditions, SpottedSite};
        use bsa_units::Molar;

        let targets = random_targets(4, 100, 6);
        let panel = PanelDesign::default().design(&targets).unwrap();
        let cond = AssayConditions::default();

        // Each probe binds its own target strongly and the others weakly.
        for p in &panel {
            let site = SpottedSite::new(p.probe.clone());
            let own = site
                .run(&targets[p.target_index], Molar::from_nano(100.0), &cond)
                .final_coverage;
            assert!(own > 0.3, "own-target coverage = {own}");
            for (tj, other) in targets.iter().enumerate() {
                if tj != p.target_index {
                    let cross = site
                        .run(other, Molar::from_nano(100.0), &cond)
                        .final_coverage;
                    assert!(
                        cross < own / 10.0,
                        "cross-coverage {cross} vs own {own} (target {tj})"
                    );
                }
            }
        }
    }

    #[test]
    fn tm_spread_of_empty_panel_is_zero() {
        assert_eq!(PanelDesign::tm_spread(&[]), Kelvin::ZERO);
    }
}
