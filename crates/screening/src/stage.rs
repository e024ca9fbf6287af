//! Screening stages.
//!
//! Each stage of the paper's Fig. 1 funnel tests every surviving compound
//! with some throughput (datapoints/day), cost (per datapoint) and assay
//! quality (sensitivity as a function of potency, plus a false-positive
//! rate). Later stages are slower, costlier and more predictive.

use crate::compound::Compound;
use bsa_rng::SmallRng;

/// Kind of screening stage (the four boxes of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Molecular-based assay (DNA-microarray-class).
    Molecular,
    /// Cell-based assay (neural/cell-chip-class).
    CellBased,
    /// Animal testing.
    AnimalTests,
    /// Clinical trials.
    ClinicalTrials,
}

impl StageKind {
    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Self::Molecular => "molecular-based",
            Self::CellBased => "cell-based",
            Self::AnimalTests => "animal tests",
            Self::ClinicalTrials => "clinical trials",
        }
    }
}

/// A parameterized screening stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage kind.
    pub kind: StageKind,
    /// Datapoints (compound tests) per day.
    pub datapoints_per_day: f64,
    /// Cost per datapoint in currency units.
    pub cost_per_datapoint: f64,
    /// Probability of detecting an active of potency 1.0; weaker actives
    /// are detected with probability `sensitivity·potency^0.5`.
    pub sensitivity: f64,
    /// Probability an inactive passes anyway (false-positive rate).
    pub false_positive_rate: f64,
}

impl Stage {
    /// Molecular screen run on CMOS microarray chips: `sites` parallel
    /// sensor positions per chip, `runs_per_day` assay runs/day per chip,
    /// `chips` operated in parallel.
    ///
    /// The per-datapoint cost of a chip assay is low (reagents dominated);
    /// the quality of a molecular surrogate endpoint is modest.
    pub fn molecular_chip(sites: usize, runs_per_day: f64, chips: usize) -> Self {
        Self {
            kind: StageKind::Molecular,
            datapoints_per_day: sites as f64 * runs_per_day * chips as f64,
            cost_per_datapoint: 0.5,
            sensitivity: 0.95,
            false_positive_rate: 0.02,
        }
    }

    /// Cell-based screen on recording chips: one culture per chip per day
    /// per well, with `wells` parallel wells.
    pub fn cell_chip(wells: usize) -> Self {
        Self {
            kind: StageKind::CellBased,
            datapoints_per_day: wells as f64,
            cost_per_datapoint: 20.0,
            sensitivity: 0.9,
            false_positive_rate: 0.005,
        }
    }

    /// Animal testing.
    pub fn animal_tests() -> Self {
        Self {
            kind: StageKind::AnimalTests,
            datapoints_per_day: 5.0,
            cost_per_datapoint: 5_000.0,
            sensitivity: 0.85,
            false_positive_rate: 0.001,
        }
    }

    /// Clinical trials.
    pub fn clinical_trials() -> Self {
        Self {
            kind: StageKind::ClinicalTrials,
            datapoints_per_day: 0.05,
            cost_per_datapoint: 1_000_000.0,
            sensitivity: 0.8,
            false_positive_rate: 0.0001,
        }
    }

    /// Tests one compound; `true` means it passes to the next stage.
    pub fn test(&self, compound: &Compound, rng: &mut SmallRng) -> bool {
        if compound.active {
            let p = self.sensitivity * compound.potency.sqrt();
            rng.next_f64() < p
        } else {
            rng.next_f64() < self.false_positive_rate
        }
    }

    /// Days to test `n` compounds at this stage's throughput.
    pub fn days_for(&self, n: usize) -> f64 {
        n as f64 / self.datapoints_per_day
    }

    /// Cost to test `n` compounds.
    pub fn cost_for(&self, n: usize) -> f64 {
        n as f64 * self.cost_per_datapoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(potency: f64) -> Compound {
        Compound {
            id: 0,
            active: true,
            potency,
        }
    }

    fn inactive() -> Compound {
        Compound {
            id: 1,
            active: false,
            potency: 0.0,
        }
    }

    #[test]
    fn strong_actives_usually_pass() {
        let s = Stage::molecular_chip(128, 2.0, 10);
        let mut rng = SmallRng::seed_from_u64(1);
        let passes = (0..10_000)
            .filter(|_| s.test(&active(1.0), &mut rng))
            .count();
        let rate = passes as f64 / 10_000.0;
        assert!((rate - 0.95).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn weak_actives_pass_less_often() {
        let s = Stage::molecular_chip(128, 2.0, 10);
        let mut rng = SmallRng::seed_from_u64(2);
        let strong = (0..10_000)
            .filter(|_| s.test(&active(1.0), &mut rng))
            .count();
        let weak = (0..10_000)
            .filter(|_| s.test(&active(0.1), &mut rng))
            .count();
        assert!(weak < strong);
    }

    #[test]
    fn inactives_rarely_pass() {
        let s = Stage::cell_chip(100);
        let mut rng = SmallRng::seed_from_u64(3);
        let passes = (0..100_000)
            .filter(|_| s.test(&inactive(), &mut rng))
            .count();
        let rate = passes as f64 / 100_000.0;
        assert!((rate - 0.005).abs() < 0.002, "rate = {rate}");
    }

    #[test]
    fn chip_parallelism_multiplies_throughput() {
        let one = Stage::molecular_chip(128, 2.0, 1);
        let ten = Stage::molecular_chip(128, 2.0, 10);
        assert!((ten.datapoints_per_day / one.datapoints_per_day - 10.0).abs() < 1e-12);
    }

    #[test]
    fn paper_monotonicity_holds_for_defaults() {
        // Fig. 1: datapoints/day ↓, cost/datapoint ↑ along the funnel.
        let stages = [
            Stage::molecular_chip(128, 2.0, 10),
            Stage::cell_chip(100),
            Stage::animal_tests(),
            Stage::clinical_trials(),
        ];
        for w in stages.windows(2) {
            assert!(w[1].datapoints_per_day < w[0].datapoints_per_day);
            assert!(w[1].cost_per_datapoint > w[0].cost_per_datapoint);
        }
    }

    #[test]
    fn time_and_cost_scale_with_load() {
        let s = Stage::animal_tests();
        assert!((s.days_for(50) - 10.0).abs() < 1e-12);
        assert!((s.cost_for(50) - 250_000.0).abs() < 1e-9);
    }

    #[test]
    fn stage_names_match_figure() {
        assert_eq!(StageKind::Molecular.name(), "molecular-based");
        assert_eq!(StageKind::ClinicalTrials.name(), "clinical trials");
    }
}
