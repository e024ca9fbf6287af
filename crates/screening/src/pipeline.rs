//! The end-to-end screening funnel.

use crate::compound::{Compound, CompoundLibrary};
use crate::stage::Stage;
use bsa_rng::SmallRng;

/// An ordered sequence of screening stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

/// Per-stage outcome of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// The stage that ran.
    pub stage: Stage,
    /// Compounds entering the stage.
    pub input_count: usize,
    /// Compounds passing to the next stage.
    pub survivors: usize,
    /// Truly active compounds among the survivors.
    pub true_actives_surviving: usize,
    /// Days spent at this stage.
    pub days: f64,
    /// Money spent at this stage.
    pub cost: f64,
}

/// Complete pipeline run outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Per-stage reports in order.
    pub stages: Vec<StageReport>,
    /// Compounds surviving the full funnel.
    pub final_candidates: Vec<Compound>,
}

impl PipelineReport {
    /// Total cost across stages.
    pub fn total_cost(&self) -> f64 {
        self.stages.iter().map(|s| s.cost).sum()
    }

    /// Total duration (stages run sequentially).
    pub fn total_days(&self) -> f64 {
        self.stages.iter().map(|s| s.days).sum()
    }

    /// Truly active compounds among the final candidates.
    pub fn true_hits(&self) -> usize {
        self.final_candidates.iter().filter(|c| c.active).count()
    }
}

impl Pipeline {
    /// Creates a pipeline from stages.
    pub fn new(stages: Vec<Stage>) -> Self {
        Self { stages }
    }

    /// The classic four-stage funnel of paper Fig. 1, with the early
    /// stages running on simulated biosensor chips: ten 16×8 microarray
    /// chips at two runs/day for the molecular screen, one hundred
    /// cell-chip wells for the cell-based screen.
    pub fn classic() -> Self {
        Self::new(vec![
            Stage::molecular_chip(128, 2.0, 10),
            Stage::cell_chip(100),
            Stage::animal_tests(),
            Stage::clinical_trials(),
        ])
    }

    /// A funnel without chip parallelism (single classic well-plate robot
    /// equivalent): the baseline Fig. 1 contrasts against.
    pub fn without_chip_parallelism() -> Self {
        let mut p = Self::classic();
        if let [molecular, cell, ..] = p.stages.as_mut_slice() {
            molecular.datapoints_per_day = 1_000.0;
            cell.datapoints_per_day = 20.0;
        }
        p
    }

    /// The stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Runs the funnel over a library.
    pub fn run(&self, library: &CompoundLibrary, seed: u64) -> PipelineReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut current: Vec<Compound> = library.compounds().to_vec();
        let mut reports = Vec::with_capacity(self.stages.len());

        for stage in &self.stages {
            let input_count = current.len();
            let survivors: Vec<Compound> = current
                .into_iter()
                .filter(|c| stage.test(c, &mut rng))
                .collect();
            reports.push(StageReport {
                stage: stage.clone(),
                input_count,
                survivors: survivors.len(),
                true_actives_surviving: survivors.iter().filter(|c| c.active).count(),
                days: stage.days_for(input_count),
                cost: stage.cost_for(input_count),
            });
            current = survivors;
        }

        PipelineReport {
            stages: reports,
            final_candidates: current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library() -> CompoundLibrary {
        CompoundLibrary::generate(1_000_000, 1e-4, 11)
    }

    #[test]
    fn funnel_shrinks_at_every_stage() {
        let report = Pipeline::classic().run(&library(), 1);
        assert_eq!(report.stages.len(), 4);
        for w in report.stages.windows(2) {
            assert!(w[1].input_count == w[0].survivors);
            assert!(w[1].survivors <= w[0].survivors);
        }
        assert!(report.stages[0].survivors < report.stages[0].input_count / 10);
    }

    #[test]
    fn enrichment_increases_along_the_funnel() {
        let report = Pipeline::classic().run(&library(), 2);
        let mut last_purity = 0.0;
        for s in &report.stages {
            if s.survivors == 0 {
                break;
            }
            let purity = s.true_actives_surviving as f64 / s.survivors as f64;
            assert!(
                purity >= last_purity,
                "purity must not fall: {purity} after {last_purity}"
            );
            last_purity = purity;
        }
        // By the end, candidates are overwhelmingly true actives.
        assert!(last_purity > 0.5, "final purity = {last_purity}");
    }

    #[test]
    fn early_stages_dominate_datapoints_late_stages_dominate_cost_share() {
        let report = Pipeline::classic().run(&library(), 3);
        // Fig. 1's claim restated: the first stage tests the most
        // compounds, the last has the highest per-datapoint cost.
        let first = &report.stages[0];
        let last = &report.stages[3];
        assert!(first.input_count > 100 * last.input_count.max(1));
        assert!(last.stage.cost_per_datapoint > 1e5 * first.stage.cost_per_datapoint);
    }

    #[test]
    fn chip_parallelism_cuts_early_stage_time() {
        let lib = library();
        let with = Pipeline::classic().run(&lib, 4);
        let without = Pipeline::without_chip_parallelism().run(&lib, 4);
        assert!(
            with.stages[0].days < without.stages[0].days / 2.0,
            "chip: {} days, robot: {} days",
            with.stages[0].days,
            without.stages[0].days
        );
    }

    #[test]
    fn some_true_hits_survive() {
        let report = Pipeline::classic().run(&library(), 5);
        assert!(report.true_hits() > 0, "the funnel should find something");
        // And false positives are essentially gone by the end.
        let fp = report.final_candidates.len() - report.true_hits();
        assert!(fp <= 2, "false positives at the end: {fp}");
    }

    #[test]
    fn totals_accumulate() {
        let report = Pipeline::classic().run(&library(), 6);
        let sum_cost: f64 = report.stages.iter().map(|s| s.cost).sum();
        assert_eq!(report.total_cost(), sum_cost);
        assert!(report.total_days() > 0.0);
    }

    #[test]
    fn run_is_seed_deterministic() {
        let lib = library();
        let a = Pipeline::classic().run(&lib, 7);
        let b = Pipeline::classic().run(&lib, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_library_passes_through() {
        let lib = CompoundLibrary::generate(0, 0.1, 1);
        let report = Pipeline::classic().run(&lib, 8);
        assert!(report.final_candidates.is_empty());
        assert_eq!(report.total_cost(), 0.0);
    }
}
