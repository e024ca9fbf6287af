//! Property tests of the screening funnel: each runs 32 seeded random
//! cases, and a failure names its case, whose seed is its index.

use bsa_rng::SmallRng;
use bsa_screening::compound::CompoundLibrary;
use bsa_screening::pipeline::Pipeline;
use bsa_screening::stage::{Stage, StageKind};

const CASES: u64 = 32;

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn arb_stage(rng: &mut SmallRng, kind: StageKind) -> Stage {
    Stage {
        kind,
        datapoints_per_day: uniform(rng, 1.0, 1e5),
        cost_per_datapoint: uniform(rng, 0.01, 1e6),
        sensitivity: uniform(rng, 0.5, 1.0),
        false_positive_rate: uniform(rng, 0.0, 0.1),
    }
}

/// The funnel never grows, regardless of stage parameters.
#[test]
fn funnel_never_grows() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let s1 = arb_stage(&mut rng, StageKind::Molecular);
        let s2 = arb_stage(&mut rng, StageKind::CellBased);
        let seed = rng.gen_range(0..1000) as u64;
        let library = CompoundLibrary::generate(5000, 1e-3, seed);
        let report = Pipeline::new(vec![s1, s2]).run(&library, seed);
        let mut last = library.len();
        for stage in &report.stages {
            assert_eq!(stage.input_count, last, "case {case}");
            assert!(stage.survivors <= stage.input_count, "case {case}");
            assert!(
                stage.true_actives_surviving <= stage.survivors,
                "case {case}"
            );
            last = stage.survivors;
        }
        assert_eq!(report.final_candidates.len(), last, "case {case}");
    }
}

/// Cost and time are exactly the per-stage sums and scale with input.
#[test]
fn accounting_is_consistent() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let s = arb_stage(&mut rng, StageKind::AnimalTests);
        let seed = rng.gen_range(0..1000) as u64;
        let library = CompoundLibrary::generate(2000, 1e-2, seed);
        let report = Pipeline::new(vec![s.clone()]).run(&library, seed);
        let stage = &report.stages[0];
        assert!(
            (stage.cost - 2000.0 * s.cost_per_datapoint).abs() < 1e-6,
            "case {case}"
        );
        assert!(
            (stage.days - 2000.0 / s.datapoints_per_day).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            (report.total_cost() - stage.cost).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// True hits never exceed the library's true actives, and the final
/// candidates never contain more actives than survived each stage.
#[test]
fn hit_bookkeeping() {
    for case in 0..CASES {
        let seed = SmallRng::seed_from_u64(case).gen_range(0..500) as u64;
        let library = CompoundLibrary::generate(20_000, 5e-4, seed);
        let report = Pipeline::classic().run(&library, seed);
        assert!(
            report.true_hits() <= library.true_active_count(),
            "case {case}"
        );
        for stage in &report.stages {
            assert!(
                stage.true_actives_surviving <= library.true_active_count(),
                "case {case}"
            );
        }
    }
}

/// With perfect sensitivity and zero false positives, survivors are
/// exactly the true actives after the first stage.
#[test]
fn ideal_stage_is_a_perfect_filter() {
    let ideal = Stage {
        kind: StageKind::Molecular,
        datapoints_per_day: 1000.0,
        cost_per_datapoint: 1.0,
        sensitivity: 1.0,
        false_positive_rate: 0.0,
    };
    for case in 0..CASES {
        let seed = SmallRng::seed_from_u64(case).gen_range(0..500) as u64;
        let library = CompoundLibrary::generate(5000, 1e-2, seed);
        let report = Pipeline::new(vec![ideal.clone()]).run(&library, seed);
        let s = &report.stages[0];
        assert_eq!(s.survivors, s.true_actives_surviving, "case {case}");
        // potency^0.5 < 1 means even sensitivity 1.0 misses weak actives;
        // survivors is therefore ≤ the library's actives.
        assert!(s.survivors <= library.true_active_count(), "case {case}");
    }
}
