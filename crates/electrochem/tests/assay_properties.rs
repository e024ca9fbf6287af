//! Property tests of the assay physics: each runs 64 seeded random
//! cases, and a failure names its case, whose seed is its index. A case
//! whose inputs miss a property's precondition is drawn again and not
//! counted.

use bsa_electrochem::assay::{AssayConditions, SpottedSite};
use bsa_electrochem::enzyme::EnzymeLabel;
use bsa_electrochem::redox::RedoxCyclingModel;
use bsa_electrochem::sequence::DnaSequence;
use bsa_rng::SmallRng;
use bsa_units::{Molar, Seconds, SquareMeter};

const CASES: u64 = 64;

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// A random sequence of `lo..=hi` bases.
fn arb_sequence(rng: &mut SmallRng, lo: usize, hi: usize) -> DnaSequence {
    let len = rng.gen_range(lo..hi + 1);
    DnaSequence::random(len, rng)
}

/// The full protocol never produces coverage outside [0, yield].
#[test]
fn protocol_coverage_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let probe = arb_sequence(&mut rng, 15, 40);
        let mismatches = rng.gen_range(0..8).min(probe.len());
        let log_c = uniform(&mut rng, -12.0, -5.0);
        let stringency = uniform(&mut rng, 1.0, 500.0);
        let target = probe.reverse_complement().with_mismatches(mismatches);
        let cond = AssayConditions {
            wash_stringency: stringency,
            ..AssayConditions::default()
        };
        let site = SpottedSite::new(probe);
        let r = site.run(&target, Molar::new(10f64.powf(log_c)), &cond);
        assert!(r.final_coverage >= 0.0, "case {case}");
        assert!(
            r.final_coverage <= cond.immobilization_yield + 1e-12,
            "case {case}"
        );
        assert!(
            r.final_coverage <= r.coverage_after_hybridization + 1e-12,
            "case {case}"
        );
        assert!((0.0..=1.0).contains(&r.wash_loss()), "case {case}");
    }
}

/// Washing harder never increases retained coverage.
#[test]
fn wash_is_monotone_in_stringency() {
    let mut checked = 0;
    for case in 0.. {
        if checked == CASES {
            break;
        }
        let mut rng = SmallRng::seed_from_u64(case);
        let probe = arb_sequence(&mut rng, 18, 25);
        let mm = rng.gen_range(0..3);
        let s1 = uniform(&mut rng, 1.0, 200.0);
        let s2 = uniform(&mut rng, 1.0, 200.0);
        if (s1 - s2).abs() <= 1e-6 {
            continue;
        }
        checked += 1;
        let (gentle, harsh) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
        let target = probe
            .reverse_complement()
            .with_mismatches(mm.min(probe.len()));
        let site = SpottedSite::new(probe);
        let run = |stringency: f64| {
            let cond = AssayConditions {
                wash_stringency: stringency,
                ..AssayConditions::default()
            };
            site.run(&target, Molar::from_nano(100.0), &cond)
                .final_coverage
        };
        assert!(run(harsh) <= run(gentle) + 1e-12, "case {case}");
    }
}

/// Redox current is monotone in coverage and bounded by the θ = 1 value
/// plus background.
#[test]
fn redox_current_bounded() {
    let m = RedoxCyclingModel::default();
    for case in 0..CASES {
        let theta = SmallRng::seed_from_u64(case).next_f64();
        let i = m.sensor_current(theta);
        assert!(i >= m.sensor_current(0.0), "case {case}");
        assert!(i <= m.sensor_current(1.0), "case {case}");
        assert!(i.value().is_finite(), "case {case}");
    }
}

/// Redox cycling always beats the single-electrode baseline (above
/// background).
#[test]
fn cycling_never_loses() {
    let m = RedoxCyclingModel::default();
    for case in 0..CASES {
        let theta = uniform(&mut SmallRng::seed_from_u64(case), 0.001, 1.0);
        let cycled = m.sensor_current(theta) - m.sensor_current(0.0);
        let single = m.single_electrode_current(theta) - m.single_electrode_current(0.0);
        assert!(cycled.value() >= single.value(), "case {case}");
    }
}

/// Michaelis–Menten turnover is bounded by k_cat and monotone in S.
#[test]
fn enzyme_turnover_bounded() {
    let e = EnzymeLabel::default();
    for case in 0..CASES {
        let s_um = uniform(&mut SmallRng::seed_from_u64(case), 0.0, 1e5);
        let v = e.turnover_rate(Molar::from_micro(s_um));
        assert!(v >= 0.0 && v <= e.k_cat, "case {case}");
        let v2 = e.turnover_rate(Molar::from_micro(s_um * 2.0 + 1.0));
        assert!(v2 >= v, "case {case}");
    }
}

/// Product flux scales linearly in area and coverage.
#[test]
fn flux_linearity() {
    let e = EnzymeLabel::default();
    let s = Molar::from_milli(1.0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let theta = rng.next_f64();
        let area_scale = uniform(&mut rng, 0.1, 10.0);
        let a1 = SquareMeter::new(1e-8);
        let a2 = SquareMeter::new(1e-8 * area_scale);
        let f1 = e.product_flux_mol_per_s(theta, 3e15, a1, s);
        let f2 = e.product_flux_mol_per_s(theta, 3e15, a2, s);
        if f1 > 0.0 {
            assert!((f2 / f1 / area_scale - 1.0).abs() < 1e-9, "case {case}");
        }
    }
}

/// Longer hybridization never reduces coverage (no wash in between).
#[test]
fn hybridization_time_monotone() {
    let model = bsa_electrochem::hybridization::HybridizationModel::default();
    let c = Molar::from_nano(10.0);
    let temp = bsa_units::consts::ROOM_TEMPERATURE;
    let mut checked = 0;
    for case in 0.. {
        if checked == CASES {
            break;
        }
        let mut rng = SmallRng::seed_from_u64(case);
        let probe = arb_sequence(&mut rng, 18, 25);
        let t1 = uniform(&mut rng, 1.0, 1e4);
        let t2 = uniform(&mut rng, 1.0, 1e4);
        if (t1 - t2).abs() <= 1e-3 {
            continue;
        }
        checked += 1;
        let (short, long) = if t1 < t2 { (t1, t2) } else { (t2, t1) };
        let target = probe.reverse_complement();
        let a = model.coverage_after(&probe, &target, c, temp, 0.0, Seconds::new(short));
        let b = model.coverage_after(&probe, &target, c, temp, 0.0, Seconds::new(long));
        assert!(b >= a - 1e-12, "case {case}");
    }
}
