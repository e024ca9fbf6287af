#![allow(clippy::panic)] // tests panic idiomatically
//! Property tests for the quantity algebra: each runs 256 seeded random
//! cases, and a failure names its case, whose seed is its index.

use bsa_rng::SmallRng;
use bsa_units::sweep::{decades, linspace, logspace};
use bsa_units::{Ampere, Coulomb, Farad, Hertz, Ohm, Seconds, Volt};

const CASES: u64 = 256;

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Addition/subtraction are inverse operations.
#[test]
fn add_sub_inverse() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (a, b) = (uniform(&mut rng, -1e6, 1e6), uniform(&mut rng, -1e6, 1e6));
        let x = Volt::new(a);
        let y = Volt::new(b);
        let back = (x + y) - y;
        assert!(
            (back - x).abs().value() <= 1e-9 * (1.0 + a.abs() + b.abs()),
            "case {case}: a = {a}, b = {b}"
        );
    }
}

/// Scalar multiplication distributes over addition.
#[test]
fn scalar_distributes() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let a = uniform(&mut rng, -1e3, 1e3);
        let b = uniform(&mut rng, -1e3, 1e3);
        let k = uniform(&mut rng, -1e3, 1e3);
        let lhs = (Ampere::new(a) + Ampere::new(b)) * k;
        let rhs = Ampere::new(a) * k + Ampere::new(b) * k;
        assert!(
            (lhs - rhs).abs().value() < 1e-6 * (1.0 + lhs.value().abs()),
            "case {case}: a = {a}, b = {b}, k = {k}"
        );
    }
}

/// Q = C·V then Q/C = V and Q/V = C (for nonzero values).
#[test]
fn charge_triangle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let c_ff = uniform(&mut rng, 0.1, 1e6);
        let v = uniform(&mut rng, 0.001, 100.0);
        let c = Farad::from_femto(c_ff);
        let vv = Volt::new(v);
        let q: Coulomb = c * vv;
        assert!(((q / c) - vv).abs().value() < 1e-9 * v, "case {case}");
        assert!(
            ((q / vv) - c).abs().value() < 1e-9 * c.value(),
            "case {case}"
        );
    }
}

/// I·t = Q and the two inversions agree.
#[test]
fn current_time_triangle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let i = Ampere::from_nano(uniform(&mut rng, 0.001, 1e6));
        let t = Seconds::from_micro(uniform(&mut rng, 0.001, 1e6));
        let q = i * t;
        assert!(
            ((q / i) - t).abs().value() < 1e-9 * t.value(),
            "case {case}"
        );
        assert!(
            ((q / t) - i).abs().value() < 1e-9 * i.value(),
            "case {case}"
        );
    }
}

/// Frequency/period reciprocity.
#[test]
fn recip_involution() {
    for case in 0..CASES {
        let f = Hertz::new(uniform(&mut SmallRng::seed_from_u64(case), 1e-3, 1e9));
        let back = f.recip().recip();
        assert!((back / f - 1.0).abs() < 1e-12, "case {case}: f = {f}");
    }
}

/// Ordering agrees with raw values, and min/max bracket both operands.
#[test]
fn ordering_laws() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (a, b) = (uniform(&mut rng, -1e6, 1e6), uniform(&mut rng, -1e6, 1e6));
        let x = Ohm::new(a);
        let y = Ohm::new(b);
        assert_eq!(x < y, a < b, "case {case}");
        let lo = x.min(y);
        let hi = x.max(y);
        assert!(lo <= x && lo <= y, "case {case}");
        assert!(hi >= x && hi >= y, "case {case}");
        assert!(x.clamp(lo, hi) == x, "case {case}");
    }
}

/// linspace covers endpoints with uniform steps.
#[test]
fn linspace_uniform() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let lo = uniform(&mut rng, -1e3, 1e3);
        let span = uniform(&mut rng, 0.001, 1e3);
        let n = rng.gen_range(2..100);
        let hi = lo + span;
        let pts = linspace(lo, hi, n);
        assert_eq!(pts.len(), n, "case {case}");
        assert!((pts[0] - lo).abs() < 1e-9, "case {case}");
        assert!((pts[n - 1] - hi).abs() < 1e-6, "case {case}");
        let step = (hi - lo) / (n - 1) as f64;
        for (k, w) in pts.windows(2).enumerate() {
            assert!(
                ((w[1] - w[0]) - step).abs() < 1e-9 * (1.0 + step.abs()),
                "case {case}: at {k}"
            );
        }
    }
}

/// logspace points have a constant ratio and are monotone.
#[test]
fn logspace_constant_ratio() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let lo = 10f64.powf(uniform(&mut rng, -12.0, 0.0));
        let hi = lo * 10f64.powf(uniform(&mut rng, 0.5, 10.0));
        let pts = logspace(lo, hi, rng.gen_range(3..50));
        let ratio = pts[1] / pts[0];
        for w in pts.windows(2) {
            assert!((w[1] / w[0] / ratio - 1.0).abs() < 1e-9, "case {case}");
        }
    }
}

/// decades() endpoints match the requested range.
#[test]
fn decades_endpoints() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let lo = 10f64.powf(uniform(&mut rng, -12.0, -1.0));
        let n_dec = rng.gen_range(1..6);
        let per = rng.gen_range(1..10);
        let hi = lo * 10f64.powi(n_dec as i32);
        let pts = decades(lo, hi, per);
        assert!((pts[0] / lo - 1.0).abs() < 1e-9, "case {case}");
        assert!((pts[pts.len() - 1] / hi - 1.0).abs() < 1e-9, "case {case}");
        assert_eq!(pts.len(), n_dec * per + 1, "case {case}");
    }
}

/// Display + FromStr round-trips within formatting precision for every
/// quantity type exercised here.
#[test]
fn display_parse_roundtrip() {
    for case in 0..CASES {
        let v = uniform(&mut SmallRng::seed_from_u64(case), 1e-13, 1e8);
        let i = Ampere::new(v);
        let parsed: Ampere = i
            .to_string()
            .parse()
            .unwrap_or_else(|e| panic!("case {case}: {i} does not parse: {e}"));
        assert!((parsed.value() / v - 1.0).abs() < 1e-3, "case {case}: {v}");
    }
}
