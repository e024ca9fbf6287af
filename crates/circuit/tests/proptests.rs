#![allow(clippy::unwrap_used, clippy::panic)] // tests unwrap and panic idiomatically
//! Property tests for the circuit substrate: each runs 256 seeded random
//! cases, and a failure names its case, whose seed is its index. A case
//! whose inputs miss a property's precondition is drawn again and not
//! counted.

use bsa_circuit::comparator::Comparator;
use bsa_circuit::dac::Dac;
use bsa_circuit::mosfet::{Mosfet, MosfetParams};
use bsa_circuit::passive::Capacitor;
use bsa_circuit::waveform::Waveform;
use bsa_rng::SmallRng;
use bsa_units::{Ampere, Farad, Seconds, Volt};

const CASES: u64 = 256;

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// The EKV drain current is finite, non-negative-leakage-bounded and
/// monotone in V_G for any bias in the supply range.
#[test]
fn mosfet_current_monotone_in_vg() {
    let m = Mosfet::try_new(MosfetParams::n05um(10.0, 2.0)).unwrap();
    let mut checked = 0;
    for case in 0.. {
        if checked == CASES {
            break;
        }
        let mut rng = SmallRng::seed_from_u64(case);
        let vg1 = uniform(&mut rng, 0.0, 5.0);
        let vg2 = uniform(&mut rng, 0.0, 5.0);
        let vd = uniform(&mut rng, 0.1, 5.0);
        if (vg1 - vg2).abs() <= 1e-6 {
            continue;
        }
        checked += 1;
        let (lo, hi) = if vg1 < vg2 { (vg1, vg2) } else { (vg2, vg1) };
        let i_lo = m.drain_current(Volt::new(lo), Volt::ZERO, Volt::new(vd));
        let i_hi = m.drain_current(Volt::new(hi), Volt::ZERO, Volt::new(vd));
        assert!(i_lo.is_finite() && i_hi.is_finite(), "case {case}");
        assert!(i_hi >= i_lo, "case {case}: I_D must grow with V_G");
    }
}

/// Drain current grows (weakly) with V_D at fixed V_G.
#[test]
fn mosfet_current_monotone_in_vd() {
    let m = Mosfet::try_new(MosfetParams::n05um(10.0, 2.0)).unwrap();
    let mut checked = 0;
    for case in 0.. {
        if checked == CASES {
            break;
        }
        let mut rng = SmallRng::seed_from_u64(case);
        let vg = uniform(&mut rng, 0.8, 3.0);
        let vd1 = uniform(&mut rng, 0.05, 5.0);
        let vd2 = uniform(&mut rng, 0.05, 5.0);
        if (vd1 - vd2).abs() <= 1e-6 {
            continue;
        }
        checked += 1;
        let (lo, hi) = if vd1 < vd2 { (vd1, vd2) } else { (vd2, vd1) };
        let i_lo = m.drain_current(Volt::new(vg), Volt::ZERO, Volt::new(lo));
        let i_hi = m.drain_current(Volt::new(vg), Volt::ZERO, Volt::new(hi));
        assert!(i_hi >= i_lo, "case {case}");
    }
}

/// The gate-voltage solver inverts drain_current wherever it brackets.
#[test]
fn gate_solver_inverts() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let target_exp = uniform(&mut rng, -10.0, -4.0);
        let dvt_mv = uniform(&mut rng, -20.0, 20.0);
        let m = Mosfet::try_new(MosfetParams::n05um(10.0, 2.0))
            .unwrap()
            .with_mismatch(Volt::from_milli(dvt_mv), 0.0);
        let target = Ampere::new(10f64.powf(target_exp));
        if let Some(vg) = m.gate_voltage_for_current(
            target,
            Volt::ZERO,
            Volt::new(2.5),
            Volt::ZERO,
            Volt::new(5.0),
        ) {
            let i = m.drain_current(vg, Volt::ZERO, Volt::new(2.5));
            let rel = (i.value() - target.value()).abs() / target.value();
            assert!(rel < 1e-6, "case {case}: solver error {rel}");
        }
    }
}

/// Charge conservation: integrate then inject cancels exactly.
#[test]
fn capacitor_charge_bookkeeping() {
    let mut checked = 0;
    for case in 0.. {
        if checked == CASES {
            break;
        }
        let mut rng = SmallRng::seed_from_u64(case);
        let c_ff = uniform(&mut rng, 1.0, 1000.0);
        let i_na = uniform(&mut rng, -100.0, 100.0);
        let dt_us = uniform(&mut rng, 0.01, 100.0);
        if i_na.abs() <= 1e-6 {
            continue;
        }
        checked += 1;
        let mut cap =
            Capacitor::new(Farad::from_femto(c_ff)).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let i = Ampere::from_nano(i_na);
        let dt = Seconds::from_micro(dt_us);
        cap.integrate(i, dt);
        let q = i * dt;
        cap.inject(-q);
        assert!(
            cap.voltage().abs().value() < 1e-9,
            "case {case}: residual {}",
            cap.voltage()
        );
    }
}

/// Comparator: output is high iff the input exceeded the effective
/// threshold, for any offset/hysteresis, with zero delay.
#[test]
fn comparator_threshold_semantics() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let thr = uniform(&mut rng, 0.1, 4.0);
        let off_mv = uniform(&mut rng, -50.0, 50.0);
        let hys_mv = uniform(&mut rng, 0.0, 100.0);
        let v_in = uniform(&mut rng, 0.0, 5.0);
        let mut c = Comparator::new(
            Volt::new(thr),
            Volt::from_milli(off_mv),
            Volt::from_milli(hys_mv),
            Seconds::ZERO,
        )
        .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let out = c.evaluate(Volt::new(v_in), Seconds::ZERO);
        let rising = thr + off_mv * 1e-3 + hys_mv * 1e-3 / 2.0;
        // From the low state the rising threshold governs.
        assert_eq!(
            out.high,
            v_in > rising + 1e-12 || (v_in > rising - 1e-12 && out.high),
            "case {case}"
        );
    }
}

/// DAC outputs stay within the rails for every code and mismatch seed.
#[test]
fn dac_stays_in_range() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let bits = 2 + rng.gen_range(0..8) as u8;
        let seed = rng.gen_range(0..1000) as u64;
        let sigma = uniform(&mut rng, 0.0, 0.05);
        let dac = Dac::new(bits, Volt::new(0.5), Volt::new(4.5))
            .unwrap_or_else(|e| panic!("case {case}: {e}"))
            .with_element_mismatch(sigma, &mut SmallRng::seed_from_u64(seed));
        for code in 0..dac.codes() {
            let v = dac.output(code);
            assert!(v >= Volt::new(0.5) - Volt::from_milli(1.0), "case {case}");
            assert!(v <= Volt::new(4.5) + Volt::from_milli(1.0), "case {case}");
        }
    }
}

/// Waveform interpolation never leaves the sample range.
#[test]
fn waveform_interpolation_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let len = rng.gen_range(2..50);
        let samples: Vec<f64> = (0..len).map(|_| uniform(&mut rng, -10.0, 10.0)).collect();
        let t_us = uniform(&mut rng, -10.0, 100.0);
        let w = Waveform::from_samples(Seconds::from_micro(1.0), samples.clone())
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let v = w.sample_at(Seconds::from_micro(t_us));
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            v >= min - 1e-12 && v <= max + 1e-12,
            "case {case}: v = {v} outside [{min}, {max}]"
        );
    }
}
