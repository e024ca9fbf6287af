#![allow(clippy::unwrap_used)] // tests/benches unwrap idiomatically
//! Property-based tests for the circuit substrate.

use bsa_circuit::comparator::Comparator;
use bsa_circuit::dac::Dac;
use bsa_circuit::mosfet::{Mosfet, MosfetParams};
use bsa_circuit::passive::Capacitor;
use bsa_circuit::waveform::Waveform;
use bsa_units::{Ampere, Farad, Seconds, Volt};
use proptest::prelude::*;

proptest! {
    /// The EKV drain current is finite, non-negative-leakage-bounded and
    /// monotone in V_G for any bias in the supply range.
    #[test]
    fn mosfet_current_monotone_in_vg(
        vg1 in 0.0f64..5.0,
        vg2 in 0.0f64..5.0,
        vd in 0.1f64..5.0,
    ) {
        prop_assume!((vg1 - vg2).abs() > 1e-6);
        let (lo, hi) = if vg1 < vg2 { (vg1, vg2) } else { (vg2, vg1) };
        let m = Mosfet::try_new(MosfetParams::n05um(10.0, 2.0)).unwrap();
        let i_lo = m.drain_current(Volt::new(lo), Volt::ZERO, Volt::new(vd));
        let i_hi = m.drain_current(Volt::new(hi), Volt::ZERO, Volt::new(vd));
        prop_assert!(i_lo.is_finite() && i_hi.is_finite());
        prop_assert!(i_hi >= i_lo, "I_D must grow with V_G");
    }

    /// Drain current grows (weakly) with V_D at fixed V_G.
    #[test]
    fn mosfet_current_monotone_in_vd(
        vg in 0.8f64..3.0,
        vd1 in 0.05f64..5.0,
        vd2 in 0.05f64..5.0,
    ) {
        prop_assume!((vd1 - vd2).abs() > 1e-6);
        let (lo, hi) = if vd1 < vd2 { (vd1, vd2) } else { (vd2, vd1) };
        let m = Mosfet::try_new(MosfetParams::n05um(10.0, 2.0)).unwrap();
        let i_lo = m.drain_current(Volt::new(vg), Volt::ZERO, Volt::new(lo));
        let i_hi = m.drain_current(Volt::new(vg), Volt::ZERO, Volt::new(hi));
        prop_assert!(i_hi >= i_lo);
    }

    /// The gate-voltage solver inverts drain_current wherever it brackets.
    #[test]
    fn gate_solver_inverts(
        target_exp in -10.0f64..-4.0,
        dvt_mv in -20.0f64..20.0,
    ) {
        let m = Mosfet::try_new(MosfetParams::n05um(10.0, 2.0)).unwrap()
            .with_mismatch(Volt::from_milli(dvt_mv), 0.0);
        let target = Ampere::new(10f64.powf(target_exp));
        if let Some(vg) = m.gate_voltage_for_current(
            target, Volt::ZERO, Volt::new(2.5), Volt::ZERO, Volt::new(5.0)
        ) {
            let i = m.drain_current(vg, Volt::ZERO, Volt::new(2.5));
            let rel = (i.value() - target.value()).abs() / target.value();
            prop_assert!(rel < 1e-6, "solver error {rel}");
        }
    }

    /// Charge conservation: integrate then inject cancels exactly.
    #[test]
    fn capacitor_charge_bookkeeping(
        c_ff in 1.0f64..1000.0,
        i_na in -100.0f64..100.0,
        dt_us in 0.01f64..100.0,
    ) {
        prop_assume!(i_na.abs() > 1e-6);
        let mut cap = Capacitor::new(Farad::from_femto(c_ff)).unwrap();
        let i = Ampere::from_nano(i_na);
        let dt = Seconds::from_micro(dt_us);
        cap.integrate(i, dt);
        let q = i * dt;
        cap.inject(-q);
        prop_assert!(cap.voltage().abs().value() < 1e-9, "residual {}", cap.voltage());
    }

    /// Comparator: output is high iff the input exceeded the effective
    /// threshold, for any offset/hysteresis, with zero delay.
    #[test]
    fn comparator_threshold_semantics(
        thr in 0.1f64..4.0,
        off_mv in -50.0f64..50.0,
        hys_mv in 0.0f64..100.0,
        v_in in 0.0f64..5.0,
    ) {
        let mut c = Comparator::new(
            Volt::new(thr),
            Volt::from_milli(off_mv),
            Volt::from_milli(hys_mv),
            Seconds::ZERO,
        ).unwrap();
        let out = c.evaluate(Volt::new(v_in), Seconds::ZERO);
        let rising = thr + off_mv * 1e-3 + hys_mv * 1e-3 / 2.0;
        // From the low state the rising threshold governs.
        prop_assert_eq!(out.high, v_in > rising + 1e-12 || (v_in > rising - 1e-12 && out.high));
    }

    /// DAC outputs stay within the rails for every code and mismatch seed.
    #[test]
    fn dac_stays_in_range(bits in 2u8..10, seed in 0u64..1000, sigma in 0.0f64..0.05) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let dac = Dac::new(bits, Volt::new(0.5), Volt::new(4.5))
            .unwrap()
            .with_element_mismatch(sigma, &mut rng);
        for code in 0..dac.codes() {
            let v = dac.output(code);
            prop_assert!(v >= Volt::new(0.5) - Volt::from_milli(1.0));
            prop_assert!(v <= Volt::new(4.5) + Volt::from_milli(1.0));
        }
    }

    /// Waveform interpolation never leaves the sample range.
    #[test]
    fn waveform_interpolation_bounded(
        samples in prop::collection::vec(-10.0f64..10.0, 2..50),
        t_us in -10.0f64..100.0,
    ) {
        let w = Waveform::from_samples(Seconds::from_micro(1.0), samples.clone()).unwrap();
        let v = w.sample_at(Seconds::from_micro(t_us));
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v >= min - 1e-12 && v <= max + 1e-12, "v = {v} outside [{min}, {max}]");
    }
}
