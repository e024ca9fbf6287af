#![allow(clippy::unwrap_used, clippy::panic)] // tests unwrap and panic idiomatically
//! Property tests over the core data structures and invariants: each runs
//! 256 seeded random cases, and a failure names its case, whose seed is
//! its index. A case whose inputs miss a property's precondition is drawn
//! again and not counted.

use cmos_biosensor_arrays::chips::array::PixelAddress;
use cmos_biosensor_arrays::chips::dna_chip::{
    decode_frames, encode_frames, DnaPixel, DnaPixelConfig, PixelReading,
};
use cmos_biosensor_arrays::circuit::dac::Dac;
use cmos_biosensor_arrays::electrochem::hybridization::HybridizationModel;
use cmos_biosensor_arrays::electrochem::sequence::DnaSequence;
use cmos_biosensor_arrays::rng::SmallRng;
use cmos_biosensor_arrays::units::consts::ROOM_TEMPERATURE;
use cmos_biosensor_arrays::units::{format_eng, parse_eng, Ampere, Molar, Seconds, Volt};

const CASES: u64 = 256;

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// A random sequence of `1..=max_len` bases.
fn arb_sequence(rng: &mut SmallRng, max_len: usize) -> DnaSequence {
    let len = rng.gen_range(1..max_len + 1);
    DnaSequence::random(len, rng)
}

#[test]
fn eng_format_parse_round_trip() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let value = uniform(&mut rng, -1e9, 1e9);
        let scale = rng.gen_range(0..21) as i32 - 12;
        let x = value * 10f64.powi(scale);
        let s = format_eng(x, "A");
        let back = parse_eng(&s, "A").unwrap_or_else(|e| panic!("case {case}: {s}: {e}"));
        // Formatting keeps 4 significant digits.
        if x != 0.0 {
            assert!(
                ((back - x) / x).abs() < 1e-3,
                "case {case}: {x} → {s} → {back}"
            );
        } else {
            assert_eq!(back, 0.0, "case {case}");
        }
    }
}

#[test]
fn quantity_arithmetic_is_consistent() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let a = uniform(&mut rng, -1e3, 1e3);
        let b = uniform(&mut rng, 0.001, 1e3);
        let v = Volt::new(a);
        let r = cmos_biosensor_arrays::units::Ohm::new(b);
        let i = v / r;
        assert!(
            ((i * r) - v).abs().value() < 1e-9 * (1.0 + a.abs()),
            "case {case}"
        );
    }
}

#[test]
fn reverse_complement_involution() {
    for case in 0..CASES {
        let seq = arb_sequence(&mut SmallRng::seed_from_u64(case), 60);
        assert_eq!(
            seq.reverse_complement().reverse_complement(),
            seq,
            "case {case}"
        );
    }
}

#[test]
fn revcomp_is_perfect_partner() {
    for case in 0..CASES {
        let seq = arb_sequence(&mut SmallRng::seed_from_u64(case), 40);
        let rc = seq.reverse_complement();
        assert!(seq.is_perfect_match(&rc), "case {case}");
        assert_eq!(seq.mismatches_with(&rc), 0, "case {case}");
    }
}

#[test]
fn mismatch_count_bounded() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seq = arb_sequence(&mut rng, 30);
        let n = rng.gen_range(0..10).min(seq.len());
        let mutated = seq.reverse_complement().with_mismatches(n);
        let mm = seq.mismatches_with(&mutated);
        // Best-alignment matching can only find fewer or equal mismatches.
        assert!(mm <= n, "case {case}: asked for {n}, measured {mm}");
    }
}

#[test]
fn coverage_always_in_unit_interval() {
    let model = HybridizationModel::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seq = arb_sequence(&mut rng, 30);
        let n = rng.gen_range(0..6).min(seq.len());
        let c = Molar::new(10f64.powf(uniform(&mut rng, -12.0, -3.0)));
        let dt = Seconds::new(uniform(&mut rng, 1.0, 1e5));
        let target = seq.reverse_complement().with_mismatches(n);
        let theta = model.coverage_after(&seq, &target, c, ROOM_TEMPERATURE, 0.0, dt);
        assert!((0.0..=1.0).contains(&theta), "case {case}: θ = {theta}");
    }
}

#[test]
fn converter_count_monotone_in_current() {
    let frame = Seconds::new(10.0);
    let mut checked = 0;
    for case in 0.. {
        if checked == CASES {
            break;
        }
        let mut rng = SmallRng::seed_from_u64(case);
        let exp_a = uniform(&mut rng, -12.0, -7.0);
        let exp_b = uniform(&mut rng, -12.0, -7.0);
        let (lo, hi) = if exp_a < exp_b {
            (exp_a, exp_b)
        } else {
            (exp_b, exp_a)
        };
        if hi - lo <= 0.01 {
            continue;
        }
        checked += 1;
        let mut pixel = DnaPixel::nominal(DnaPixelConfig::default());
        let c_lo = pixel.convert_ideal(Ampere::new(10f64.powf(lo)), frame);
        let c_hi = pixel.convert_ideal(Ampere::new(10f64.powf(hi)), frame);
        assert!(c_hi >= c_lo, "case {case}: count must grow with current");
    }
}

#[test]
fn converter_estimate_inverts_within_quantization() {
    let frame = Seconds::new(10.0);
    let mut checked = 0;
    for case in 0.. {
        if checked == CASES {
            break;
        }
        let i = Ampere::new(10f64.powf(uniform(&mut SmallRng::seed_from_u64(case), -11.0, -7.0)));
        let mut pixel = DnaPixel::nominal(DnaPixelConfig::default());
        let count = pixel.convert_ideal(i, frame);
        if count == 0 {
            continue;
        }
        checked += 1;
        let est = pixel.estimate_current(count, frame);
        let rel = (est.value() - i.value()).abs() / i.value();
        // ±1-count quantization bounds the error.
        assert!(
            rel <= 1.2 / count as f64 + 1e-6,
            "case {case}: rel = {rel}, count = {count}"
        );
    }
}

#[test]
fn serial_round_trip_any_readings() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let len = rng.gen_range(0..64);
        let readings: Vec<PixelReading> = (0..len)
            .map(|_| PixelReading {
                address: PixelAddress::new(rng.gen_range(0..8), rng.gen_range(0..16)),
                count: rng.gen_range(0..0xFF_FFFF) as u64,
            })
            .collect();
        let bits = encode_frames(&readings);
        let decoded = decode_frames(&bits).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(decoded, readings, "case {case}");
    }
}

#[test]
fn ideal_dac_is_monotone() {
    for case in 0..CASES {
        let bits = 2 + SmallRng::seed_from_u64(case).gen_range(0..8) as u8;
        let dac = Dac::new(bits, Volt::ZERO, Volt::new(2.5)).unwrap();
        let mut last = Volt::new(-1.0);
        for code in 0..dac.codes() {
            let v = dac.output(code);
            assert!(v > last, "case {case}: {bits} bits, code {code}");
            last = v;
        }
    }
}

#[test]
fn dac_code_lookup_inverts_output() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let bits = 2 + rng.gen_range(0..10) as u8;
        let dac = Dac::new(bits, Volt::new(0.5), Volt::new(4.5)).unwrap();
        let code = (rng.next_f64() * (dac.codes() - 1) as f64) as u32;
        assert_eq!(
            dac.code_for(dac.output(code)),
            code,
            "case {case}: {bits} bits"
        );
    }
}

#[test]
fn gc_content_in_unit_interval() {
    for case in 0..CASES {
        let gc = arb_sequence(&mut SmallRng::seed_from_u64(case), 100).gc_content();
        assert!((0.0..=1.0).contains(&gc), "case {case}");
    }
}

#[test]
fn more_mismatches_never_stabilize() {
    let model = HybridizationModel::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seq = arb_sequence(&mut rng, 25);
        let n = rng.gen_range(0..5).min(seq.len().saturating_sub(1));
        let rc = seq.reverse_complement();
        let t_n = rc.with_mismatches(n);
        let t_n1 = rc.with_mismatches(n + 1);
        let dg_n = model.duplex_dg_kcal(&seq, &t_n, ROOM_TEMPERATURE);
        let dg_n1 = model.duplex_dg_kcal(&seq, &t_n1, ROOM_TEMPERATURE);
        assert!(
            dg_n1 >= dg_n - 1e-9,
            "case {case}: ΔG must not drop with more mismatches"
        );
    }
}
