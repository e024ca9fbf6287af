//! Totality checks over seeded random inputs: the allocation-free DSP
//! entry points must never panic, whatever finite data a scan hands them
//! — empty series, single samples, constant frames, out-of-range event
//! indices. These are the APIs the readout engine calls per pixel, where
//! one panicking corner case would abort a whole 128×128 sweep. Each
//! property runs 256 cases; a failure names its case, whose seed is its
//! index.

use bsa_dsp::filter::{BandPass, Biquad};
use bsa_dsp::snr::{peak_snr_with, SnrScratch};
use bsa_dsp::spike::{DetectionMethod, SpikeDetector, SpikeScratch};
use bsa_dsp::stats::{mad_sigma_with, median_with};
use bsa_rng::SmallRng;
use bsa_units::Hertz;

const CASES: u64 = 256;

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Arbitrary finite sample vectors, length 0..=64 — deliberately includes
/// the empty and single-element cases the hot paths must tolerate.
fn arb_series(rng: &mut SmallRng) -> Vec<f64> {
    let len = rng.gen_range(0..65);
    (0..len).map(|_| uniform(rng, -1e6, 1e6)).collect()
}

#[test]
fn biquad_process_into_is_total() {
    let fs = Hertz::new(2000.0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let xs = arb_series(&mut rng);
        let fc = Hertz::new(uniform(&mut rng, 1.0, 900.0));
        let mut out = Vec::new();
        Biquad::lowpass(fc, fs).process_into(&xs, &mut out);
        assert_eq!(out.len(), xs.len(), "case {case}");
        Biquad::highpass(fc, fs).process_into(&xs, &mut out);
        assert_eq!(out.len(), xs.len(), "case {case}");
    }
}

#[test]
fn bandpass_process_into_is_total() {
    let fs = Hertz::new(2000.0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let xs = arb_series(&mut rng);
        let f_lo = uniform(&mut rng, 1.0, 400.0);
        let width = uniform(&mut rng, 1.0, 400.0);
        let mut filter = BandPass::new(Hertz::new(f_lo), Hertz::new(f_lo + width), fs);
        let mut out = Vec::new();
        filter.process_into(&xs, &mut out);
        assert_eq!(out.len(), xs.len(), "case {case}");
    }
}

#[test]
fn detect_into_is_total() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let xs = arb_series(&mut rng);
        let detector = SpikeDetector {
            method: if rng.gen_bool(0.5) {
                DetectionMethod::AmplitudeThreshold
            } else {
                DetectionMethod::Neo
            },
            threshold_sigmas: uniform(&mut rng, 0.5, 10.0),
            refractory_samples: rng.gen_range(0..8),
        };
        let mut out = Vec::new();
        detector.detect_into(&xs, &mut SpikeScratch::new(), &mut out);
        // Detections are valid indices in ascending order.
        assert!(out.windows(2).all(|w| w[0] < w[1]), "case {case}");
        assert!(out.iter().all(|&i| i < xs.len()), "case {case}");
    }
}

#[test]
fn median_with_never_panics() {
    for case in 0..CASES {
        let xs = arb_series(&mut SmallRng::seed_from_u64(case));
        let mut scratch = Vec::new();
        let median = median_with(&xs, &mut scratch);
        assert_eq!(median.is_ok(), !xs.is_empty(), "case {case}");
        let sigma = mad_sigma_with(&xs, &mut scratch);
        assert_eq!(sigma.is_ok(), !xs.is_empty(), "case {case}");
        if let Ok(s) = sigma {
            assert!(s >= 0.0, "case {case}");
        }
    }
}

#[test]
fn peak_snr_with_tolerates_any_indices() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let xs = arb_series(&mut rng);
        // Unvalidated event indices, including far out of range.
        let count = rng.gen_range(0..9);
        let events: Vec<usize> = (0..count).map(|_| rng.gen_range(0..1000)).collect();
        let snr = peak_snr_with(&xs, &events, &mut SnrScratch::new());
        if let Some(snr) = snr {
            assert!(snr >= 0.0, "case {case}");
        }
    }
}

#[test]
fn detect_into_scratch_state_does_not_leak() {
    // Reusing scratch across series of different lengths must give the
    // same result as a fresh scratch (the engine reuses one per pixel).
    let detector = SpikeDetector::default();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let first = arb_series(&mut rng);
        let second = arb_series(&mut rng);
        let mut scratch = SpikeScratch::new();
        let mut reused = Vec::new();
        detector.detect_into(&first, &mut scratch, &mut reused);
        detector.detect_into(&second, &mut scratch, &mut reused);
        let mut fresh = Vec::new();
        detector.detect_into(&second, &mut SpikeScratch::new(), &mut fresh);
        assert_eq!(reused, fresh, "case {case}");
    }
}
