//! Auto-calibration of the DNA chip ("auto-calibration circuits" in the
//! periphery, paper Section 2).
//!
//! Each pixel's conversion gain depends on its actual C_int, comparator
//! offset and delay — all subject to device mismatch. The chip calibrates
//! itself by switching a known reference current (from the bandgap-derived
//! current reference tree) onto each pixel's integrator in place of the
//! electrode, measuring the count, and storing a per-pixel multiplicative
//! correction.

use super::pixel::DnaPixel;
use bsa_rng::SmallRng;
use bsa_units::{Ampere, Seconds};

/// Per-pixel gain-calibration engine.
#[derive(Debug, Clone, PartialEq)]
pub struct GainCalibration {
    /// Reference current injected during calibration.
    pub i_ref: Ampere,
    /// Calibration frame duration.
    pub frame_time: Seconds,
    /// Correction factors outside `[1/limit, limit]` mark a pixel as dead
    /// (open electrode, stuck comparator, …).
    pub dead_pixel_limit: f64,
}

impl Default for GainCalibration {
    /// 10 nA reference (mid-range, high count rate) over a 1 s frame;
    /// pixels needing more than ±30 % correction are flagged dead.
    fn default() -> Self {
        Self {
            i_ref: Ampere::from_nano(10.0),
            frame_time: Seconds::new(1.0),
            dead_pixel_limit: 1.3,
        }
    }
}

/// Outcome of calibrating a full array.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Gain-correction factors applied, one per pixel.
    pub corrections: Vec<f64>,
    /// Relative current-estimate spread (σ/µ) across pixels *before*
    /// calibration.
    pub spread_before: f64,
    /// Relative spread after calibration (re-measured with noise).
    pub spread_after: f64,
    /// Pixels whose calibration failed or needed an out-of-limit
    /// correction — to be masked from assay interpretation.
    pub dead_pixels: Vec<usize>,
}

impl CalibrationReport {
    /// Spread improvement factor (before/after).
    pub fn improvement(&self) -> f64 {
        if self.spread_after == 0.0 {
            f64::INFINITY
        } else {
            self.spread_before / self.spread_after
        }
    }

    /// Fraction of usable (non-dead) pixels.
    pub fn yield_fraction(&self) -> f64 {
        if self.corrections.is_empty() {
            return 1.0;
        }
        1.0 - self.dead_pixels.len() as f64 / self.corrections.len() as f64
    }
}

impl GainCalibration {
    /// Escalated settings for retrying pixels that failed first-pass
    /// calibration: an 8× reference current (additive defects such as
    /// electrode leakage weigh proportionally less), a 4× integration
    /// window (more counts, less shot noise) and a squared — i.e.
    /// relaxed — out-of-family limit.
    pub fn escalated(&self) -> Self {
        Self {
            i_ref: self.i_ref * 8.0,
            frame_time: self.frame_time * 4.0,
            dead_pixel_limit: self.dead_pixel_limit.powi(2),
        }
    }

    /// Retries one pixel with these (typically [`escalated`](Self::escalated))
    /// settings. The pixel is probed at two currents an octave-and-a-half
    /// apart: a pixel whose count does not scale with its input (stuck
    /// counter, stuck comparator, open electrode) is unrecoverable. If the
    /// response scales and the required correction lies within
    /// `dead_pixel_limit`, the correction is stored and returned.
    pub fn retry_pixel(&self, pixel: &mut DnaPixel, rng: &mut SmallRng) -> Option<f64> {
        pixel.set_gain_correction(1.0);
        let c_lo = pixel
            .convert(self.i_ref * 0.125, self.frame_time, rng)
            .count;
        let c_hi = pixel.convert(self.i_ref, self.frame_time, rng).count;
        if c_hi == 0 || c_hi < c_lo.saturating_mul(2) {
            return None;
        }
        let est = pixel.estimate_current(c_hi, self.frame_time);
        if est.value() <= 0.0 {
            return None;
        }
        let k = self.i_ref.value() / est.value();
        if k > self.dead_pixel_limit || k < 1.0 / self.dead_pixel_limit {
            return None;
        }
        pixel.set_gain_correction(k);
        Some(k)
    }

    /// Calibrates every pixel: injects the reference, estimates, stores
    /// `i_ref / estimate` as the pixel's correction factor, then
    /// re-measures to report the residual spread.
    pub fn run(&self, pixels: &mut [DnaPixel], rng: &mut SmallRng) -> CalibrationReport {
        let mut before = Vec::with_capacity(pixels.len());
        let mut corrections = Vec::with_capacity(pixels.len());
        let mut dead_pixels = Vec::new();

        for (i, p) in pixels.iter_mut().enumerate() {
            p.set_gain_correction(1.0);
            let r = p.convert(self.i_ref, self.frame_time, rng);
            let est = p.estimate_current(r.count, self.frame_time);
            before.push(est.value());
            let k = if est.value() > 0.0 {
                self.i_ref.value() / est.value()
            } else {
                1.0
            };
            if r.count == 0 || k > self.dead_pixel_limit || k < 1.0 / self.dead_pixel_limit {
                dead_pixels.push(i);
            }
            p.set_gain_correction(k);
            corrections.push(k);
        }

        let mut after = Vec::with_capacity(pixels.len());
        for p in pixels.iter_mut() {
            let r = p.convert(self.i_ref, self.frame_time, rng);
            after.push(p.estimate_current(r.count, self.frame_time).value());
        }

        CalibrationReport {
            corrections,
            spread_before: rel_spread(&before),
            spread_after: rel_spread(&after),
            dead_pixels,
        }
    }
}

fn rel_spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (v.len() - 1) as f64;
    var.sqrt() / mean.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna_chip::pixel::{DnaPixelConfig, PixelVariation};

    fn mismatched_array(n: usize, seed: u64) -> Vec<DnaPixel> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                DnaPixel::with_variation(
                    DnaPixelConfig::default(),
                    PixelVariation::sample(&mut rng),
                )
            })
            .collect()
    }

    #[test]
    fn calibration_tightens_spread_by_an_order_of_magnitude() {
        let mut pixels = mismatched_array(128, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let report = GainCalibration::default().run(&mut pixels, &mut rng);
        assert!(
            report.spread_before > 0.02,
            "uncalibrated spread = {}",
            report.spread_before
        );
        assert!(
            report.spread_after < 0.005,
            "calibrated spread = {}",
            report.spread_after
        );
        assert!(
            report.improvement() > 10.0,
            "improvement = {}",
            report.improvement()
        );
    }

    #[test]
    fn corrections_center_on_unity() {
        let mut pixels = mismatched_array(256, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let report = GainCalibration::default().run(&mut pixels, &mut rng);
        let mean: f64 = report.corrections.iter().sum::<f64>() / report.corrections.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean correction = {mean}");
    }

    #[test]
    fn calibration_transfers_across_currents() {
        // Calibrate at 10 nA, verify the estimate at 100 pA — the
        // correction is multiplicative and current-independent (up to dead
        // time, which estimate_current already removes).
        let mut pixels = mismatched_array(16, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        GainCalibration::default().run(&mut pixels, &mut rng);
        let i = Ampere::from_pico(100.0);
        let frame = Seconds::new(10.0);
        for p in &mut pixels {
            let count = p.convert_ideal(i, frame);
            let est = p.estimate_current(count, frame);
            let rel = (est.value() - i.value()).abs() / i.value();
            assert!(rel < 0.02, "rel = {rel}");
        }
    }

    #[test]
    fn nominal_pixels_need_no_correction() {
        let mut pixels: Vec<DnaPixel> = (0..8)
            .map(|_| DnaPixel::nominal(DnaPixelConfig::default()))
            .collect();
        let mut rng = SmallRng::seed_from_u64(7);
        let report = GainCalibration::default().run(&mut pixels, &mut rng);
        for k in &report.corrections {
            assert!((k - 1.0).abs() < 0.01, "k = {k}");
        }
    }

    #[test]
    fn healthy_array_has_full_yield() {
        let mut pixels = mismatched_array(128, 8);
        let mut rng = SmallRng::seed_from_u64(9);
        let report = GainCalibration::default().run(&mut pixels, &mut rng);
        assert!(
            report.dead_pixels.is_empty(),
            "dead: {:?}",
            report.dead_pixels
        );
        assert_eq!(report.yield_fraction(), 1.0);
    }

    #[test]
    fn broken_pixel_is_flagged_dead() {
        let mut pixels = mismatched_array(16, 10);
        // Pixel 5: integration cap shorted to half its value — a gross
        // defect far beyond Pelgrom mismatch.
        pixels[5] = DnaPixel::with_variation(
            DnaPixelConfig::default(),
            PixelVariation {
                c_int_rel_err: -0.5,
                comparator_offset: bsa_units::Volt::ZERO,
                delay_rel_err: 0.0,
            },
        );
        let mut rng = SmallRng::seed_from_u64(11);
        let report = GainCalibration::default().run(&mut pixels, &mut rng);
        assert_eq!(report.dead_pixels, vec![5]);
        assert!((report.yield_fraction() - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn escalated_retry_recovers_drifted_pixel() {
        // 400 mV of comparator drift needs k ≈ 1.4 — outside the 1.3
        // first-pass limit, inside the escalated one.
        let mut p = DnaPixel::nominal(DnaPixelConfig::default());
        let mut f = bsa_faults::PixelFaults::default();
        f.merge(bsa_faults::FaultKind::ComparatorDrift {
            offset: bsa_units::Volt::from_milli(400.0),
        });
        p.set_faults(f);
        let cal = GainCalibration::default();
        let mut rng = SmallRng::seed_from_u64(12);
        let first = cal.run(std::slice::from_mut(&mut p), &mut rng);
        assert_eq!(first.dead_pixels, vec![0], "first pass must flag the drift");
        let k = cal.escalated().retry_pixel(&mut p, &mut rng);
        let k = k.expect("escalation should recover a drifted pixel");
        assert!((k - 1.4).abs() < 0.05, "k = {k}");
    }

    #[test]
    fn escalated_retry_rejects_dead_and_stuck_pixels() {
        let cal = GainCalibration::default().escalated();
        let mut rng = SmallRng::seed_from_u64(13);
        let mut dead = DnaPixel::nominal(DnaPixelConfig::default());
        let mut f = bsa_faults::PixelFaults::default();
        f.merge(bsa_faults::FaultKind::DeadPixel);
        dead.set_faults(f);
        assert_eq!(cal.retry_pixel(&mut dead, &mut rng), None);

        let mut stuck = DnaPixel::nominal(DnaPixelConfig::default());
        let mut f = bsa_faults::PixelFaults::default();
        f.merge(bsa_faults::FaultKind::StuckCount { count: 1_000_000 });
        stuck.set_faults(f);
        assert_eq!(
            cal.retry_pixel(&mut stuck, &mut rng),
            None,
            "a frozen count does not scale with current"
        );
    }

    #[test]
    fn rel_spread_edge_cases() {
        assert_eq!(rel_spread(&[]), 0.0);
        assert_eq!(rel_spread(&[1.0]), 0.0);
        assert_eq!(rel_spread(&[1.0, 1.0, 1.0]), 0.0);
        assert!(rel_spread(&[1.0, 2.0]) > 0.0);
    }
}
