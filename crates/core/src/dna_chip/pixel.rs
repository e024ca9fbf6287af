//! The in-pixel sawtooth current-to-frequency converter (paper Fig. 3).
//!
//! "The voltage of the sensor electrode is controlled by a regulation loop
//! via an operational amplifier and a source follower transistor. An
//! integrating capacitor C_int is charged by the sensor current. When the
//! switching level of the comparator is reached, a reset pulse is
//! generated. The measured frequency is approximately proportional to the
//! sensor current."
//!
//! The conversion period is
//!
//! ```text
//! T(I) = C_int·ΔV / I + τ_delay + τ_reset
//! ```
//!
//! — linear in 1/I with a current-independent dead time that compresses
//! the transfer curve at the high end of the 1 pA … 100 nA range.

use crate::error::ChipError;
use bsa_circuit::comparator::{Comparator, DelayStage};
use bsa_circuit::digital::EventCounter;
use bsa_circuit::waveform::Waveform;
use bsa_faults::PixelFaults;
use bsa_rng::{GaussianSampler, SmallRng};
use bsa_units::consts::ELEMENTARY_CHARGE;
use bsa_units::{Ampere, Farad, Hertz, Seconds, Volt};

/// Nominal design values of the converter.
#[derive(Debug, Clone, PartialEq)]
pub struct DnaPixelConfig {
    /// Integration capacitor C_int.
    pub c_int: Farad,
    /// Ramp start voltage (value of the integration node after reset).
    pub v_start: Volt,
    /// Ramp span ΔV from start to the comparator switching level.
    pub delta_v: Volt,
    /// Comparator propagation delay τ_delay.
    pub comparator_delay: Seconds,
    /// Reset pulse width τ_reset (M_res on-time).
    pub reset_width: Seconds,
    /// In-pixel counter width in bits.
    pub counter_bits: u8,
}

impl Default for DnaPixelConfig {
    /// Values matching the paper's Fig. 3 concept: C_int = 100 fF charged
    /// over a 1 V span gives f = I / 100 fC — 10 Hz at 1 pA, ≈1 MHz at
    /// 100 nA — with 100 ns of dead time (comparator delay + reset pulse).
    fn default() -> Self {
        Self {
            c_int: Farad::from_femto(100.0),
            v_start: Volt::new(0.5),
            delta_v: Volt::new(1.0),
            comparator_delay: Seconds::from_nano(40.0),
            reset_width: Seconds::from_nano(60.0),
            counter_bits: 32,
        }
    }
}

/// Per-pixel static variations of the converter (device mismatch).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PixelVariation {
    /// Relative C_int error (Δ C/C).
    pub c_int_rel_err: f64,
    /// Comparator input offset, which shifts the effective ΔV.
    pub comparator_offset: Volt,
    /// Relative delay variation.
    pub delay_rel_err: f64,
}

impl PixelVariation {
    /// Samples a variation: σ(ΔC/C) = 2 %, σ(offset) = 20 mV (2 % of the
    /// 1 V ramp), σ(Δτ/τ) = 5 % — typical for the paper's 0.5 µm process
    /// without trimming; the periphery auto-calibration exists to remove
    /// exactly this spread.
    pub fn sample(rng: &mut SmallRng) -> Self {
        let mut g = GaussianSampler::new();
        Self {
            c_int_rel_err: 0.02 * g.sample(rng),
            comparator_offset: Volt::from_milli(20.0) * g.sample(rng),
            delay_rel_err: 0.05 * g.sample(rng),
        }
    }
}

/// Result of one conversion frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConversionResult {
    /// Number of reset pulses counted in the frame.
    pub count: u64,
    /// `true` if the in-pixel counter saturated.
    pub overflowed: bool,
}

/// One DNA-chip pixel: regulation loop + sawtooth converter + counter.
#[derive(Debug, Clone, PartialEq)]
pub struct DnaPixel {
    config: DnaPixelConfig,
    variation: PixelVariation,
    /// Multiplicative correction factor set by auto-calibration
    /// (1.0 = uncalibrated).
    gain_correction: f64,
    /// Injected defects (default: none).
    faults: PixelFaults,
}

impl DnaPixel {
    /// Creates a pixel with nominal (mismatch-free) devices.
    pub fn nominal(config: DnaPixelConfig) -> Self {
        Self {
            config,
            variation: PixelVariation::default(),
            gain_correction: 1.0,
            faults: PixelFaults::default(),
        }
    }

    /// Creates a pixel with the given static variation.
    pub fn with_variation(config: DnaPixelConfig, variation: PixelVariation) -> Self {
        Self {
            config,
            variation,
            gain_correction: 1.0,
            faults: PixelFaults::default(),
        }
    }

    /// The nominal configuration.
    pub fn config(&self) -> &DnaPixelConfig {
        &self.config
    }

    /// This pixel's static variation.
    pub fn variation(&self) -> &PixelVariation {
        &self.variation
    }

    /// The calibration gain-correction factor currently applied.
    pub fn gain_correction(&self) -> f64 {
        self.gain_correction
    }

    /// Sets the calibration gain-correction factor (see
    /// [`crate::dna_chip::GainCalibration`]).
    ///
    /// The correction is realized by the pixel's calibration DAC; if a
    /// [DAC-saturation fault](bsa_faults::FaultKind::DacSaturation) is
    /// present, the stored factor is clamped to the surviving DAC range.
    pub fn set_gain_correction(&mut self, k: f64) {
        self.gain_correction = self.faults.clamp_correction(k);
    }

    /// The injected defects on this pixel.
    pub fn faults(&self) -> &PixelFaults {
        &self.faults
    }

    /// Injects (or clears, with the default value) defects on this pixel.
    pub fn set_faults(&mut self, faults: PixelFaults) {
        self.faults = faults;
        // Re-clamp any stored correction against the new DAC range.
        self.gain_correction = self.faults.clamp_correction(self.gain_correction);
    }

    /// Effective integration capacitance including mismatch.
    pub fn c_int_effective(&self) -> Farad {
        self.config.c_int * (1.0 + self.variation.c_int_rel_err)
    }

    /// Effective ramp span including the comparator offset and any
    /// injected switching-level drift.
    pub fn delta_v_effective(&self) -> Volt {
        self.config.delta_v + self.variation.comparator_offset + self.faults.comparator_drift
    }

    /// The current actually entering the integrator: sensor current plus
    /// any injected electrode leakage.
    fn integrator_input(&self, i: Ampere) -> Ampere {
        i + self.faults.leakage
    }

    /// Effective dead time per cycle (delay + reset width).
    pub fn dead_time(&self) -> Seconds {
        (self.config.comparator_delay + self.config.reset_width)
            * (1.0 + self.variation.delay_rel_err)
    }

    /// Conversion period for a given sensor current (this pixel's actual
    /// hardware, including mismatch).
    ///
    /// # Panics
    ///
    /// Panics if the current is not strictly positive.
    pub fn period(&self, i: Ampere) -> Seconds {
        assert!(i.value() > 0.0, "conversion requires positive current");
        let ramp = (self.c_int_effective() * self.delta_v_effective()) / i;
        ramp + self.dead_time()
    }

    /// Conversion frequency 1/T for a given sensor current.
    pub fn frequency(&self, i: Ampere) -> Hertz {
        self.period(i).recip()
    }

    /// Noise-free conversion: the count after a frame of `frame_time`,
    /// saturating at the counter's width. Injected defects apply: a dead
    /// or comparator-stuck pixel counts 0, a stuck counter returns its
    /// frozen value, electrode leakage adds to the sensor current.
    pub fn convert_ideal(&mut self, i: Ampere, frame_time: Seconds) -> u64 {
        let counter = EventCounter::new(self.config.counter_bits);
        if self.faults.dead {
            return 0;
        }
        if let Some(frozen) = self.faults.stuck_count {
            return frozen.min(counter.max_count());
        }
        let i = self.integrator_input(i);
        let n = (frame_time.value() / self.period(i).value()).floor() as u64;
        n.min(counter.max_count())
    }

    /// Full conversion with counting statistics: shot noise of the charge
    /// packets plus ±1 quantization of the cycle phase. Injected defects
    /// apply as in [`convert_ideal`](Self::convert_ideal).
    pub fn convert(
        &mut self,
        i: Ampere,
        frame_time: Seconds,
        rng: &mut SmallRng,
    ) -> ConversionResult {
        let counter = EventCounter::new(self.config.counter_bits);
        if self.faults.dead {
            return ConversionResult {
                count: 0,
                overflowed: false,
            };
        }
        if let Some(frozen) = self.faults.stuck_count {
            return ConversionResult {
                count: frozen.min(counter.max_count()),
                overflowed: frozen > counter.max_count(),
            };
        }
        let i = self.integrator_input(i);
        let period = self.period(i);
        let mean_count = frame_time.value() / period.value();

        // Electrons per ramp: shot noise gives each cycle a relative period
        // jitter of 1/√n_e; over N cycles the count variance is N/n_e.
        let q_cycle = (self.c_int_effective() * self.delta_v_effective()).value();
        let n_e = (q_cycle / ELEMENTARY_CHARGE).max(1.0);
        let sigma = (mean_count / n_e + 1.0 / 12.0).sqrt();

        let mut g = GaussianSampler::new();
        let noisy = mean_count + sigma * g.sample(rng);

        let target = noisy.max(0.0).floor() as u64;
        let overflowed = target > counter.max_count();
        ConversionResult {
            count: target.min(counter.max_count()),
            overflowed,
        }
    }

    /// Estimates the sensor current from a frame count using the *nominal*
    /// design values plus this pixel's calibration factor — exactly the
    /// computation the off-chip software performs on the serial data.
    pub fn estimate_current(&self, count: u64, frame_time: Seconds) -> Ampere {
        if count == 0 {
            return Ampere::ZERO;
        }
        let period = frame_time.value() / count as f64;
        let dead = (self.config.comparator_delay + self.config.reset_width).value();
        let ramp = (period - dead).max(1e-12);
        let i_raw = (self.config.c_int * self.config.delta_v).value() / ramp;
        Ampere::new(i_raw * self.gain_correction)
    }

    /// Simulates the integration-node voltage waveform (the Fig. 3
    /// sawtooth) for `duration` at sample interval `dt`, using the actual
    /// comparator/delay-stage blocks from `bsa-circuit`.
    ///
    /// Errors if the pixel's effective component values (after process
    /// variation) or `dt` fall outside the circuit blocks' validity
    /// ranges.
    pub fn transient(
        &self,
        i: Ampere,
        duration: Seconds,
        dt: Seconds,
    ) -> Result<Waveform, ChipError> {
        let mut cap = bsa_circuit::passive::Capacitor::new(self.c_int_effective())?;
        cap.set_voltage(self.config.v_start);
        let threshold = self.config.v_start + self.config.delta_v;
        let mut comp = Comparator::new(
            threshold,
            self.variation.comparator_offset,
            Volt::from_milli(1.0),
            self.config.comparator_delay * (1.0 + self.variation.delay_rel_err),
        )?;
        let delay = DelayStage::new(
            Seconds::ZERO,
            self.config.reset_width * (1.0 + self.variation.delay_rel_err),
        )?;
        // The reset pulse lasts at least one simulation step so coarse
        // sampling cannot step over it.
        let reset_steps = (delay.pulse_width().value() / dt.value()).ceil().max(1.0) as usize;

        let steps = (duration.value() / dt.value()).round() as usize;
        let mut w = Waveform::new(dt)?;
        let mut resetting_left = 0usize;
        for k in 0..steps {
            let now = dt * k as f64;
            if resetting_left > 0 {
                // M_res shorts the integration node back to the start level.
                cap.set_voltage(self.config.v_start);
                resetting_left -= 1;
            } else {
                cap.integrate(i, dt);
            }
            let out = comp.evaluate(cap.voltage(), now);
            if out.rising_edge {
                resetting_left = reset_steps;
            }
            w.push(cap.voltage().value());
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pixel() -> DnaPixel {
        DnaPixel::nominal(DnaPixelConfig::default())
    }

    #[test]
    fn frequency_proportional_to_current_at_low_end() {
        let p = pixel();
        let f1 = p.frequency(Ampere::from_pico(1.0));
        let f10 = p.frequency(Ampere::from_pico(10.0));
        assert!((f10.value() / f1.value() - 10.0).abs() < 0.01);
        // 1 pA into 100 fF × 1 V ≈ 10 Hz.
        assert!((f1.value() - 10.0).abs() < 0.01, "f(1 pA) = {f1}");
    }

    #[test]
    fn dead_time_compresses_high_currents() {
        let p = pixel();
        let f = p.frequency(Ampere::from_nano(100.0));
        let ideal = Hertz::new(100e-9 / (100e-15 * 1.0));
        let compression = f.value() / ideal.value();
        assert!(
            compression < 0.95 && compression > 0.85,
            "compression = {compression}"
        );
        // At mid-range the compression is negligible.
        let f_mid = p.frequency(Ampere::from_nano(1.0));
        let comp_mid = f_mid.value() / (1e-9 / 100e-15);
        assert!(comp_mid > 0.999, "mid compression = {comp_mid}");
    }

    #[test]
    fn five_decades_of_dynamic_range() {
        let mut p = pixel();
        let frame = Seconds::new(10.0);
        let lo = p.convert_ideal(Ampere::from_pico(1.0), frame);
        let hi = p.convert_ideal(Ampere::from_nano(100.0), frame);
        assert!((99..=100).contains(&lo), "10 Hz × 10 s ≈ {lo}");
        assert!(hi > 8_000_000, "high count = {hi}");
        assert!(hi / lo > 50_000);
    }

    #[test]
    #[should_panic(expected = "positive current")]
    fn zero_current_is_rejected() {
        pixel().period(Ampere::ZERO);
    }

    #[test]
    fn counter_overflow_reported() {
        let cfg = DnaPixelConfig {
            counter_bits: 8,
            ..DnaPixelConfig::default()
        };
        let mut p = DnaPixel::nominal(cfg);
        let mut rng = SmallRng::seed_from_u64(1);
        let r = p.convert(Ampere::from_nano(100.0), Seconds::new(1.0), &mut rng);
        assert!(r.overflowed);
        assert_eq!(r.count, 255);
    }

    #[test]
    fn noisy_conversion_is_unbiased() {
        let mut p = pixel();
        let mut rng = SmallRng::seed_from_u64(2);
        let i = Ampere::from_nano(1.0);
        let frame = Seconds::new(10.0);
        let ideal = p.convert_ideal(i, frame) as f64;
        let n = 200;
        let mean: f64 = (0..n)
            .map(|_| p.convert(i, frame, &mut rng).count as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - ideal).abs() / ideal < 0.01,
            "mean = {mean}, ideal = {ideal}"
        );
    }

    #[test]
    fn estimate_inverts_conversion_for_nominal_pixel() {
        let mut p = pixel();
        let frame = Seconds::new(10.0);
        for i in [
            Ampere::from_pico(10.0),
            Ampere::from_nano(1.0),
            Ampere::from_nano(100.0),
        ] {
            let count = p.convert_ideal(i, frame);
            let est = p.estimate_current(count, frame);
            let rel = (est.value() - i.value()).abs() / i.value();
            assert!(rel < 0.02, "i = {i}: est = {est} ({rel})");
        }
    }

    #[test]
    fn mismatch_biases_estimate_until_calibrated() {
        let var = PixelVariation {
            c_int_rel_err: 0.05,
            comparator_offset: Volt::from_milli(30.0),
            delay_rel_err: 0.0,
        };
        let mut p = DnaPixel::with_variation(DnaPixelConfig::default(), var);
        let i = Ampere::from_nano(1.0);
        let frame = Seconds::new(10.0);
        let count = p.convert_ideal(i, frame);
        let est = p.estimate_current(count, frame);
        let rel_err = (est.value() - i.value()).abs() / i.value();
        // 5 % cap + 3 % ΔV error ≈ 8 % estimate error uncalibrated.
        assert!(rel_err > 0.05, "rel_err = {rel_err}");

        // Calibrate with a known reference current.
        let i_ref = Ampere::from_nano(10.0);
        let ref_count = p.convert_ideal(i_ref, frame);
        let k = i_ref.value() / p.estimate_current(ref_count, frame).value();
        p.set_gain_correction(k);
        let est2 = p.estimate_current(count, frame);
        let rel2 = (est2.value() - i.value()).abs() / i.value();
        assert!(rel2 < 0.01, "calibrated rel err = {rel2}");
    }

    #[test]
    fn estimate_of_zero_count_is_zero() {
        let p = pixel();
        assert_eq!(p.estimate_current(0, Seconds::new(1.0)), Ampere::ZERO);
    }

    #[test]
    fn transient_produces_expected_sawtooth_count() {
        let p = pixel();
        let i = Ampere::from_nano(10.0);
        // f ≈ 10 kHz − dead-time compression ≈ 9.95 kHz; 2 ms → ~19 ramps.
        let w = p
            .transient(i, Seconds::from_milli(2.0), Seconds::from_nano(20.0))
            .expect("nominal pixel transient");
        let mid = p.config().v_start.value() + 0.5 * p.config().delta_v.value();
        let ramps = w.rising_crossings(mid);
        let expected = (p.frequency(i).value() * 2e-3).floor() as usize;
        assert!(
            (ramps as i64 - expected as i64).abs() <= 1,
            "ramps = {ramps}, expected ≈ {expected}"
        );
    }

    #[test]
    fn dead_pixel_counts_zero() {
        let mut p = pixel();
        let mut f = bsa_faults::PixelFaults::default();
        f.merge(bsa_faults::FaultKind::DeadPixel);
        p.set_faults(f);
        assert_eq!(
            p.convert_ideal(Ampere::from_nano(100.0), Seconds::new(10.0)),
            0
        );
        let mut rng = SmallRng::seed_from_u64(3);
        let r = p.convert(Ampere::from_nano(100.0), Seconds::new(10.0), &mut rng);
        assert_eq!(r.count, 0);
        assert!(!r.overflowed);
    }

    #[test]
    fn stuck_counter_returns_frozen_value() {
        let mut p = pixel();
        let mut f = bsa_faults::PixelFaults::default();
        f.merge(bsa_faults::FaultKind::StuckCount { count: 424_242 });
        p.set_faults(f);
        for i in [Ampere::from_pico(1.0), Ampere::from_nano(100.0)] {
            assert_eq!(p.convert_ideal(i, Seconds::new(10.0)), 424_242);
        }
    }

    #[test]
    fn leakage_biases_small_currents() {
        let mut clean = pixel();
        let mut leaky = pixel();
        let mut f = bsa_faults::PixelFaults::default();
        f.merge(bsa_faults::FaultKind::LeakyElectrode {
            leakage: Ampere::from_pico(10.0),
        });
        leaky.set_faults(f);
        let frame = Seconds::new(10.0);
        let i = Ampere::from_pico(5.0);
        let n_clean = clean.convert_ideal(i, frame);
        let n_leaky = leaky.convert_ideal(i, frame);
        // 5 pA + 10 pA leakage reads ≈ 3× too high.
        assert!(n_leaky > 2 * n_clean, "clean {n_clean}, leaky {n_leaky}");
    }

    #[test]
    fn comparator_drift_shifts_gain_until_recalibrated() {
        let mut p = pixel();
        let mut f = bsa_faults::PixelFaults::default();
        f.merge(bsa_faults::FaultKind::ComparatorDrift {
            offset: Volt::from_milli(100.0),
        });
        p.set_faults(f);
        let frame = Seconds::new(10.0);
        let i = Ampere::from_nano(1.0);
        let est = p.estimate_current(p.clone().convert_ideal(i, frame), frame);
        let rel = (est.value() - i.value()).abs() / i.value();
        assert!(rel > 0.05, "drift must bias the estimate, rel = {rel}");
        // Recalibration against a reference current absorbs the drift.
        let i_ref = Ampere::from_nano(10.0);
        let k = i_ref.value()
            / p.estimate_current(p.clone().convert_ideal(i_ref, frame), frame)
                .value();
        p.set_gain_correction(k);
        let est2 = p.estimate_current(p.clone().convert_ideal(i, frame), frame);
        let rel2 = (est2.value() - i.value()).abs() / i.value();
        assert!(rel2 < 0.01, "recalibrated rel = {rel2}");
    }

    #[test]
    fn saturated_dac_clamps_correction() {
        let mut p = pixel();
        let mut f = bsa_faults::PixelFaults::default();
        f.merge(bsa_faults::FaultKind::DacSaturation { limit: 1.05 });
        p.set_faults(f);
        p.set_gain_correction(1.5);
        assert!((p.gain_correction() - 1.05).abs() < 1e-12);
        p.set_gain_correction(0.5);
        assert!((p.gain_correction() - 1.0 / 1.05).abs() < 1e-12);
    }

    #[test]
    fn transient_stays_within_ramp_window() {
        let p = pixel();
        let i = Ampere::from_nano(1.0);
        let dt = Seconds::from_micro(1.0);
        let w = p
            .transient(i, Seconds::from_milli(5.0), dt)
            .expect("nominal pixel transient");
        let v_lo = p.config().v_start.value() - 1e-6;
        // Allow up to three integration steps of overshoot past the
        // threshold (comparator delay discretized onto the sample grid).
        let step_v = (i * dt).value() / p.c_int_effective().value();
        let v_hi = p.config().v_start.value() + p.config().delta_v.value() + 3.0 * step_v;
        assert!(w.min() >= v_lo, "min = {}", w.min());
        assert!(w.max() <= v_hi, "max = {}", w.max());
    }
}
