//! Label-free impedance detection.
//!
//! "Alternative label-free principles are under development. They focus on
//! the effect of impedance or mass changes at the sensors' surfaces after
//! hybridization" (paper Section 2, refs [7, 8, 10, 11]). This module
//! models the interfacial-impedance route: hybridized DNA displaces ions
//! and water from the double layer, reducing the interface capacitance and
//! increasing the charge-transfer resistance of a Randles-type interface:
//!
//! ```text
//! Z(ω) = R_s + 1 / ( jω·C_dl(θ) + 1/R_ct(θ) )
//! ```

use bsa_units::{Farad, Hertz, Ohm};

/// Randles-style interfacial impedance sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpedanceSensor {
    /// Series solution resistance.
    pub r_solution: Ohm,
    /// Double-layer capacitance of the bare (probe-only) surface.
    pub c_dl_bare: Farad,
    /// Relative capacitance drop at full duplex coverage (θ = 1),
    /// typically 1 … 15 %.
    pub c_drop_rel: f64,
    /// Charge-transfer resistance of the bare surface.
    pub r_ct_bare: Ohm,
    /// Multiplicative R_ct increase at full coverage (blocking layer).
    pub r_ct_gain: f64,
    /// Relative measurement noise of a capacitance readout (one sample).
    pub readout_noise_rel: f64,
}

impl Default for ImpedanceSensor {
    /// A (100 µm)² gold site in buffer: 20 µF/cm² ⇒ 2 nF, R_s = 1 kΩ,
    /// R_ct = 100 kΩ, 10 % capacitance window, 0.1 % readout noise.
    fn default() -> Self {
        Self {
            r_solution: Ohm::from_kilo(1.0),
            c_dl_bare: Farad::from_nano(2.0),
            c_drop_rel: 0.10,
            r_ct_bare: Ohm::from_kilo(100.0),
            r_ct_gain: 5.0,
            readout_noise_rel: 1e-3,
        }
    }
}

/// Complex impedance as magnitude and phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpedancePoint {
    /// Frequency of the measurement.
    pub frequency: Hertz,
    /// |Z| in ohms.
    pub magnitude: f64,
    /// Phase in radians (negative = capacitive).
    pub phase: f64,
}

impl ImpedanceSensor {
    /// Interface capacitance at duplex coverage `theta`.
    pub fn capacitance(&self, theta: f64) -> Farad {
        self.c_dl_bare * (1.0 - self.c_drop_rel * theta.clamp(0.0, 1.0))
    }

    /// Charge-transfer resistance at coverage `theta`.
    pub fn charge_transfer_resistance(&self, theta: f64) -> Ohm {
        self.r_ct_bare * (1.0 + (self.r_ct_gain - 1.0) * theta.clamp(0.0, 1.0))
    }

    /// Complex impedance at frequency `f` and coverage `theta`.
    pub fn impedance_at(&self, f: Hertz, theta: f64) -> ImpedancePoint {
        let w = 2.0 * std::f64::consts::PI * f.value();
        let c = self.capacitance(theta).value();
        let g = 1.0 / self.charge_transfer_resistance(theta).value();
        // Y = G + jωC; Z_int = 1/Y.
        let denom = g * g + (w * c) * (w * c);
        let re_int = g / denom;
        let im_int = -w * c / denom;
        let re = self.r_solution.value() + re_int;
        let im = im_int;
        ImpedancePoint {
            frequency: f,
            magnitude: (re * re + im * im).sqrt(),
            phase: im.atan2(re),
        }
    }

    /// Impedance spectrum over logarithmically spaced frequencies.
    pub fn spectrum(
        &self,
        f_lo: Hertz,
        f_hi: Hertz,
        points: usize,
        theta: f64,
    ) -> Vec<ImpedancePoint> {
        bsa_units::sweep::logspace(f_lo.value(), f_hi.value(), points)
            .into_iter()
            .map(|f| self.impedance_at(Hertz::new(f), theta))
            .collect()
    }

    /// Relative capacitance signal for coverage `theta`:
    /// (C(0) − C(θ)) / C(0) — the quantity a capacitance readout measures.
    pub fn relative_signal(&self, theta: f64) -> f64 {
        1.0 - self.capacitance(theta).value() / self.c_dl_bare.value()
    }

    /// Smallest coverage detectable at SNR = 3 with one readout sample.
    pub fn minimum_detectable_coverage(&self) -> f64 {
        (3.0 * self.readout_noise_rel / self.c_drop_rel).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacitance_drops_with_coverage() {
        let s = ImpedanceSensor::default();
        assert!(s.capacitance(1.0) < s.capacitance(0.5));
        assert!(s.capacitance(0.5) < s.capacitance(0.0));
        let rel = s.capacitance(1.0).value() / s.capacitance(0.0).value();
        assert!((rel - 0.9).abs() < 1e-12);
    }

    #[test]
    fn coverage_is_clamped() {
        let s = ImpedanceSensor::default();
        assert_eq!(s.capacitance(2.0), s.capacitance(1.0));
        assert_eq!(s.capacitance(-1.0), s.capacitance(0.0));
    }

    #[test]
    fn low_frequency_impedance_approaches_rs_plus_rct() {
        let s = ImpedanceSensor::default();
        let z = s.impedance_at(Hertz::new(0.01), 0.0);
        let expected = s.r_solution.value() + s.r_ct_bare.value();
        assert!(
            (z.magnitude - expected).abs() / expected < 0.01,
            "|Z| = {}",
            z.magnitude
        );
    }

    #[test]
    fn high_frequency_impedance_approaches_rs() {
        let s = ImpedanceSensor::default();
        let z = s.impedance_at(Hertz::from_mega(10.0), 0.0);
        assert!(
            (z.magnitude - s.r_solution.value()).abs() / s.r_solution.value() < 0.01,
            "|Z| = {}",
            z.magnitude
        );
        assert!(z.phase.abs() < 0.1, "phase ≈ 0 at HF");
    }

    #[test]
    fn mid_band_phase_is_capacitive() {
        let s = ImpedanceSensor::default();
        let z = s.impedance_at(Hertz::new(1000.0), 0.0);
        assert!(z.phase < -0.5, "phase = {}", z.phase);
    }

    #[test]
    fn hybridization_shifts_the_spectrum() {
        let s = ImpedanceSensor::default();
        // At a mid frequency, |Z| grows with coverage (C drops, Rct grows).
        let z0 = s.impedance_at(Hertz::new(100.0), 0.0);
        let z1 = s.impedance_at(Hertz::new(100.0), 1.0);
        assert!(z1.magnitude > z0.magnitude);
    }

    #[test]
    fn spectrum_is_monotone_decreasing_in_frequency() {
        let s = ImpedanceSensor::default();
        let spec = s.spectrum(Hertz::new(1.0), Hertz::from_mega(1.0), 30, 0.3);
        assert_eq!(spec.len(), 30);
        for w in spec.windows(2) {
            assert!(w[1].magnitude <= w[0].magnitude + 1e-9);
        }
    }

    #[test]
    fn relative_signal_linear_in_coverage() {
        let s = ImpedanceSensor::default();
        assert!((s.relative_signal(0.5) - 0.05).abs() < 1e-12);
        assert!((s.relative_signal(1.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn detection_limit_is_percent_scale() {
        // 0.1 % noise against a 10 % full-scale window: θ_min = 3 %.
        let s = ImpedanceSensor::default();
        let min = s.minimum_detectable_coverage();
        assert!((min - 0.03).abs() < 1e-12, "θ_min = {min}");
    }
}
