//! Label-free gravimetric (mass) detection.
//!
//! The second label-free route of paper refs [9, 10]: a film bulk acoustic
//! resonator (FBAR) under the sensor surface shifts its resonance
//! frequency when hybridized DNA adds mass, following the Sauerbrey
//! relation:
//!
//! ```text
//! Δf = −2·f₀²·Δm″ / (ρ_q·v_q)    (Δm″ = areal mass density, kg/m²)
//! ```

use bsa_units::{Hertz, SquareMeter};

/// Average molar mass of one DNA base in kg/mol.
const BASE_MASS_KG_PER_MOL: f64 = 0.330;

/// Film-bulk-acoustic-resonator mass sensor under one array site.
#[derive(Debug, Clone, PartialEq)]
pub struct FbarSensor {
    /// Unloaded resonance frequency (ZnO/AlN FBARs: ~2 GHz).
    pub f0: Hertz,
    /// Acoustic impedance ρ·v of the resonator material in kg/(m²·s)
    /// (AlN: ≈ 3.4e7).
    pub acoustic_impedance: f64,
    /// Frequency-readout noise floor (one measurement).
    pub frequency_noise: Hertz,
    /// Probe site density in 1/m².
    pub probe_density_per_m2: f64,
    /// Bound-target length in bases (long targets: big mass per event).
    pub target_length_bases: usize,
}

impl Default for FbarSensor {
    /// A 2 GHz AlN FBAR with 3e15/m² probes binding 200-base targets,
    /// 1 kHz frequency noise.
    fn default() -> Self {
        Self {
            f0: Hertz::new(2.0e9),
            acoustic_impedance: 3.4e7,
            frequency_noise: Hertz::from_kilo(1.0),
            probe_density_per_m2: 3e15,
            target_length_bases: 200,
        }
    }
}

impl FbarSensor {
    /// Mass sensitivity in Hz per (kg/m²): 2·f₀²/(ρ·v).
    pub fn sensitivity_hz_per_kg_m2(&self) -> f64 {
        2.0 * self.f0.value() * self.f0.value() / self.acoustic_impedance
    }

    /// Areal mass added by duplex coverage `theta` in kg/m².
    pub fn areal_mass(&self, theta: f64) -> f64 {
        let per_molecule =
            self.target_length_bases as f64 * BASE_MASS_KG_PER_MOL / bsa_units::consts::AVOGADRO;
        theta.clamp(0.0, 1.0) * self.probe_density_per_m2 * per_molecule
    }

    /// Resonance downshift for coverage `theta` (positive number).
    pub fn frequency_shift(&self, theta: f64) -> Hertz {
        Hertz::new(self.sensitivity_hz_per_kg_m2() * self.areal_mass(theta))
    }

    /// Loaded resonance frequency at coverage `theta`.
    pub fn resonance(&self, theta: f64) -> Hertz {
        self.f0 - self.frequency_shift(theta)
    }

    /// Smallest coverage detectable at SNR = 3 against the frequency
    /// noise floor.
    pub fn minimum_detectable_coverage(&self) -> f64 {
        let full = self.frequency_shift(1.0).value();
        if full <= 0.0 {
            return 1.0;
        }
        (3.0 * self.frequency_noise.value() / full).min(1.0)
    }

    /// Mass per site area resolved at the noise floor, in kg/m².
    pub fn mass_resolution_kg_m2(&self) -> f64 {
        3.0 * self.frequency_noise.value() / self.sensitivity_hz_per_kg_m2()
    }

    /// Total detected mass on a site of the given area at coverage
    /// `theta`, in kilograms.
    pub fn bound_mass_kg(&self, area: SquareMeter, theta: f64) -> f64 {
        self.areal_mass(theta) * area.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_magnitude() {
        let s = FbarSensor::default();
        // 2·(2e9)²/3.4e7 ≈ 2.35e11 Hz/(kg/m²).
        let k = s.sensitivity_hz_per_kg_m2();
        assert!((k - 2.35e11).abs() / k < 0.01, "k = {k}");
    }

    #[test]
    fn shift_is_linear_in_coverage() {
        let s = FbarSensor::default();
        let half = s.frequency_shift(0.5).value();
        let full = s.frequency_shift(1.0).value();
        assert!((full / half - 2.0).abs() < 1e-12);
    }

    #[test]
    fn full_coverage_shift_is_resolvable() {
        // 3e15/m² × 200 bases × 0.33 kg/mol / N_A ≈ 3.3e-7 kg/m²
        // ⇒ Δf ≈ 77 kHz at 2 GHz — two orders above the 1 kHz noise.
        let s = FbarSensor::default();
        let df = s.frequency_shift(1.0);
        assert!(df.value() > 10e3, "Δf = {df}");
        assert!(df.value() < 1e6, "Δf = {df}");
        assert!(s.minimum_detectable_coverage() < 0.1);
    }

    #[test]
    fn resonance_moves_down() {
        let s = FbarSensor::default();
        assert!(s.resonance(1.0) < s.resonance(0.0));
        assert_eq!(s.resonance(0.0), s.f0);
    }

    #[test]
    fn longer_targets_are_easier_to_detect() {
        let short = FbarSensor {
            target_length_bases: 20,
            ..FbarSensor::default()
        };
        let long = FbarSensor {
            target_length_bases: 2000,
            ..FbarSensor::default()
        };
        assert!(long.minimum_detectable_coverage() < short.minimum_detectable_coverage());
    }

    #[test]
    fn coverage_clamped() {
        let s = FbarSensor::default();
        assert_eq!(s.frequency_shift(5.0), s.frequency_shift(1.0));
        assert_eq!(s.frequency_shift(-1.0).value(), 0.0);
    }

    #[test]
    fn mass_resolution_consistent_with_coverage_limit() {
        let s = FbarSensor::default();
        let theta_min = s.minimum_detectable_coverage();
        let mass_at_theta_min = s.areal_mass(theta_min);
        assert!((mass_at_theta_min - s.mass_resolution_kg_m2()).abs() / mass_at_theta_min < 1e-9);
    }

    #[test]
    fn bound_mass_scales_with_area() {
        let s = FbarSensor::default();
        let a1 = s.bound_mass_kg(SquareMeter::new(1e-8), 1.0);
        let a2 = s.bound_mass_kg(SquareMeter::new(2e-8), 1.0);
        assert!((a2 / a1 - 2.0).abs() < 1e-12);
        // Femtogram–picogram scale per site: (100 µm)² × 3.3e-7 kg/m².
        assert!(a1 > 1e-18 && a1 < 1e-12, "mass = {a1} kg");
    }
}
