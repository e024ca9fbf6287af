//! Enzyme-label turnover.
//!
//! In the redox-cycling assay the target molecules carry an enzyme label
//! (e.g. alkaline phosphatase). After hybridization and washing, a
//! substrate (p-aminophenyl phosphate) is applied; the enzyme converts it
//! to the electrochemically active product (p-aminophenol) which the
//! interdigitated electrodes oxidize/reduce. The sensor current is thus
//! proportional to the surface density of bound, labelled targets — the
//! quantity the hybridization step encodes.

use bsa_units::{Molar, Seconds, SquareMeter};

/// Michaelis–Menten enzyme-label kinetics.
#[derive(Debug, Clone, PartialEq)]
pub struct EnzymeLabel {
    /// Catalytic turnover number k_cat in 1/s.
    pub k_cat: f64,
    /// Michaelis constant K_M.
    pub k_m: Molar,
    /// Fraction of bound targets that actually carry an active label.
    pub labelling_efficiency: f64,
}

impl Default for EnzymeLabel {
    /// Alkaline phosphatase at room temperature: k_cat ≈ 1000/s,
    /// K_M ≈ 50 µM, 90 % labelling.
    fn default() -> Self {
        Self {
            k_cat: 1000.0,
            k_m: Molar::from_micro(50.0),
            labelling_efficiency: 0.9,
        }
    }
}

impl EnzymeLabel {
    /// Per-enzyme turnover rate (product molecules per second) at substrate
    /// concentration `s`: v = k_cat·S/(S + K_M).
    pub fn turnover_rate(&self, s: Molar) -> f64 {
        self.k_cat * s.value() / (s.value() + self.k_m.value())
    }

    /// Product generation flux in mol/s from a surface patch of area
    /// `area` carrying `site_density_per_m2` bound probe sites with
    /// fractional coverage `theta`, at substrate concentration `s`.
    pub fn product_flux_mol_per_s(
        &self,
        theta: f64,
        site_density_per_m2: f64,
        area: SquareMeter,
        s: Molar,
    ) -> f64 {
        let enzymes =
            theta.clamp(0.0, 1.0) * site_density_per_m2 * area.value() * self.labelling_efficiency;
        enzymes * self.turnover_rate(s) / bsa_units::consts::AVOGADRO
    }

    /// Product concentration accumulated in a thin diffusion layer of
    /// thickness `layer_m` above the patch after `dt` of steady turnover
    /// (well-mixed-layer approximation, no depletion).
    pub fn product_concentration_after(
        &self,
        theta: f64,
        site_density_per_m2: f64,
        area: SquareMeter,
        s: Molar,
        layer_m: f64,
        dt: Seconds,
    ) -> Molar {
        let flux = self.product_flux_mol_per_s(theta, site_density_per_m2, area, s);
        let volume_l = area.value() * layer_m * 1000.0; // m³ → L
        if volume_l <= 0.0 {
            return Molar::ZERO;
        }
        Molar::new(flux * dt.value() / volume_l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turnover_saturates_at_kcat() {
        let e = EnzymeLabel::default();
        let v_low = e.turnover_rate(Molar::from_micro(5.0));
        let v_sat = e.turnover_rate(Molar::from_milli(50.0));
        assert!(v_low < v_sat);
        assert!((v_sat - e.k_cat).abs() / e.k_cat < 0.01, "v_sat = {v_sat}");
    }

    #[test]
    fn turnover_at_km_is_half_max() {
        let e = EnzymeLabel::default();
        let v = e.turnover_rate(e.k_m);
        assert!((v - e.k_cat / 2.0).abs() < 1e-9);
    }

    #[test]
    fn flux_scales_linearly_with_coverage() {
        let e = EnzymeLabel::default();
        let area = SquareMeter::new(1e-8); // (100 µm)²
        let s = Molar::from_milli(1.0);
        let f_half = e.product_flux_mol_per_s(0.5, 3e16, area, s);
        let f_full = e.product_flux_mol_per_s(1.0, 3e16, area, s);
        assert!((f_full / f_half - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flux_magnitude_supports_nanoamp_currents() {
        // Full coverage at 3e16 sites/m² (≈ 3e12/cm²) over a (100 µm)²
        // site: flux × n·F should land in the 100 nA ballpark the paper
        // reports as the upper sensor-current limit.
        let e = EnzymeLabel::default();
        let flux =
            e.product_flux_mol_per_s(1.0, 3e16, SquareMeter::new(1e-8), Molar::from_milli(1.0));
        let i = 2.0 * bsa_units::consts::FARADAY * flux; // two-electron redox
        assert!(i > 10e-9 && i < 500e-9, "i = {i} A");
    }

    #[test]
    fn coverage_is_clamped() {
        let e = EnzymeLabel::default();
        let area = SquareMeter::new(1e-8);
        let s = Molar::from_milli(1.0);
        let f = e.product_flux_mol_per_s(7.0, 3e16, area, s);
        let f1 = e.product_flux_mol_per_s(1.0, 3e16, area, s);
        assert_eq!(f, f1);
    }

    #[test]
    fn accumulated_concentration_grows_linearly() {
        let e = EnzymeLabel::default();
        let area = SquareMeter::new(1e-8);
        let s = Molar::from_milli(1.0);
        let c1 = e.product_concentration_after(1.0, 3e16, area, s, 20e-6, Seconds::new(1.0));
        let c2 = e.product_concentration_after(1.0, 3e16, area, s, 20e-6, Seconds::new(2.0));
        assert!((c2.value() / c1.value() - 2.0).abs() < 1e-12);
        assert!(c1.value() > 0.0);
    }

    #[test]
    fn zero_layer_gives_zero_concentration() {
        let e = EnzymeLabel::default();
        let c = e.product_concentration_after(
            1.0,
            3e16,
            SquareMeter::new(1e-8),
            Molar::from_milli(1.0),
            0.0,
            Seconds::new(1.0),
        );
        assert_eq!(c, Molar::ZERO);
    }
}
