//! Voltage and current references: bandgap, current mirrors, and the
//! reference-distribution network of the DNA chip's periphery ("bandgap and
//! current references", paper Section 2).

use crate::error::{require_positive, CircuitError};
use crate::mismatch::PelgromModel;
use bsa_rng::{GaussianSampler, SmallRng};
use bsa_units::{Ampere, Kelvin, Volt};

/// Bandgap voltage reference with second-order temperature curvature and
/// finite line regulation.
///
/// V_ref(T, V_DD) = V_BG + a·(T − T₀)² + k_line·(V_DD − V_DD0)
#[derive(Debug, Clone, PartialEq)]
pub struct BandgapReference {
    nominal: Volt,
    curvature_v_per_k2: f64,
    reference_temp: Kelvin,
    line_sensitivity: f64,
    nominal_supply: Volt,
}

impl BandgapReference {
    /// A typical 1.205 V bandgap trimmed at 300 K on a 5 V supply:
    /// ~20 µV/K² curvature, 0.1 %/V line sensitivity.
    pub fn typical_5v() -> Self {
        Self {
            nominal: Volt::new(1.205),
            curvature_v_per_k2: -5e-7,
            reference_temp: bsa_units::consts::ROOM_TEMPERATURE,
            line_sensitivity: 1.2e-3,
            nominal_supply: Volt::new(5.0),
        }
    }

    /// Creates a custom bandgap.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if the nominal output is not positive.
    pub fn new(
        nominal: Volt,
        curvature_v_per_k2: f64,
        reference_temp: Kelvin,
        line_sensitivity: f64,
        nominal_supply: Volt,
    ) -> Result<Self, CircuitError> {
        require_positive("bandgap nominal output", nominal.value())?;
        Ok(Self {
            nominal,
            curvature_v_per_k2,
            reference_temp,
            line_sensitivity,
            nominal_supply,
        })
    }

    /// Output voltage at the given temperature and supply.
    pub fn output(&self, t: Kelvin, vdd: Volt) -> Volt {
        let dt = t.value() - self.reference_temp.value();
        let dv_temp = self.curvature_v_per_k2 * dt * dt;
        let dv_line = self.line_sensitivity * (vdd.value() - self.nominal_supply.value());
        self.nominal + Volt::new(dv_temp + dv_line)
    }

    /// Temperature coefficient in ppm/K over `[t_lo, t_hi]` (box method).
    pub fn tempco_ppm_per_k(&self, t_lo: Kelvin, t_hi: Kelvin, vdd: Volt) -> f64 {
        let n = 101;
        let mut vmin = f64::MAX;
        let mut vmax = f64::MIN;
        for k in 0..n {
            let t = t_lo.value() + (t_hi.value() - t_lo.value()) * k as f64 / (n - 1) as f64;
            let v = self.output(Kelvin::new(t), vdd).value();
            vmin = vmin.min(v);
            vmax = vmax.max(v);
        }
        (vmax - vmin) / self.nominal.value() / (t_hi.value() - t_lo.value()) * 1e6
    }
}

/// Current mirror with ratio error from device mismatch.
///
/// Models the distribution of the calibration/reference currents across
/// array rows and the M5…M11 mirror stages of the neural readout chain
/// (paper Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentMirror {
    nominal_ratio: f64,
    ratio_error: f64,
    output_resistance_ohm: f64,
}

impl CurrentMirror {
    /// Creates a mirror with the given nominal current ratio.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if `nominal_ratio` is not positive.
    pub fn new(nominal_ratio: f64) -> Result<Self, CircuitError> {
        require_positive("mirror ratio", nominal_ratio)?;
        Ok(Self {
            nominal_ratio,
            ratio_error: 0.0,
            output_resistance_ohm: 1e9,
        })
    }

    /// Samples a mismatched instance: the ratio error follows the Pelgrom
    /// current-factor mismatch of devices with gate area `gate_area_um2`
    /// (×√2 for the two devices of the mirror).
    pub fn with_mismatch(
        mut self,
        pelgrom: &PelgromModel,
        gate_area_um2: f64,
        rng: &mut SmallRng,
    ) -> Self {
        let sigma = pelgrom.sigma_beta_rel(gate_area_um2) * std::f64::consts::SQRT_2;
        let mut g = GaussianSampler::new();
        self.ratio_error = sigma * g.sample(rng);
        self
    }

    /// The effective ratio including mismatch.
    pub fn ratio(&self) -> f64 {
        self.nominal_ratio * (1.0 + self.ratio_error)
    }

    /// Mirrors an input current.
    pub fn mirror(&self, input: Ampere) -> Ampere {
        input * self.ratio()
    }
}

/// Trimmed master current reference fanned out to `n` branch outputs with
/// per-branch mirror mismatch — the "current references" block of the DNA
/// chip periphery.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentReferenceTree {
    master: Ampere,
    branches: Vec<CurrentMirror>,
}

impl CurrentReferenceTree {
    /// Creates a tree with `n` unit mirrors sampled from `pelgrom` at the
    /// given device gate area.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if the master current is not positive.
    pub fn new(
        master: Ampere,
        n: usize,
        pelgrom: &PelgromModel,
        gate_area_um2: f64,
        rng: &mut SmallRng,
    ) -> Result<Self, CircuitError> {
        require_positive("master current", master.value())?;
        let unit = CurrentMirror::new(1.0)?;
        let branches = (0..n)
            .map(|_| unit.clone().with_mismatch(pelgrom, gate_area_um2, rng))
            .collect();
        Ok(Self { master, branches })
    }

    /// Number of branch outputs.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// `true` if the tree has no branches.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// The branch current at index `i`, or `None` if `i` is out of
    /// bounds.
    pub fn branch(&self, i: usize) -> Option<Ampere> {
        self.branches.get(i).map(|m| m.mirror(self.master))
    }

    /// Iterator over all branch currents.
    pub fn iter(&self) -> impl Iterator<Item = Ampere> + '_ {
        self.branches.iter().map(move |m| m.mirror(self.master))
    }

    /// Relative spread (σ/µ) of the branch currents.
    pub fn relative_spread(&self) -> f64 {
        let v: Vec<f64> = self.iter().map(|i| i.value()).collect();
        if v.len() < 2 {
            return 0.0;
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (v.len() - 1) as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandgap_flat_at_trim_point() {
        let bg = BandgapReference::typical_5v();
        let v0 = bg.output(Kelvin::new(300.0), Volt::new(5.0));
        assert!((v0.value() - 1.205).abs() < 1e-12);
    }

    #[test]
    fn bandgap_curvature_is_second_order() {
        let bg = BandgapReference::typical_5v();
        let dv10 = (bg.output(Kelvin::new(310.0), Volt::new(5.0))
            - bg.output(Kelvin::new(300.0), Volt::new(5.0)))
        .value()
        .abs();
        let dv20 = (bg.output(Kelvin::new(320.0), Volt::new(5.0))
            - bg.output(Kelvin::new(300.0), Volt::new(5.0)))
        .value()
        .abs();
        assert!((dv20 / dv10 - 4.0).abs() < 1e-6, "quadratic in ΔT");
    }

    #[test]
    fn bandgap_line_sensitivity() {
        let bg = BandgapReference::typical_5v();
        let dv = (bg.output(Kelvin::new(300.0), Volt::new(5.5))
            - bg.output(Kelvin::new(300.0), Volt::new(5.0)))
        .value();
        assert!((dv - 1.2e-3 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn bandgap_tempco_is_small() {
        let bg = BandgapReference::typical_5v();
        let ppm = bg.tempco_ppm_per_k(Kelvin::new(273.0), Kelvin::new(350.0), Volt::new(5.0));
        assert!(ppm < 50.0, "tempco = {ppm} ppm/K");
    }

    #[test]
    fn mirror_applies_ratio() {
        let m = CurrentMirror::new(7.0).unwrap();
        let out = m.mirror(Ampere::from_micro(1.0));
        assert!((out.as_micro() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn mirror_rejects_zero_ratio() {
        assert!(CurrentMirror::new(0.0).is_err());
    }

    #[test]
    fn mirror_mismatch_statistics() {
        let pel = PelgromModel::cmos05um();
        let mut rng = SmallRng::seed_from_u64(11);
        let area = 25.0;
        let n = 10_000;
        let errors: Vec<f64> = (0..n)
            .map(|_| {
                CurrentMirror::new(1.0)
                    .unwrap()
                    .with_mismatch(&pel, area, &mut rng)
                    .ratio()
                    - 1.0
            })
            .collect();
        let mean = errors.iter().sum::<f64>() / n as f64;
        let sd = (errors.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        let expected = pel.sigma_beta_rel(area) * std::f64::consts::SQRT_2;
        assert!(mean.abs() < expected * 0.05);
        assert!((sd - expected).abs() / expected < 0.05, "sd = {sd}");
    }

    #[test]
    fn reference_tree_spread_matches_pelgrom() {
        let pel = PelgromModel::cmos05um();
        let mut rng = SmallRng::seed_from_u64(12);
        let tree = CurrentReferenceTree::new(Ampere::from_micro(10.0), 4000, &pel, 25.0, &mut rng)
            .unwrap();
        assert_eq!(tree.len(), 4000);
        let spread = tree.relative_spread();
        let expected = pel.sigma_beta_rel(25.0) * std::f64::consts::SQRT_2;
        assert!(
            (spread - expected).abs() / expected < 0.1,
            "spread = {spread}"
        );
    }

    #[test]
    fn reference_tree_branches_are_stable() {
        let pel = PelgromModel::cmos05um();
        let mut rng = SmallRng::seed_from_u64(13);
        let tree =
            CurrentReferenceTree::new(Ampere::from_micro(1.0), 8, &pel, 25.0, &mut rng).unwrap();
        // Same branch read twice gives the same current (static mismatch).
        assert!(tree.branch(3).is_some());
        assert_eq!(tree.branch(3), tree.branch(3));
        assert_eq!(tree.branch(8), None);
        assert!(!tree.is_empty());
    }
}
