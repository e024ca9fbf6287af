//! Pelgrom-law device mismatch and process corners.
//!
//! Matching of nominally identical devices is limited by local fluctuations
//! that scale with the inverse square root of gate area (Pelgrom's law):
//!
//! ```text
//! σ(ΔV_T)  = A_VT / sqrt(W·L)
//! σ(Δβ/β) = A_β  / sqrt(W·L)
//! ```
//!
//! For the paper's 0.5 µm / t_ox = 15 nm process, A_VT ≈ 9 mV·µm — so a
//! minimum-size sensor transistor has millivolts of threshold spread while
//! the neural signals of interest are 100 µV … 5 mV. This is the entire
//! motivation for the per-pixel calibration of Section 3 / Fig. 6, and the
//! auto-calibration circuits on the DNA chip's periphery.

use crate::error::{require_positive, CircuitError};
use crate::mosfet::{Mosfet, MosfetParams};
use bsa_rng::{GaussianSampler, SmallRng};
use bsa_units::Volt;

/// Pelgrom mismatch coefficients for a CMOS process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PelgromModel {
    /// Threshold-matching coefficient A_VT in mV·µm.
    pub a_vt_mv_um: f64,
    /// Current-factor matching coefficient A_β in %·µm.
    pub a_beta_pct_um: f64,
}

impl PelgromModel {
    /// Coefficients typical of the paper's 0.5 µm, t_ox = 15 nm process.
    ///
    /// A_VT scales roughly with oxide thickness at ≈ 0.6 mV·µm/nm.
    pub fn cmos05um() -> Self {
        Self {
            a_vt_mv_um: 9.0,
            a_beta_pct_um: 2.0,
        }
    }

    /// Validates the coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if either coefficient is non-positive.
    pub fn validate(&self) -> Result<(), CircuitError> {
        require_positive("A_VT", self.a_vt_mv_um)?;
        require_positive("A_beta", self.a_beta_pct_um)?;
        Ok(())
    }

    /// Standard deviation of the threshold mismatch for a device of the
    /// given gate area.
    ///
    /// # Examples
    ///
    /// ```
    /// use bsa_circuit::mismatch::PelgromModel;
    /// let m = PelgromModel::cmos05um();
    /// // A 9 µm² device on this process: σ(ΔVT) = 3 mV.
    /// assert!((m.sigma_vth(9.0).as_milli() - 3.0).abs() < 1e-9);
    /// ```
    pub fn sigma_vth(&self, gate_area_um2: f64) -> Volt {
        Volt::from_milli(self.a_vt_mv_um / gate_area_um2.sqrt())
    }

    /// Standard deviation of the relative current-factor mismatch Δβ/β.
    pub fn sigma_beta_rel(&self, gate_area_um2: f64) -> f64 {
        self.a_beta_pct_um / 100.0 / gate_area_um2.sqrt()
    }

    /// Samples a `(ΔV_T, Δβ/β)` pair for a device of the given gate area.
    pub fn sample(&self, gate_area_um2: f64, rng: &mut SmallRng) -> (Volt, f64) {
        let mut g = GaussianSampler::new();
        let dvt = self.sigma_vth(gate_area_um2) * g.sample(rng);
        let dbeta = self.sigma_beta_rel(gate_area_um2) * g.sample(rng);
        (dvt, dbeta)
    }

    /// Builds a mismatched instance of an already-validated nominal
    /// device. Taking `&Mosfet` (not raw params) keeps this infallible:
    /// validation happened once at the nominal device's construction, so
    /// sampling mismatch cannot panic mid-array. The instance shares the
    /// nominal device's parameter block.
    pub fn instantiate(&self, nominal: &Mosfet, rng: &mut SmallRng) -> Mosfet {
        let area = nominal.params().gate_area_um2();
        let (dvt, dbeta) = self.sample(area, rng);
        nominal.clone().with_mismatch(dvt, dbeta)
    }
}

/// Global process corner: shifts that affect all devices on a die together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessCorner {
    /// Typical-typical.
    Tt,
    /// Fast NMOS, fast PMOS (low V_T, high kp).
    Ff,
    /// Slow NMOS, slow PMOS (high V_T, low kp).
    Ss,
    /// Fast NMOS, slow PMOS.
    Fs,
    /// Slow NMOS, fast PMOS.
    Sf,
}

impl ProcessCorner {
    /// All five corners, for corner sweeps.
    pub const ALL: [Self; 5] = [Self::Tt, Self::Ff, Self::Ss, Self::Fs, Self::Sf];

    /// Applies the corner to a nominal parameter set: ±60 mV threshold and
    /// ±10 % current-factor shifts (typical 3σ global variation).
    #[must_use]
    pub fn apply(self, mut params: MosfetParams) -> MosfetParams {
        use crate::mosfet::Polarity;
        let (vt_shift, kp_scale) = match (self, params.polarity) {
            (Self::Tt, _) => (0.0, 1.0),
            (Self::Ff, _) => (-0.06, 1.10),
            (Self::Ss, _) => (0.06, 0.90),
            (Self::Fs, Polarity::Nmos) | (Self::Sf, Polarity::Pmos) => (-0.06, 1.10),
            (Self::Fs, Polarity::Pmos) | (Self::Sf, Polarity::Nmos) => (0.06, 0.90),
        };
        params.vth0 += Volt::new(vt_shift);
        params.kp *= kp_scale;
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_scales_with_inverse_sqrt_area() {
        let m = PelgromModel::cmos05um();
        let s1 = m.sigma_vth(1.0);
        let s4 = m.sigma_vth(4.0);
        assert!((s1.value() / s4.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sample_statistics_match_model() {
        let m = PelgromModel::cmos05um();
        let mut rng = SmallRng::seed_from_u64(42);
        let area = 4.0;
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample(area, &mut rng).0.value()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let sigma = var.sqrt();
        let expected = m.sigma_vth(area).value();
        assert!(mean.abs() < expected * 0.05, "mean = {mean}");
        assert!(
            (sigma - expected).abs() / expected < 0.05,
            "sigma = {sigma}"
        );
    }

    #[test]
    fn instantiate_produces_distinct_devices() {
        let m = PelgromModel::cmos05um();
        let mut rng = SmallRng::seed_from_u64(7);
        let nominal = Mosfet::try_new(MosfetParams::n05um(2.0, 1.0)).unwrap();
        let a = m.instantiate(&nominal, &mut rng);
        let b = m.instantiate(&nominal, &mut rng);
        assert_ne!(a.delta_vth(), b.delta_vth());
        // Instances share the nominal device's parameter block.
        assert!(std::ptr::eq(a.params(), nominal.params()));
        assert!(std::ptr::eq(b.params(), nominal.params()));
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let m = PelgromModel::cmos05um();
        let mut r1 = SmallRng::seed_from_u64(3);
        let mut r2 = SmallRng::seed_from_u64(3);
        assert_eq!(m.sample(2.0, &mut r1), m.sample(2.0, &mut r2));
    }

    #[test]
    fn corners_shift_threshold_both_ways() {
        let p = MosfetParams::n05um(10.0, 2.0);
        let ff = ProcessCorner::Ff.apply(p.clone());
        let ss = ProcessCorner::Ss.apply(p.clone());
        assert!(ff.vth0 < p.vth0);
        assert!(ss.vth0 > p.vth0);
        assert!(ff.kp > p.kp);
        assert!(ss.kp < p.kp);
    }

    #[test]
    fn tt_corner_is_identity() {
        let p = MosfetParams::n05um(10.0, 2.0);
        assert_eq!(ProcessCorner::Tt.apply(p.clone()), p);
    }

    #[test]
    fn cross_corners_respect_polarity() {
        let n = MosfetParams::n05um(10.0, 2.0);
        let p = MosfetParams::p05um(10.0, 2.0);
        let n_fs = ProcessCorner::Fs.apply(n.clone());
        let p_fs = ProcessCorner::Fs.apply(p.clone());
        assert!(n_fs.vth0 < n.vth0, "fast NMOS in FS");
        assert!(p_fs.vth0 > p.vth0, "slow PMOS in FS");
    }

    #[test]
    fn validation_rejects_zero_coefficients() {
        let m = PelgromModel {
            a_vt_mv_um: 0.0,
            a_beta_pct_um: 1.0,
        };
        assert!(m.validate().is_err());
    }
}
