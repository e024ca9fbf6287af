//! Binary-weighted D/A converter.
//!
//! The DNA chip's periphery contains "D/A-converters to provide the
//! required voltages for the electrochemical operation" (paper Section 2):
//! the working-electrode potential, the redox-cycling collector potential,
//! and the counter-electrode bias all come from on-chip DACs referenced to
//! the bandgap.

use crate::error::{require_in_range, require_positive, CircuitError};
use bsa_rng::{GaussianSampler, SmallRng};
use bsa_units::Volt;

/// Binary-weighted voltage DAC with per-element mismatch.
///
/// Output for code `d`: `v_lo + (v_hi − v_lo) · Σ w_k·b_k / Σ w_k` where the
/// weights `w_k = 2^k·(1 + ε_k)` carry static element errors, giving the
/// converter realistic INL/DNL.
#[derive(Debug, Clone, PartialEq)]
pub struct Dac {
    bits: u8,
    v_lo: Volt,
    v_hi: Volt,
    weights: Vec<f64>,
}

impl Dac {
    /// Creates an ideal DAC with `bits` resolution over `[v_lo, v_hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if `bits` is 0 or above 24, or the range is
    /// empty.
    pub fn new(bits: u8, v_lo: Volt, v_hi: Volt) -> Result<Self, CircuitError> {
        require_in_range("dac bits", bits as f64, 1.0, 24.0)?;
        require_positive("dac range", (v_hi - v_lo).value())?;
        let weights = (0..bits).map(|k| (1u64 << k) as f64).collect();
        Ok(Self {
            bits,
            v_lo,
            v_hi,
            weights,
        })
    }

    /// Applies Gaussian element mismatch with relative sigma
    /// `sigma_rel/√(weight)` per element (larger elements match better, as
    /// for unit-element layouts).
    #[must_use]
    pub fn with_element_mismatch(mut self, sigma_rel: f64, rng: &mut SmallRng) -> Self {
        let mut g = GaussianSampler::new();
        for (k, w) in self.weights.iter_mut().enumerate() {
            let ideal = (1u64 << k) as f64;
            let sigma = sigma_rel / ideal.sqrt();
            *w = ideal * (1.0 + sigma * g.sample(rng));
        }
        self
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of codes, 2^bits.
    pub fn codes(&self) -> u32 {
        1u32 << self.bits
    }

    /// Ideal LSB size.
    pub fn lsb(&self) -> Volt {
        (self.v_hi - self.v_lo) / (self.codes() - 1) as f64
    }

    /// Output voltage for a code.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 2^bits`.
    pub fn output(&self, code: u32) -> Volt {
        assert!(code < self.codes(), "DAC code {code} out of range");
        let total: f64 = self.weights.iter().sum();
        let mut acc = 0.0;
        for (k, w) in self.weights.iter().enumerate() {
            if code & (1 << k) != 0 {
                acc += w;
            }
        }
        self.v_lo + (self.v_hi - self.v_lo) * (acc / total)
    }

    /// Code whose output is closest to the requested voltage.
    pub fn code_for(&self, v: Volt) -> u32 {
        let ideal = ((v - self.v_lo) / self.lsb()).round();
        (ideal.max(0.0) as u32).min(self.codes() - 1)
    }

    /// Integral nonlinearity per code, in LSB.
    pub fn inl(&self) -> Vec<f64> {
        let lsb = self.lsb().value();
        (0..self.codes())
            .map(|c| {
                let ideal = self.v_lo.value() + lsb * c as f64;
                (self.output(c).value() - ideal) / lsb
            })
            .collect()
    }

    /// Differential nonlinearity per code transition, in LSB.
    pub fn dnl(&self) -> Vec<f64> {
        let lsb = self.lsb().value();
        (1..self.codes())
            .map(|c| (self.output(c).value() - self.output(c - 1).value()) / lsb - 1.0)
            .collect()
    }

    /// Worst-case |INL| in LSB.
    pub fn max_inl(&self) -> f64 {
        self.inl().iter().fold(0.0, |m, x| m.max(x.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_dac_endpoints() {
        let d = Dac::new(8, Volt::ZERO, Volt::new(2.55)).unwrap();
        assert_eq!(d.output(0), Volt::ZERO);
        assert!((d.output(255) - Volt::new(2.55)).abs().value() < 1e-12);
    }

    #[test]
    fn ideal_dac_is_monotone_with_uniform_steps() {
        let d = Dac::new(6, Volt::ZERO, Volt::new(1.0)).unwrap();
        let dnl = d.dnl();
        assert!(dnl.iter().all(|x| x.abs() < 1e-9));
        assert!(d.max_inl() < 1e-9);
    }

    #[test]
    fn code_for_inverts_output() {
        let d = Dac::new(10, Volt::new(0.5), Volt::new(4.5)).unwrap();
        for code in [0u32, 17, 511, 1023] {
            let v = d.output(code);
            assert_eq!(d.code_for(v), code);
        }
    }

    #[test]
    fn code_for_clamps() {
        let d = Dac::new(8, Volt::new(1.0), Volt::new(2.0)).unwrap();
        assert_eq!(d.code_for(Volt::ZERO), 0);
        assert_eq!(d.code_for(Volt::new(5.0)), 255);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn output_rejects_bad_code() {
        let d = Dac::new(4, Volt::ZERO, Volt::new(1.0)).unwrap();
        d.output(16);
    }

    #[test]
    fn mismatch_creates_bounded_inl() {
        let mut rng = SmallRng::seed_from_u64(21);
        let d = Dac::new(8, Volt::ZERO, Volt::new(2.5))
            .unwrap()
            .with_element_mismatch(0.01, &mut rng);
        let inl = d.max_inl();
        assert!(inl > 0.0, "mismatch must produce nonzero INL");
        assert!(
            inl < 4.0,
            "1 % elements keep INL within a few LSB, got {inl}"
        );
    }

    #[test]
    fn mismatch_is_static_per_instance() {
        let mut rng = SmallRng::seed_from_u64(22);
        let d = Dac::new(8, Volt::ZERO, Volt::new(2.5))
            .unwrap()
            .with_element_mismatch(0.01, &mut rng);
        assert_eq!(d.output(100), d.output(100));
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(Dac::new(0, Volt::ZERO, Volt::new(1.0)).is_err());
        assert!(Dac::new(25, Volt::ZERO, Volt::new(1.0)).is_err());
        assert!(Dac::new(8, Volt::new(1.0), Volt::new(1.0)).is_err());
        assert!(Dac::new(8, Volt::new(2.0), Volt::new(1.0)).is_err());
    }

    #[test]
    fn lsb_matches_range() {
        let d = Dac::new(8, Volt::ZERO, Volt::new(2.55)).unwrap();
        assert!((d.lsb().as_milli() - 10.0).abs() < 1e-9);
    }
}
