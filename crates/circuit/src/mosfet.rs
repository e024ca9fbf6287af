//! EKV-style long-channel MOSFET model.
//!
//! The model is continuous from weak inversion (subthreshold, exponential)
//! through moderate to strong inversion (square law), using the EKV
//! forward/reverse-current formulation:
//!
//! ```text
//! i_f,r = ln²(1 + exp((V_P − V_{S,D}) / 2·U_T))
//! I_D   = 2·n·β·U_T² · (i_f − i_r) · (1 + λ·V_DS)
//! V_P   = (V_GS_eff − V_T0) / n
//! ```
//!
//! Continuity across five decades of current is essential here: the DNA
//! microarray's sensor currents range from 1 pA (deep subthreshold for any
//! reasonably sized device) to 100 nA, and the neural chip's calibration
//! loop equalizes currents near moderate inversion.

use crate::error::{require_positive, CircuitError};
use bsa_units::consts::thermal_voltage;
use bsa_units::{Ampere, Kelvin, Siemens, Volt};
use std::sync::Arc;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Physical and electrical parameters of a MOSFET.
///
/// All voltages are referred to the source-bulk-shorted configuration; the
/// model handles polarity internally so that a PMOS device can be driven
/// with the same positive-down conventions used in the chip netlists.
#[derive(Debug, Clone, PartialEq)]
pub struct MosfetParams {
    /// Device polarity.
    pub polarity: Polarity,
    /// Channel width in µm.
    pub width_um: f64,
    /// Channel length in µm.
    pub length_um: f64,
    /// Zero-bias threshold voltage (magnitude).
    pub vth0: Volt,
    /// Process transconductance µ·C_ox in A/V².
    pub kp: f64,
    /// Subthreshold slope factor n (typically 1.2 … 1.6).
    pub slope_factor: f64,
    /// Channel-length modulation λ in 1/V.
    pub lambda: f64,
    /// Junction/subthreshold leakage floor in amperes (drain-source off
    /// leakage at V_GS = 0), scaled by W/L.
    pub leakage_floor: Ampere,
    /// Operating temperature.
    pub temperature: Kelvin,
    /// Threshold temperature coefficient in V/K (V_T falls with T;
    /// typically 0.5–2 mV/K).
    pub vth_tempco_v_per_k: f64,
    /// Mobility temperature exponent: kp scales as (T/T₀)^−m, m ≈ 1.5.
    pub mobility_temp_exponent: f64,
}

impl MosfetParams {
    /// Parameters typical of the paper's 0.5 µm / 5 V / t_ox = 15 nm CMOS
    /// process (Fig. 4 caption) for an NMOS of the given W/L in µm.
    ///
    /// # Examples
    ///
    /// ```
    /// use bsa_circuit::mosfet::MosfetParams;
    /// let p = MosfetParams::n05um(10.0, 2.0);
    /// assert_eq!(p.width_um, 10.0);
    /// ```
    pub fn n05um(width_um: f64, length_um: f64) -> Self {
        Self {
            polarity: Polarity::Nmos,
            width_um,
            length_um,
            vth0: Volt::new(0.7),
            // µn·Cox for tox = 15 nm: Cox ≈ 2.3 fF/µm², µn ≈ 500 cm²/Vs.
            kp: 115e-6,
            slope_factor: 1.35,
            lambda: 0.03,
            leakage_floor: Ampere::from_femto(10.0),
            temperature: bsa_units::consts::ROOM_TEMPERATURE,
            vth_tempco_v_per_k: 1e-3,
            mobility_temp_exponent: 1.5,
        }
    }

    /// PMOS counterpart of [`MosfetParams::n05um`].
    pub fn p05um(width_um: f64, length_um: f64) -> Self {
        Self {
            polarity: Polarity::Pmos,
            vth0: Volt::new(0.8),
            kp: 40e-6,
            ..Self::n05um(width_um, length_um)
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if any geometric or process parameter is
    /// non-positive or non-finite.
    pub fn validate(&self) -> Result<(), CircuitError> {
        require_positive("channel width", self.width_um)?;
        require_positive("channel length", self.length_um)?;
        require_positive("process transconductance", self.kp)?;
        require_positive("slope factor", self.slope_factor)?;
        require_positive("temperature", self.temperature.value())?;
        if !self.lambda.is_finite() || self.lambda < 0.0 {
            return Err(CircuitError::NonPositiveParameter {
                name: "lambda",
                value: self.lambda,
            });
        }
        Ok(())
    }

    /// Gate area W·L in µm².
    pub fn gate_area_um2(&self) -> f64 {
        self.width_um * self.length_um
    }

    /// Aspect ratio W/L.
    pub fn aspect_ratio(&self) -> f64 {
        self.width_um / self.length_um
    }
}

/// An instance of a MOSFET with (optionally mismatched) parameters.
///
/// Construct nominal devices with [`Mosfet::try_new`]; per-device threshold and
/// gain mismatch is applied by [`Mosfet::with_mismatch`] (typically sampled
/// from [`crate::mismatch::PelgromModel`]).
///
/// The parameter set sits behind an [`Arc`]: cloning a device, as
/// [`crate::mismatch::PelgromModel::instantiate`] does for every sampled
/// instance, shares one parameter block, so an array of mismatched copies
/// stores only its ΔV_T and Δβ per device.
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    params: Arc<MosfetParams>,
    delta_vth: Volt,
    beta_rel_err: f64,
}

impl Mosfet {
    /// Creates a nominal device (no mismatch).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if the parameters are invalid.
    pub fn try_new(params: MosfetParams) -> Result<Self, CircuitError> {
        params.validate()?;
        Ok(Self {
            params: Arc::new(params),
            delta_vth: Volt::ZERO,
            beta_rel_err: 0.0,
        })
    }

    /// Returns a copy of this device with the given threshold-voltage offset
    /// and relative current-factor error applied.
    #[must_use]
    pub fn with_mismatch(mut self, delta_vth: Volt, beta_rel_err: f64) -> Self {
        self.delta_vth = delta_vth;
        self.beta_rel_err = beta_rel_err;
        self
    }

    /// The underlying parameter set.
    pub fn params(&self) -> &MosfetParams {
        &self.params
    }

    /// Effective threshold voltage including mismatch and the threshold
    /// temperature coefficient (referred to 300 K).
    pub fn vth(&self) -> Volt {
        let dt = self.params.temperature.value() - 300.0;
        self.params.vth0 + self.delta_vth - Volt::new(self.params.vth_tempco_v_per_k * dt)
    }

    /// Threshold mismatch of this instance.
    pub fn delta_vth(&self) -> Volt {
        self.delta_vth
    }

    /// Current factor β = kp·W/L including mismatch and the mobility
    /// temperature dependence (T/300 K)^−m, in A/V².
    pub fn beta(&self) -> f64 {
        let t_ratio = self.params.temperature.value() / 300.0;
        self.params.kp
            * self.params.aspect_ratio()
            * (1.0 + self.beta_rel_err)
            * t_ratio.powf(-self.params.mobility_temp_exponent)
    }

    /// Drain current for the given terminal voltages (V_G, V_S, V_D relative
    /// to bulk). For PMOS devices pass the same "positive-down" voltages
    /// used in an NMOS netlist; the model mirrors internally.
    ///
    /// The result is the EKV channel current plus the leakage floor, with
    /// channel-length modulation applied in the forward direction.
    ///
    /// # Examples
    ///
    /// ```
    /// use bsa_circuit::mosfet::{Mosfet, MosfetParams};
    /// use bsa_units::Volt;
    ///
    /// let m = Mosfet::try_new(MosfetParams::n05um(10.0, 2.0))?;
    /// // Subthreshold: tiny current; strong inversion: much larger.
    /// let weak = m.drain_current(Volt::new(0.4), Volt::ZERO, Volt::new(2.0));
    /// let strong = m.drain_current(Volt::new(2.0), Volt::ZERO, Volt::new(2.0));
    /// assert!(weak.value() < 1e-8);
    /// assert!(strong.value() > 1e-4);
    /// # Ok::<(), bsa_circuit::CircuitError>(())
    /// ```
    pub fn drain_current(&self, vg: Volt, vs: Volt, vd: Volt) -> Ampere {
        let (vg, vs, vd) = match self.params.polarity {
            Polarity::Nmos => (vg.value(), vs.value(), vd.value()),
            // Mirror: a PMOS with source at VDD behaves like an NMOS with
            // all voltages negated.
            Polarity::Pmos => (-vg.value(), -vs.value(), -vd.value()),
        };
        Ampere::new(self.op_consts().current(vg, vs, vd))
    }

    /// Precomputes the bias-independent model constants (threshold, slope
    /// factor, specific current, leakage floor) so repeated evaluations —
    /// the calibration solver's inner loop — skip the temperature
    /// corrections (`powf`) hidden in [`Mosfet::beta`] and [`Mosfet::vth`].
    fn op_consts(&self) -> OpConsts {
        let ut = thermal_voltage(self.params.temperature).value();
        let n = self.params.slope_factor;
        OpConsts {
            ut,
            n,
            vth: self.vth().value(),
            i_spec: 2.0 * n * self.beta() * ut * ut,
            lambda: self.params.lambda,
            leak: self.params.leakage_floor.value() * self.params.aspect_ratio(),
        }
    }

    /// Gate transconductance g_m = ∂I_D/∂V_G at the given bias, evaluated
    /// analytically from the EKV formulation.
    ///
    /// With i_f,r = ln1pexp(x_f,r)² and x_f,r = (V_P − V_{S,D})/(2·U_T),
    /// ∂i/∂V_G = ln1pexp(x)·σ(x)/(n·U_T) (σ is the logistic function, the
    /// derivative of ln1pexp), so
    ///
    /// ```text
    /// g_m = I_spec·CLM·(L(x_f)·σ(x_f) − L(x_r)·σ(x_r)) / (n·U_T)
    /// ```
    ///
    /// The leakage floor has no V_G dependence and drops out. The PMOS
    /// mirror negates all terminal voltages, so by the chain rule its g_m in
    /// the shared positive-down driving convention is the negated mirrored
    /// derivative — matching the sign the numeric difference produces.
    ///
    /// This is one transcendental pair instead of the two full
    /// `drain_current` solves of symmetric numeric differentiation, and it
    /// is exact (no truncation error) in every inversion region.
    pub fn gm(&self, vg: Volt, vs: Volt, vd: Volt) -> Siemens {
        let (vg, vs, vd, sign) = match self.params.polarity {
            Polarity::Nmos => (vg.value(), vs.value(), vd.value(), 1.0),
            Polarity::Pmos => (-vg.value(), -vs.value(), -vd.value(), -1.0),
        };
        Siemens::new(sign * self.op_consts().gm(vg, vs, vd))
    }

    /// Drain current and gate transconductance at one bias point, sharing
    /// a single constants evaluation. Bitwise identical to calling
    /// [`Mosfet::drain_current`] and [`Mosfet::gm`] separately; exists for
    /// per-pixel hot paths (whole-array linearization) where the repeated
    /// temperature corrections would dominate.
    pub fn current_and_gm(&self, vg: Volt, vs: Volt, vd: Volt) -> (Ampere, Siemens) {
        let (vg, vs, vd, sign) = match self.params.polarity {
            Polarity::Nmos => (vg.value(), vs.value(), vd.value(), 1.0),
            Polarity::Pmos => (-vg.value(), -vs.value(), -vd.value(), -1.0),
        };
        let c = self.op_consts();
        (
            Ampere::new(c.current(vg, vs, vd)),
            Siemens::new(sign * c.gm(vg, vs, vd)),
        )
    }

    /// Output conductance g_ds = ∂I_D/∂V_D at the given bias.
    pub fn gds(&self, vg: Volt, vs: Volt, vd: Volt) -> Siemens {
        let dv = 1e-5;
        let hi = self.drain_current(vg, vs, vd + Volt::new(dv));
        let lo = self.drain_current(vg, vs, vd - Volt::new(dv));
        Siemens::new((hi.value() - lo.value()) / (2.0 * dv))
    }

    /// Solves for the gate voltage that makes the device conduct `target`
    /// with the given source/drain bias, by bisection over `[vg_lo, vg_hi]`.
    ///
    /// This is exactly the operation the neural chip's calibration switch S1
    /// performs physically: diode-connecting the sensor transistor until its
    /// current equals the reference (paper Fig. 6, M1/M2/S1).
    ///
    /// Returns `None` if the target is not bracketed by the search range.
    pub fn gate_voltage_for_current(
        &self,
        target: Ampere,
        vs: Volt,
        vd: Volt,
        vg_lo: Volt,
        vg_hi: Volt,
    ) -> Option<Volt> {
        // Work in the mirrored (NMOS) frame: for PMOS the gate axis flips
        // sign along with the terminals, so the real-frame bracket
        // [vg_lo, vg_hi] becomes [−vg_hi, −vg_lo].
        let (sign, vs, vd, lo, hi) = match self.params.polarity {
            Polarity::Nmos => (1.0, vs.value(), vd.value(), vg_lo.value(), vg_hi.value()),
            Polarity::Pmos => (
                -1.0,
                -vs.value(),
                -vd.value(),
                -vg_hi.value(),
                -vg_lo.value(),
            ),
        };
        let c = self.op_consts();
        let f = |vg: f64| c.current(vg, vs, vd) - target.value();
        let (mut lo, mut hi) = (lo, hi);
        let (flo, fhi) = (f(lo), f(hi));
        if flo.signum() == fhi.signum() {
            return None;
        }
        // Safeguarded Newton: quadratic convergence from any seed inside the
        // bracket (the EKV I_D is smooth and monotone in V_G), falling back
        // to a bisection step whenever the Newton step leaves the bracket or
        // the derivative is too flat (deep subthreshold against the leakage
        // floor). Seeded with the closed-form saturation inverse, it
        // converges in ~5 evaluations where plain bisection needed 60×:
        // this is the inner loop of whole-array calibration.
        let mut x = c
            .gate_seed(target.value(), vs, vd)
            .filter(|v| *v > lo && *v < hi)
            .unwrap_or(0.5 * (lo + hi));
        let mut fx = f(x);
        for _ in 0..80 {
            if fx == 0.0 || hi - lo <= f64::EPSILON * (1.0 + x.abs()) {
                break;
            }
            // Maintain the bracket around the root.
            if fx.signum() == flo.signum() {
                lo = x;
            } else {
                hi = x;
            }
            let g = c.gm(x, vs, vd);
            let newton = x - fx / g;
            // Accept Newton iterates on the bracket boundary (>=, <=): once
            // converged, the root IS one of the endpoints, and rejecting it
            // would degrade every remaining step to bisection.
            let next = if g.abs() > 0.0 && newton >= lo && newton <= hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            // Newton converges one-sided, so the bracket itself may never
            // collapse: a vanishing step is the convergence signal.
            if (next - x).abs() <= f64::EPSILON * (1.0 + x.abs()) {
                x = next;
                break;
            }
            x = next;
            fx = f(x);
        }
        Some(Volt::new(sign * x))
    }
}

/// Bias-independent EKV evaluation constants for one device instance, in
/// the mirrored (NMOS) frame. Produced by [`Mosfet::op_consts`] so hot
/// loops — the calibration gate solver above all — pay the temperature
/// corrections once instead of per evaluation. The expressions below are
/// kept term-for-term identical to the historical inline forms, so results
/// are bitwise unchanged.
#[derive(Debug, Clone, Copy)]
struct OpConsts {
    ut: f64,
    n: f64,
    vth: f64,
    i_spec: f64,
    lambda: f64,
    leak: f64,
}

impl OpConsts {
    /// EKV drain current (channel + leakage floor) at the given mirrored
    /// terminal voltages, in amperes.
    fn current(&self, vg: f64, vs: f64, vd: f64) -> f64 {
        let vp = (vg - self.vth) / self.n;
        let i_f = ln1pexp((vp - vs) / (2.0 * self.ut)).powi(2);
        let i_r = ln1pexp((vp - vd) / (2.0 * self.ut)).powi(2);
        let vds = vd - vs;
        let clm = 1.0 + self.lambda * vds.max(0.0);
        let channel = self.i_spec * (i_f - i_r) * clm;
        channel + self.leak * sgn(vds)
    }

    /// Analytic gate transconductance ∂I_D/∂V_G in the mirrored frame.
    fn gm(&self, vg: f64, vs: f64, vd: f64) -> f64 {
        let vp = (vg - self.vth) / self.n;
        let xf = (vp - vs) / (2.0 * self.ut);
        let xr = (vp - vd) / (2.0 * self.ut);
        let vds = vd - vs;
        let clm = 1.0 + self.lambda * vds.max(0.0);
        let slope = ln1pexp(xf) * logistic(xf) - ln1pexp(xr) * logistic(xr);
        self.i_spec * clm * slope / (self.n * self.ut)
    }

    /// Closed-form gate-voltage estimate for a target drain current,
    /// neglecting the reverse channel term (exact in saturation): inverts
    /// `I = i_spec·clm·ln1pexp(x_f)² + leak` via `ln1pexp⁻¹(y) =
    /// y + ln(1 − e⁻ʸ)`. Returns `None` when the leakage-corrected target
    /// is non-positive (no forward-channel solution to seed from).
    fn gate_seed(&self, target: f64, vs: f64, vd: f64) -> Option<f64> {
        let vds = vd - vs;
        let clm = 1.0 + self.lambda * vds.max(0.0);
        let q = (target - self.leak * sgn(vds)) / (self.i_spec * clm);
        if q.is_nan() || q <= 0.0 {
            return None;
        }
        let y = q.sqrt();
        let a = y + (-(-y).exp()).ln_1p();
        let vp = vs + 2.0 * self.ut * a;
        let vg = self.n * vp + self.vth;
        vg.is_finite().then_some(vg)
    }
}

/// Numerically stable ln(1 + eˣ).
fn ln1pexp(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Numerically stable logistic σ(x) = 1/(1 + e⁻ˣ), the derivative of
/// [`ln1pexp`].
fn logistic(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn sgn(x: f64) -> f64 {
    if x >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> Mosfet {
        Mosfet::try_new(MosfetParams::n05um(10.0, 2.0)).unwrap()
    }

    #[test]
    fn rejects_bad_geometry() {
        let mut p = MosfetParams::n05um(10.0, 2.0);
        p.width_um = 0.0;
        assert!(Mosfet::try_new(p).is_err());
    }

    #[test]
    fn subthreshold_is_exponential() {
        // In weak inversion, I_D should grow ~ exp(VG/(n·UT)): a 60·n mV
        // gate step is one decade.
        let m = nominal();
        let n = m.params().slope_factor;
        let ut = thermal_voltage(m.params().temperature).value();
        let decade_step = n * ut * std::f64::consts::LN_10;
        let i1 = m.drain_current(Volt::new(0.40), Volt::ZERO, Volt::new(2.0));
        let i2 = m.drain_current(Volt::new(0.40 + decade_step), Volt::ZERO, Volt::new(2.0));
        let ratio = i2.value() / i1.value();
        assert!((ratio - 10.0).abs() < 0.8, "ratio = {ratio}");
    }

    #[test]
    fn strong_inversion_is_square_law() {
        // Far above threshold, I_D ∝ (VG−VT)² approximately.
        let m = nominal();
        let vt = m.vth().value();
        let i1 = m.drain_current(Volt::new(vt + 1.0), Volt::ZERO, Volt::new(4.0));
        let i2 = m.drain_current(Volt::new(vt + 2.0), Volt::ZERO, Volt::new(4.0));
        let ratio = i2.value() / i1.value();
        assert!((ratio - 4.0).abs() < 0.5, "ratio = {ratio}");
    }

    #[test]
    fn current_is_continuous_and_monotone_in_vg() {
        let m = nominal();
        let mut last = f64::NEG_INFINITY;
        for k in 0..500 {
            let vg = Volt::new(k as f64 * 0.01);
            let i = m.drain_current(vg, Volt::ZERO, Volt::new(2.5)).value();
            assert!(i.is_finite());
            assert!(i >= last, "non-monotone at vg = {vg}");
            last = i;
        }
    }

    #[test]
    fn saturation_flattens_with_vd() {
        let m = nominal();
        let vg = Volt::new(1.5);
        let i_lin = m.drain_current(vg, Volt::ZERO, Volt::new(0.1));
        let i_sat1 = m.drain_current(vg, Volt::ZERO, Volt::new(2.0));
        let i_sat2 = m.drain_current(vg, Volt::ZERO, Volt::new(2.5));
        assert!(i_lin < i_sat1);
        // In saturation only λ modulation remains: small relative change.
        let rel = (i_sat2.value() - i_sat1.value()) / i_sat1.value();
        assert!(rel > 0.0 && rel < 0.05, "rel = {rel}");
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let n = Mosfet::try_new(MosfetParams::n05um(10.0, 2.0)).unwrap();
        let mut pp = MosfetParams::p05um(10.0, 2.0);
        // Give the PMOS identical kp/vth so the mirror symmetry is exact.
        pp.kp = n.params().kp;
        pp.vth0 = n.params().vth0;
        let p = Mosfet::try_new(pp).unwrap();
        let i_n = n.drain_current(Volt::new(1.5), Volt::ZERO, Volt::new(2.0));
        let i_p = p.drain_current(Volt::new(-1.5), Volt::ZERO, Volt::new(-2.0));
        assert!((i_n.value() - i_p.value()).abs() / i_n.value() < 1e-9);
    }

    #[test]
    fn gm_positive_and_tracks_current() {
        let m = nominal();
        let gm_weak = m.gm(Volt::new(0.5), Volt::ZERO, Volt::new(2.0));
        let gm_strong = m.gm(Volt::new(2.0), Volt::ZERO, Volt::new(2.0));
        assert!(gm_weak.value() > 0.0);
        assert!(gm_strong > gm_weak);
    }

    #[test]
    fn gm_over_id_weak_inversion_limit() {
        // gm/ID → 1/(n·UT) in weak inversion: the theoretical maximum.
        let m = nominal();
        let vg = Volt::new(0.35);
        let id = m.drain_current(vg, Volt::ZERO, Volt::new(2.0));
        let gm = m.gm(vg, Volt::ZERO, Volt::new(2.0));
        let ut = thermal_voltage(m.params().temperature).value();
        let expected = 1.0 / (m.params().slope_factor * ut);
        let got = gm.value() / id.value();
        assert!((got - expected).abs() / expected < 0.15, "gm/ID = {got}");
    }

    #[test]
    fn analytic_gm_matches_numeric_differentiation() {
        // The analytic transconductance must agree with a symmetric numeric
        // difference of drain_current across weak, moderate, and strong
        // inversion, in triode and saturation, for both polarities. The
        // numeric truncation error is O(dv²·I'''), so agreement to ~1e-6
        // relative (with an absolute floor deep in subthreshold where both
        // are vanishingly small) bounds the analytic form tightly.
        let devices = [
            Mosfet::try_new(MosfetParams::n05um(10.0, 2.0)).unwrap(),
            Mosfet::try_new(MosfetParams::n05um(3.0, 0.6))
                .unwrap()
                .with_mismatch(Volt::from_milli(12.0), 0.03),
            Mosfet::try_new(MosfetParams::p05um(10.0, 2.0)).unwrap(),
            Mosfet::try_new(MosfetParams::p05um(4.0, 1.0))
                .unwrap()
                .with_mismatch(Volt::from_milli(-8.0), -0.02),
        ];
        for m in &devices {
            let mirror = match m.params().polarity {
                Polarity::Nmos => 1.0,
                Polarity::Pmos => -1.0,
            };
            for step in 0..=60 {
                let vg = Volt::new(mirror * (step as f64 * 0.05));
                for (vs, vd) in [
                    (Volt::ZERO, Volt::new(mirror * 0.05)),
                    (Volt::ZERO, Volt::new(mirror * 2.5)),
                    (Volt::new(mirror * 0.2), Volt::new(mirror * 2.0)),
                ] {
                    let analytic = m.gm(vg, vs, vd).value();
                    let dv = 1e-5;
                    let hi = m.drain_current(vg + Volt::new(dv), vs, vd).value();
                    let lo = m.drain_current(vg - Volt::new(dv), vs, vd).value();
                    let numeric = (hi - lo) / (2.0 * dv);
                    let tol = 1e-6 * numeric.abs().max(analytic.abs()) + 1e-15;
                    assert!(
                        (analytic - numeric).abs() <= tol,
                        "gm mismatch at vg={vg} vs={vs} vd={vd}: \
                         analytic={analytic:e} numeric={numeric:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn pmos_gm_sign_matches_numeric_convention() {
        // In the shared positive-down convention a PMOS conducts less as
        // V_G rises, so its gm is negative — the analytic form must keep
        // the same sign the numeric difference had.
        let p = Mosfet::try_new(MosfetParams::p05um(10.0, 2.0)).unwrap();
        let gm = p.gm(Volt::new(-1.5), Volt::ZERO, Volt::new(-2.0));
        assert!(gm.value() < 0.0, "gm = {gm:?}");
    }

    #[test]
    fn mismatch_shifts_threshold() {
        let m0 = nominal();
        let m1 = nominal().with_mismatch(Volt::from_milli(10.0), 0.0);
        let i0 = m0.drain_current(Volt::new(0.6), Volt::ZERO, Volt::new(2.0));
        let i1 = m1.drain_current(Volt::new(0.6), Volt::ZERO, Volt::new(2.0));
        // +10 mV VT at fixed VG reduces subthreshold current noticeably.
        assert!(i1 < i0);
        let ratio = i0.value() / i1.value();
        assert!(ratio > 1.15 && ratio < 1.55, "ratio = {ratio}");
    }

    #[test]
    fn beta_mismatch_scales_current() {
        let m0 = nominal();
        let m1 = nominal().with_mismatch(Volt::ZERO, 0.02);
        let bias = (Volt::new(2.0), Volt::ZERO, Volt::new(2.5));
        let (i0, i1) = (
            m0.drain_current(bias.0, bias.1, bias.2),
            m1.drain_current(bias.0, bias.1, bias.2),
        );
        let rel = (i1.value() - i0.value()) / i0.value();
        assert!((rel - 0.02).abs() < 2e-3, "rel = {rel}");
    }

    #[test]
    fn gate_solver_inverts_drain_current() {
        let m = nominal().with_mismatch(Volt::from_milli(-7.3), 0.01);
        let target = Ampere::from_micro(5.0);
        let vg = m
            .gate_voltage_for_current(
                target,
                Volt::ZERO,
                Volt::new(2.5),
                Volt::ZERO,
                Volt::new(5.0),
            )
            .expect("bracketed");
        let i = m.drain_current(vg, Volt::ZERO, Volt::new(2.5));
        assert!((i.value() - target.value()).abs() / target.value() < 1e-9);
    }

    #[test]
    fn gate_solver_rejects_unbracketed_target() {
        let m = nominal();
        // 1 A is far beyond what this device can conduct below 5 V.
        let res = m.gate_voltage_for_current(
            Ampere::new(1.0),
            Volt::ZERO,
            Volt::new(2.5),
            Volt::ZERO,
            Volt::new(5.0),
        );
        assert!(res.is_none());
    }

    #[test]
    fn leakage_floor_present_at_zero_vgs() {
        let m = nominal();
        let i = m.drain_current(Volt::ZERO, Volt::ZERO, Volt::new(2.0));
        assert!(i.value() > 0.0);
        assert!(i.value() < 1e-12);
    }

    #[test]
    fn temperature_raises_subthreshold_current() {
        // In weak inversion, higher T lowers V_T and raises U_T's reach:
        // the off-state current rises steeply with temperature.
        let cold = Mosfet::try_new(MosfetParams {
            temperature: Kelvin::new(280.0),
            ..MosfetParams::n05um(10.0, 2.0)
        })
        .unwrap();
        let hot = Mosfet::try_new(MosfetParams {
            temperature: Kelvin::new(350.0),
            ..MosfetParams::n05um(10.0, 2.0)
        })
        .unwrap();
        let bias = (Volt::new(0.45), Volt::ZERO, Volt::new(2.0));
        let i_cold = cold.drain_current(bias.0, bias.1, bias.2);
        let i_hot = hot.drain_current(bias.0, bias.1, bias.2);
        assert!(
            i_hot.value() > 3.0 * i_cold.value(),
            "cold {i_cold}, hot {i_hot}"
        );
    }

    #[test]
    fn temperature_lowers_strong_inversion_current() {
        // Far above threshold, mobility degradation dominates: I_D falls
        // with temperature.
        let cold = Mosfet::try_new(MosfetParams {
            temperature: Kelvin::new(280.0),
            ..MosfetParams::n05um(10.0, 2.0)
        })
        .unwrap();
        let hot = Mosfet::try_new(MosfetParams {
            temperature: Kelvin::new(350.0),
            ..MosfetParams::n05um(10.0, 2.0)
        })
        .unwrap();
        let bias = (Volt::new(4.0), Volt::ZERO, Volt::new(4.5));
        let i_cold = cold.drain_current(bias.0, bias.1, bias.2);
        let i_hot = hot.drain_current(bias.0, bias.1, bias.2);
        assert!(i_hot < i_cold, "cold {i_cold}, hot {i_hot}");
    }

    #[test]
    fn zero_tempco_point_exists_between_regimes() {
        // Somewhere between weak and strong inversion the two temperature
        // effects cancel (the ZTC bias used by temperature-stable designs):
        // the sign of dI/dT flips across the V_G range.
        let current_at = |vg: f64, t: f64| {
            Mosfet::try_new(MosfetParams {
                temperature: Kelvin::new(t),
                ..MosfetParams::n05um(10.0, 2.0)
            })
            .unwrap()
            .drain_current(Volt::new(vg), Volt::ZERO, Volt::new(4.0))
            .value()
        };
        let low_sign = (current_at(0.6, 330.0) - current_at(0.6, 300.0)).signum();
        let high_sign = (current_at(4.0, 330.0) - current_at(4.0, 300.0)).signum();
        assert_eq!(low_sign, 1.0);
        assert_eq!(high_sign, -1.0);
    }

    #[test]
    fn ln1pexp_is_stable() {
        assert_eq!(ln1pexp(1000.0), 1000.0);
        assert!(ln1pexp(-1000.0) >= 0.0);
        assert!((ln1pexp(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
