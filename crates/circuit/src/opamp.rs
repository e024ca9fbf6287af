//! Single-pole operational amplifier model.
//!
//! Used for the electrode-potential regulation loop of the DNA pixel
//! (paper Fig. 3: "regulation loop" around the sensor electrode) and the
//! difference-current nulling loop A/M3/M4 of the neural pixel (Fig. 6).

use crate::error::{require_positive, CircuitError};
use bsa_units::{Hertz, Seconds, Volt};

/// Behavioural op-amp: finite DC gain, single-pole dynamics set by the
/// gain–bandwidth product, slew-rate limiting, output clamping and input
/// offset.
#[derive(Debug, Clone, PartialEq)]
pub struct OpAmp {
    dc_gain: f64,
    gbw: Hertz,
    slew_rate_v_per_s: f64,
    v_out_min: Volt,
    v_out_max: Volt,
    offset: Volt,
    v_out: Volt,
}

/// Builder-style configuration for [`OpAmp`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpAmpSpec {
    /// Open-loop DC gain (V/V).
    pub dc_gain: f64,
    /// Gain–bandwidth product.
    pub gbw: Hertz,
    /// Slew rate in V/s.
    pub slew_rate_v_per_s: f64,
    /// Lower output rail.
    pub v_out_min: Volt,
    /// Upper output rail.
    pub v_out_max: Volt,
    /// Input-referred offset voltage.
    pub offset: Volt,
}

impl Default for OpAmpSpec {
    /// A modest 5 V-rail amplifier: 80 dB gain, 10 MHz GBW, 5 V/µs slew.
    fn default() -> Self {
        Self {
            dc_gain: 10_000.0,
            gbw: Hertz::from_mega(10.0),
            slew_rate_v_per_s: 5e6,
            v_out_min: Volt::ZERO,
            v_out_max: Volt::new(5.0),
            offset: Volt::ZERO,
        }
    }
}

impl OpAmp {
    /// Creates an op-amp from its specification.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if gain, GBW or slew rate are not positive,
    /// or if the output rails are inverted.
    pub fn new(spec: OpAmpSpec) -> Result<Self, CircuitError> {
        require_positive("dc gain", spec.dc_gain)?;
        require_positive("gain-bandwidth product", spec.gbw.value())?;
        require_positive("slew rate", spec.slew_rate_v_per_s)?;
        if spec.v_out_min >= spec.v_out_max {
            return Err(CircuitError::OutOfRange {
                name: "output rails",
                value: spec.v_out_min.value(),
                min: f64::NEG_INFINITY,
                max: spec.v_out_max.value(),
            });
        }
        let start = Volt::new(0.5 * (spec.v_out_min.value() + spec.v_out_max.value()));
        Ok(Self {
            dc_gain: spec.dc_gain,
            gbw: spec.gbw,
            slew_rate_v_per_s: spec.slew_rate_v_per_s,
            v_out_min: spec.v_out_min,
            v_out_max: spec.v_out_max,
            offset: spec.offset,
            v_out: start,
        })
    }

    /// Present output voltage.
    pub fn output(&self) -> Volt {
        self.v_out
    }

    /// Forces the output state (e.g. at power-up).
    pub fn set_output(&mut self, v: Volt) {
        self.v_out = v.clamp(self.v_out_min, self.v_out_max);
    }

    /// The input-referred offset.
    pub fn offset(&self) -> Volt {
        self.offset
    }

    /// Advances the amplifier by `dt` with the given differential input,
    /// returning the new output voltage.
    ///
    /// The open-loop dynamics are first-order with time constant
    /// τ = A₀ / (2π·GBW); the target A₀·(v_p − v_n + offset) is approached
    /// exponentially, limited by the slew rate and clamped to the rails.
    pub fn step(&mut self, v_plus: Volt, v_minus: Volt, dt: Seconds) -> Volt {
        let vid = v_plus - v_minus + self.offset;
        // The unclamped small-signal target A₀·vid: clamping happens at the
        // output stage, not here, so a large differential input produces
        // the full 2π·GBW·vid ramp rate and can hit the slew limit.
        let target = self.dc_gain * vid.value();
        let tau = self.dc_gain / (2.0 * std::f64::consts::PI * self.gbw.value());
        let alpha = 1.0 - (-dt.value() / tau).exp();
        let mut dv = (target - self.v_out.value()) * alpha;
        // Slew limiting.
        let max_dv = self.slew_rate_v_per_s * dt.value();
        dv = dv.clamp(-max_dv, max_dv);
        self.v_out = Volt::new(
            (self.v_out.value() + dv).clamp(self.v_out_min.value(), self.v_out_max.value()),
        );
        self.v_out
    }

    /// Ideal closed-loop settled output for a follower-style loop where the
    /// amplifier drives a plant with feedback factor `beta`: the steady
    /// state of `step` iterated to convergence, without simulating.
    ///
    /// v_out = A·(v_in − β·v_out + offset) ⇒
    /// v_out = A·(v_in + offset) / (1 + A·β), clamped to the rails.
    pub fn settled_output(&self, v_in: Volt, beta: f64) -> Volt {
        let a = self.dc_gain;
        let v = a * (v_in.value() + self.offset.value()) / (1.0 + a * beta);
        Volt::new(v.clamp(self.v_out_min.value(), self.v_out_max.value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amp() -> OpAmp {
        OpAmp::new(OpAmpSpec::default()).unwrap()
    }

    #[test]
    fn rejects_inverted_rails() {
        let spec = OpAmpSpec {
            v_out_min: Volt::new(5.0),
            v_out_max: Volt::new(0.0),
            ..OpAmpSpec::default()
        };
        assert!(OpAmp::new(spec).is_err());
    }

    #[test]
    fn unity_follower_settles_to_input() {
        // v_minus tied to v_out: classic voltage follower.
        let mut a = amp();
        let v_in = Volt::new(1.7);
        let dt = Seconds::from_nano(10.0);
        for _ in 0..100_000 {
            let out = a.output();
            a.step(v_in, out, dt);
        }
        let err = (a.output() - v_in).abs();
        // Finite gain error ≈ v_in / A0.
        assert!(err.value() < 2.0 * v_in.value() / 10_000.0, "err = {err}");
    }

    #[test]
    fn settled_output_matches_iterated_follower() {
        let mut a = amp();
        let v_in = Volt::new(2.2);
        let analytic = a.settled_output(v_in, 1.0);
        let dt = Seconds::from_nano(10.0);
        for _ in 0..100_000 {
            let out = a.output();
            a.step(v_in, out, dt);
        }
        assert!((a.output() - analytic).abs().value() < 1e-3);
    }

    #[test]
    fn slew_rate_limits_large_steps() {
        let mut a = amp();
        a.set_output(Volt::ZERO);
        let dt = Seconds::from_micro(0.1);
        // Huge differential input: output must rise at the slew rate.
        a.step(Volt::new(5.0), Volt::ZERO, dt);
        let dv = a.output().value();
        assert!((dv - 5e6 * 0.1e-6).abs() < 1e-9, "dv = {dv}");
    }

    #[test]
    fn output_clamps_to_rails() {
        let mut a = amp();
        let dt = Seconds::from_micro(10.0);
        for _ in 0..1000 {
            a.step(Volt::new(5.0), Volt::ZERO, dt);
        }
        assert!(a.output() <= Volt::new(5.0));
        for _ in 0..1000 {
            a.step(Volt::ZERO, Volt::new(5.0), dt);
        }
        assert!(a.output() >= Volt::ZERO);
    }

    #[test]
    fn offset_appears_at_output_of_follower() {
        let spec = OpAmpSpec {
            offset: Volt::from_milli(5.0),
            ..OpAmpSpec::default()
        };
        let a = OpAmp::new(spec).unwrap();
        let out = a.settled_output(Volt::new(1.0), 1.0);
        assert!((out.value() - 1.005).abs() < 1e-3, "out = {out}");
    }

    #[test]
    fn bandwidth_sets_settling_speed() {
        // A 10× larger GBW settles in ~10× fewer steps to the same error.
        let steps_to_settle = |gbw: Hertz| -> usize {
            let mut a = OpAmp::new(OpAmpSpec {
                gbw,
                slew_rate_v_per_s: 1e12,
                ..OpAmpSpec::default()
            })
            .unwrap();
            a.set_output(Volt::ZERO);
            let dt = Seconds::from_nano(1.0);
            let target = Volt::new(1.0);
            for k in 0..10_000_000 {
                let out = a.output();
                a.step(target, out, dt);
                if (a.output() - target).abs().value() < 1e-3 {
                    return k;
                }
            }
            usize::MAX
        };
        let slow = steps_to_settle(Hertz::from_mega(1.0));
        let fast = steps_to_settle(Hertz::from_mega(10.0));
        let ratio = slow as f64 / fast as f64;
        assert!(ratio > 5.0 && ratio < 20.0, "ratio = {ratio}");
    }
}
