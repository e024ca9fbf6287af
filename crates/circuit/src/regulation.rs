//! The electrode-potential regulation loop (paper Fig. 3, left).
//!
//! "The voltage of the sensor electrode is controlled by a regulation loop
//! via an operational amplifier and a source follower transistor." The
//! op-amp compares the electrode potential against the DAC-provided
//! setpoint and drives the gate of a source-follower MOSFET whose source
//! feeds the electrode; the sensor current is then passed on to the
//! integrator. Holding the electrode potential steady across five decades
//! of current is what makes the electrochemistry well-defined.

use crate::error::CircuitError;
use crate::mosfet::{Mosfet, MosfetParams};
use crate::opamp::{OpAmp, OpAmpSpec};
use bsa_units::{Ampere, Farad, Seconds, Volt};

/// Closed-loop electrode-potential regulator: op-amp + source follower.
#[derive(Debug, Clone, PartialEq)]
pub struct RegulationLoop {
    amp: OpAmp,
    follower: Mosfet,
    /// Electrode node capacitance (double layer + wiring).
    electrode_cap: Farad,
    /// Present electrode potential.
    v_electrode: Volt,
    /// Supply rail feeding the follower drain.
    vdd: Volt,
}

impl RegulationLoop {
    /// Creates a regulator with the given op-amp spec, follower device and
    /// electrode capacitance.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if any sub-block rejects its parameters.
    pub fn new(
        amp_spec: OpAmpSpec,
        follower_params: MosfetParams,
        electrode_cap: Farad,
        vdd: Volt,
    ) -> Result<Self, CircuitError> {
        if electrode_cap.value() <= 0.0 {
            return Err(CircuitError::NonPositiveParameter {
                name: "electrode capacitance",
                value: electrode_cap.value(),
            });
        }
        Ok(Self {
            amp: OpAmp::new(amp_spec)?,
            follower: Mosfet::try_new(follower_params)?,
            electrode_cap,
            v_electrode: Volt::ZERO,
            vdd,
        })
    }

    /// A regulator sized like the DNA pixel's: default op-amp, 20/1 µm
    /// follower, 500 pF electrode (the double layer dominates).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if a sub-block rejects the defaults
    /// (cannot happen for the constants here, but fallible so no panic
    /// hides behind a public constructor).
    pub fn dna_pixel_default() -> Result<Self, CircuitError> {
        Self::new(
            OpAmpSpec::default(),
            MosfetParams::n05um(20.0, 1.0),
            Farad::from_pico(500.0),
            Volt::new(5.0),
        )
    }

    /// Present electrode potential.
    pub fn electrode_voltage(&self) -> Volt {
        self.v_electrode
    }

    /// Advances the loop by `dt`: the op-amp drives the follower gate, the
    /// follower sources current into the electrode node, and the sensor
    /// (electrochemical) current `i_sensor` discharges it.
    ///
    /// Returns the current delivered by the follower during this step —
    /// in steady state it equals the sensor current, and it is what the
    /// integrator stage digitizes.
    pub fn step(&mut self, v_set: Volt, i_sensor: Ampere, dt: Seconds) -> Ampere {
        // Op-amp: non-inverting input = setpoint, inverting = electrode.
        let v_gate = self.amp.step(v_set, self.v_electrode, dt);
        // Source follower: gate at v_gate, source at electrode, drain VDD.
        let i_follower = self
            .follower
            .drain_current(v_gate, self.v_electrode, self.vdd);
        // Electrode node: follower charges, sensor current discharges.
        let net = i_follower - i_sensor;
        self.v_electrode += (net * dt) / self.electrode_cap;
        self.v_electrode = self.v_electrode.clamp(Volt::ZERO, self.vdd);
        i_follower
    }

    /// Runs the loop to steady state at the given setpoint and sensor
    /// current, returning the settled electrode potential and the residual
    /// regulation error.
    ///
    /// The follower can only source current, so the loop is started at the
    /// operating point (electrode at the setpoint, amp output at the gate
    /// bias that balances the sensor current) — the slew from power-up is
    /// handled by the chip's startup sequence, not the regulation loop.
    pub fn settle(&mut self, v_set: Volt, i_sensor: Ampere) -> (Volt, Volt) {
        self.v_electrode = v_set.clamp(Volt::ZERO, self.vdd);
        if let Some(vg) = self.follower.gate_voltage_for_current(
            i_sensor,
            self.v_electrode,
            self.vdd,
            Volt::ZERO,
            self.vdd,
        ) {
            self.amp.set_output(vg);
        }
        // Refine: 2 ms at 20 ns steps (the amp pole and the slow electrode
        // node converge jointly on the ~100 µs … 1 ms scale).
        let dt = Seconds::from_nano(20.0);
        for _ in 0..100_000 {
            self.step(v_set, i_sensor, dt);
        }
        (self.v_electrode, self.v_electrode - v_set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_setpoint_at_mid_current() {
        let mut looop = RegulationLoop::dna_pixel_default().expect("defaults valid");
        let (v, err) = looop.settle(Volt::new(1.0), Ampere::from_nano(1.0));
        assert!(
            err.abs().value() < 2e-3,
            "electrode at {v}, error {err} must be < 2 mV"
        );
    }

    #[test]
    fn regulation_error_small_over_five_decades() {
        // The loop must hold the electrode potential across 1 pA … 100 nA
        // — the whole point of regulating rather than biasing openly.
        let mut worst = 0.0f64;
        for exp in [-12.0f64, -11.0, -10.0, -9.0, -8.0, -7.0] {
            let mut looop = RegulationLoop::dna_pixel_default().expect("defaults valid");
            let i = Ampere::new(10f64.powf(exp));
            let (_, err) = looop.settle(Volt::new(1.0), i);
            worst = worst.max(err.abs().value());
        }
        assert!(worst < 5e-3, "worst regulation error = {worst} V");
    }

    #[test]
    fn follower_supplies_the_sensor_current() {
        let mut looop = RegulationLoop::dna_pixel_default().expect("defaults valid");
        let i_sensor = Ampere::from_nano(10.0);
        looop.settle(Volt::new(1.0), i_sensor);
        // One more step at steady state: delivered current ≈ sensor current.
        let delivered = looop.step(Volt::new(1.0), i_sensor, Seconds::from_nano(10.0));
        let rel = (delivered.value() - i_sensor.value()).abs() / i_sensor.value();
        assert!(rel < 0.05, "delivered {delivered} vs sensor {i_sensor}");
    }

    #[test]
    fn tracks_setpoint_changes() {
        let mut looop = RegulationLoop::dna_pixel_default().expect("defaults valid");
        let (v1, _) = looop.settle(Volt::new(0.8), Ampere::from_nano(1.0));
        let (v2, _) = looop.settle(Volt::new(1.4), Ampere::from_nano(1.0));
        assert!((v1.value() - 0.8).abs() < 5e-3);
        assert!((v2.value() - 1.4).abs() < 5e-3);
    }

    #[test]
    fn rejects_bad_electrode_cap() {
        assert!(RegulationLoop::new(
            OpAmpSpec::default(),
            MosfetParams::n05um(20.0, 1.0),
            Farad::ZERO,
            Volt::new(5.0)
        )
        .is_err());
    }

    #[test]
    fn electrode_stays_within_rails() {
        let mut looop = RegulationLoop::dna_pixel_default().expect("defaults valid");
        // Absurd setpoint: the electrode saturates at the rail, not beyond.
        let (v, _) = looop.settle(Volt::new(10.0), Ampere::from_nano(1.0));
        assert!(v <= Volt::new(5.0));
    }
}
