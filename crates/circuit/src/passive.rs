//! Passive and switched components: capacitors, switches, resistors and
//! non-ideal current sources.

use crate::error::{require_positive, CircuitError};
use bsa_units::{Ampere, Coulomb, Farad, Ohm, Seconds, Volt};

/// A capacitor holding a voltage state.
///
/// This is the integration capacitor C_int of the DNA pixel (paper Fig. 3)
/// and the calibration storage capacitor on the neural pixel's sensor gate
/// (paper Fig. 6). Supports charging by a current over a time step, direct
/// charge injection, leakage-driven droop, and hard reset.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacitance: Farad,
    voltage: Volt,
}

impl Capacitor {
    /// Creates a capacitor with the given capacitance, initially at 0 V.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if the capacitance is not strictly positive.
    pub fn new(capacitance: Farad) -> Result<Self, CircuitError> {
        require_positive("capacitance", capacitance.value())?;
        Ok(Self {
            capacitance,
            voltage: Volt::ZERO,
        })
    }

    /// The capacitance.
    pub fn capacitance(&self) -> Farad {
        self.capacitance
    }

    /// Present voltage across the capacitor.
    pub fn voltage(&self) -> Volt {
        self.voltage
    }

    /// Stored charge Q = C·V.
    pub fn charge(&self) -> Coulomb {
        self.capacitance * self.voltage
    }

    /// Integrates a constant current for `dt`: ΔV = I·dt / C.
    pub fn integrate(&mut self, current: Ampere, dt: Seconds) {
        self.voltage += (current * dt) / self.capacitance;
    }

    /// Injects a charge packet (e.g. switch charge injection): ΔV = Q/C.
    pub fn inject(&mut self, charge: Coulomb) {
        self.voltage += charge / self.capacitance;
    }

    /// Exponential droop toward `v_rest` with time constant `tau` over `dt`
    /// — models leakage of a stored calibration voltage between refresh
    /// cycles.
    pub fn droop(&mut self, v_rest: Volt, tau: Seconds, dt: Seconds) {
        let alpha = (-dt.value() / tau.value()).exp();
        self.voltage = v_rest + (self.voltage - v_rest) * alpha;
    }

    /// Forces the voltage to `v` (ideal reset switch closing).
    pub fn set_voltage(&mut self, v: Volt) {
        self.voltage = v;
    }
}

/// MOS switch with on-resistance, charge injection, and clock feedthrough.
///
/// When a MOS switch opens, roughly half its channel charge
/// Q_ch = W·L·C_ox·(V_GS − V_T) spills onto the sampling node, plus overlap
/// coupling of the gate swing. On the neural pixel this is one of the two
/// residual errors the calibration cannot remove (the other is droop).
#[derive(Debug, Clone, PartialEq)]
pub struct MosSwitch {
    on_resistance: Ohm,
    injected_charge: Coulomb,
    closed: bool,
}

impl MosSwitch {
    /// Creates a switch.
    ///
    /// * `on_resistance` — channel resistance when closed.
    /// * `injected_charge` — charge pushed onto the signal node at each
    ///   opening (half-channel charge + feedthrough), signed.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if `on_resistance` is not positive.
    pub fn new(on_resistance: Ohm, injected_charge: Coulomb) -> Result<Self, CircuitError> {
        require_positive("on resistance", on_resistance.value())?;
        Ok(Self {
            on_resistance,
            injected_charge,
            closed: false,
        })
    }

    /// An ideal switch: zero injection, 1 Ω on-resistance.
    pub fn ideal() -> Self {
        Self {
            on_resistance: Ohm::new(1.0),
            injected_charge: Coulomb::ZERO,
            closed: false,
        }
    }

    /// Is the switch currently conducting?
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// On-resistance when closed.
    pub fn on_resistance(&self) -> Ohm {
        self.on_resistance
    }

    /// Closes the switch (no charge event on closing).
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Opens the switch, returning the charge injected onto the signal node
    /// (zero if the switch was already open).
    pub fn open(&mut self) -> Coulomb {
        if self.closed {
            self.closed = false;
            self.injected_charge
        } else {
            Coulomb::ZERO
        }
    }

    /// Settling time constant when sampling onto `load` through the closed
    /// switch: τ = R_on · C.
    pub fn settling_tau(&self, load: Farad) -> Seconds {
        self.on_resistance * load
    }
}

/// Resistor (e.g. cleft seal resistance, electrode spreading resistance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resistor {
    resistance: Ohm,
}

impl Resistor {
    /// Creates a resistor.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if the resistance is not strictly positive.
    pub fn new(resistance: Ohm) -> Result<Self, CircuitError> {
        require_positive("resistance", resistance.value())?;
        Ok(Self { resistance })
    }

    /// The resistance.
    pub fn resistance(&self) -> Ohm {
        self.resistance
    }

    /// Current for a voltage across the resistor.
    pub fn current(&self, v: Volt) -> Ampere {
        v / self.resistance
    }

    /// Voltage drop for a current through the resistor.
    pub fn drop_for(&self, i: Ampere) -> Volt {
        i * self.resistance
    }
}

/// Current source with finite output resistance.
///
/// Models the calibration current source M2 of the neural pixel and the
/// reference currents distributed across the DNA chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentSource {
    nominal: Ampere,
    output_resistance: Ohm,
    compliance: Volt,
}

impl CurrentSource {
    /// Creates a source with the given nominal current, output resistance,
    /// and compliance voltage (output saturates linearly below compliance).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if `output_resistance` is not positive.
    pub fn new(
        nominal: Ampere,
        output_resistance: Ohm,
        compliance: Volt,
    ) -> Result<Self, CircuitError> {
        require_positive("output resistance", output_resistance.value())?;
        Ok(Self {
            nominal,
            output_resistance,
            compliance,
        })
    }

    /// An ideal source (1 GΩ output resistance, zero compliance).
    pub fn ideal(nominal: Ampere) -> Self {
        Self {
            nominal,
            output_resistance: Ohm::new(1e12),
            compliance: Volt::ZERO,
        }
    }

    /// The nominal (programmed) current.
    pub fn nominal(&self) -> Ampere {
        self.nominal
    }

    /// Output current at the given output voltage: nominal plus the
    /// finite-output-resistance term, collapsing linearly to zero below the
    /// compliance voltage.
    pub fn current_at(&self, v_out: Volt) -> Ampere {
        if v_out < self.compliance {
            // Triode-like collapse below compliance.
            let frac = (v_out.value() / self.compliance.value()).clamp(0.0, 1.0);
            return self.nominal * frac;
        }
        self.nominal + (v_out - self.compliance) / self.output_resistance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacitor_integration_slope() {
        let mut c = Capacitor::new(Farad::from_femto(100.0)).unwrap();
        c.integrate(Ampere::from_pico(100.0), Seconds::from_milli(1.0));
        // ΔV = 100 pA · 1 ms / 100 fF = 1 V.
        assert!((c.voltage().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacitor_rejects_zero_capacitance() {
        assert!(Capacitor::new(Farad::ZERO).is_err());
    }

    #[test]
    fn capacitor_charge_injection() {
        let mut c = Capacitor::new(Farad::from_pico(1.0)).unwrap();
        c.inject(Coulomb::from_femto(10.0));
        assert!((c.voltage().as_milli() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_droop_decays_exponentially() {
        let mut c = Capacitor::new(Farad::from_pico(1.0)).unwrap();
        c.set_voltage(Volt::new(1.0));
        c.droop(Volt::ZERO, Seconds::new(1.0), Seconds::new(1.0));
        assert!((c.voltage().value() - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn capacitor_droop_is_stable_for_long_steps() {
        let mut c = Capacitor::new(Farad::from_pico(1.0)).unwrap();
        c.set_voltage(Volt::new(1.0));
        c.droop(Volt::new(0.5), Seconds::new(1e-3), Seconds::new(100.0));
        assert!((c.voltage().value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn switch_injects_only_on_opening() {
        let mut s = MosSwitch::new(Ohm::from_kilo(5.0), Coulomb::from_femto(2.0)).unwrap();
        assert_eq!(s.open(), Coulomb::ZERO, "open from open state: no charge");
        s.close();
        assert!(s.is_closed());
        assert_eq!(s.open(), Coulomb::from_femto(2.0));
        assert_eq!(s.open(), Coulomb::ZERO, "second opening injects nothing");
    }

    #[test]
    fn switch_settling_time() {
        let s = MosSwitch::new(Ohm::from_kilo(10.0), Coulomb::ZERO).unwrap();
        let tau = s.settling_tau(Farad::from_pico(1.0));
        assert!((tau.as_nano() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn resistor_ohms_law() {
        let r = Resistor::new(Ohm::from_mega(1.0)).unwrap();
        let i = r.current(Volt::from_milli(1.0));
        assert!((i.as_nano() - 1.0).abs() < 1e-12);
        assert!((r.drop_for(i) - Volt::from_milli(1.0)).abs().value() < 1e-15);
    }

    #[test]
    fn current_source_output_resistance() {
        let s = CurrentSource::new(
            Ampere::from_micro(1.0),
            Ohm::from_mega(10.0),
            Volt::new(0.3),
        )
        .unwrap();
        let i1 = s.current_at(Volt::new(1.0));
        let i2 = s.current_at(Volt::new(2.0));
        // 1 V more across 10 MΩ: +100 nA.
        assert!(((i2 - i1).as_nano() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn current_source_compliance_collapse() {
        let s = CurrentSource::new(
            Ampere::from_micro(1.0),
            Ohm::from_mega(10.0),
            Volt::new(0.3),
        )
        .unwrap();
        assert_eq!(s.current_at(Volt::ZERO), Ampere::ZERO);
        let half = s.current_at(Volt::new(0.15));
        assert!((half.value() - 0.5e-6).abs() < 1e-12);
    }

    #[test]
    fn ideal_source_is_stiff() {
        let s = CurrentSource::ideal(Ampere::from_nano(10.0));
        let a = s.current_at(Volt::new(0.5));
        let b = s.current_at(Volt::new(4.5));
        assert!((a.value() - b.value()).abs() / a.value() < 1e-2);
    }
}
