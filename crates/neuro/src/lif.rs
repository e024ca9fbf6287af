//! Leaky integrate-and-fire neuron.
//!
//! A cheap point-neuron for simulating large cultures over the 128×128
//! array where the full Hodgkin–Huxley machinery is unnecessary: the chip
//! only sees the extracellular transient, whose stereotyped shape is
//! supplied by the junction model.

use bsa_units::Seconds;

/// Leaky integrate-and-fire parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LifParams {
    /// Membrane time constant.
    pub tau_m: Seconds,
    /// Resting potential in mV.
    pub v_rest: f64,
    /// Firing threshold in mV.
    pub v_threshold: f64,
    /// Post-spike reset potential in mV.
    pub v_reset: f64,
    /// Absolute refractory period.
    pub t_refractory: Seconds,
    /// Input resistance in MΩ (converts nA input to mV drive).
    pub r_m_mohm: f64,
}

impl Default for LifParams {
    fn default() -> Self {
        Self {
            tau_m: Seconds::from_milli(20.0),
            v_rest: -65.0,
            v_threshold: -50.0,
            v_reset: -70.0,
            t_refractory: Seconds::from_milli(2.0),
            r_m_mohm: 100.0,
        }
    }
}

/// Leaky integrate-and-fire state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Lif {
    params: LifParams,
    v: f64,
    refractory_left: Seconds,
}

impl Lif {
    /// Creates a neuron at rest.
    pub fn new(params: LifParams) -> Self {
        let v = params.v_rest;
        Self {
            params,
            v,
            refractory_left: Seconds::ZERO,
        }
    }

    /// Present membrane potential in mV.
    pub fn voltage_mv(&self) -> f64 {
        self.v
    }

    /// The parameter set.
    pub fn params(&self) -> &LifParams {
        &self.params
    }

    /// Advances by `dt` with input current `i_na` (nA). Returns `true` if
    /// the neuron fired during this step.
    pub fn step(&mut self, i_na: f64, dt: Seconds) -> bool {
        if self.refractory_left.value() > 0.0 {
            self.refractory_left -= dt;
            self.v = self.params.v_reset;
            return false;
        }
        let p = &self.params;
        let v_inf = p.v_rest + p.r_m_mohm * i_na * 1e-3 * 1e3; // nA·MΩ = mV
        let alpha = (-dt.value() / p.tau_m.value()).exp();
        self.v = v_inf + (self.v - v_inf) * alpha;
        if self.v >= p.v_threshold {
            self.v = p.v_reset;
            self.refractory_left = p.t_refractory;
            true
        } else {
            false
        }
    }

    /// Steady-state firing rate (Hz) for a constant input current, from the
    /// analytic LIF rate equation; 0 if the input is subthreshold.
    pub fn rate_for(&self, i_na: f64) -> f64 {
        let p = &self.params;
        let v_inf = p.v_rest + p.r_m_mohm * i_na;
        if v_inf <= p.v_threshold {
            return 0.0;
        }
        let t_isi = p.t_refractory.value()
            + p.tau_m.value() * ((v_inf - p.v_reset) / (v_inf - p.v_threshold)).ln();
        1.0 / t_isi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: Seconds = Seconds::new(0.1e-3);

    #[test]
    fn rests_without_input() {
        let mut n = Lif::new(LifParams::default());
        for _ in 0..1000 {
            assert!(!n.step(0.0, DT));
        }
        assert!((n.voltage_mv() + 65.0).abs() < 1e-6);
    }

    #[test]
    fn fires_with_suprathreshold_input() {
        let mut n = Lif::new(LifParams::default());
        // v_inf = -65 + 100 MΩ · 0.2 nA · … = -45 mV > threshold −50.
        let mut spikes = 0;
        for _ in 0..10_000 {
            if n.step(0.2, DT) {
                spikes += 1;
            }
        }
        assert!(spikes > 10, "spikes = {spikes}");
    }

    #[test]
    fn subthreshold_input_never_fires() {
        let mut n = Lif::new(LifParams::default());
        // v_inf = -55 mV < −50 threshold.
        for _ in 0..50_000 {
            assert!(!n.step(0.1, DT));
        }
    }

    #[test]
    fn refractory_period_caps_rate() {
        let p = LifParams::default();
        let t_ref = p.t_refractory.value();
        let mut n = Lif::new(p);
        let mut spikes = 0;
        for _ in 0..100_000 {
            // Massive drive: rate must still stay below 1/t_ref.
            if n.step(100.0, DT) {
                spikes += 1;
            }
        }
        let rate = spikes as f64 / (100_000.0 * DT.value());
        assert!(rate <= 1.0 / t_ref + 1.0, "rate = {rate}");
        assert!(rate > 0.5 / t_ref, "rate = {rate}");
    }

    #[test]
    fn analytic_rate_matches_simulation() {
        let mut n = Lif::new(LifParams::default());
        let i = 0.3;
        let predicted = n.rate_for(i);
        let mut spikes = 0;
        let steps = 200_000;
        for _ in 0..steps {
            if n.step(i, DT) {
                spikes += 1;
            }
        }
        let measured = spikes as f64 / (steps as f64 * DT.value());
        assert!(
            (measured - predicted).abs() / predicted < 0.1,
            "measured {measured}, predicted {predicted}"
        );
    }

    #[test]
    fn analytic_rate_zero_below_threshold() {
        let n = Lif::new(LifParams::default());
        assert_eq!(n.rate_for(0.1), 0.0);
    }

    #[test]
    fn rate_is_monotone_in_drive() {
        let n = Lif::new(LifParams::default());
        let rates: Vec<f64> = (2..10).map(|k| n.rate_for(k as f64 * 0.1)).collect();
        assert!(rates.windows(2).all(|w| w[1] >= w[0]));
    }
}
