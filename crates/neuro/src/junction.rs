//! The cell–chip point-contact junction.
//!
//! "When neurons within a electrolyte are brought in intimate contact with
//! a planar surface, a cleft of order of 60 nm between cell membrane and
//! surface is obtained. Ion currents flowing through the cleft lead to a
//! potential drop due to the resistance of the cleft" (paper Section 3,
//! refs [16–18]). This module implements that point-contact model: the
//! attached membrane patch drives its ionic + capacitive current through
//! the cleft's seal resistance, producing the 100 µV – 5 mV transient the
//! sensor transistor probes.

use crate::hh::HodgkinHuxley;
use bsa_units::{Meter, Ohm, Seconds, SquareMeter, Volt};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Error constructing a junction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidJunctionError {
    what: &'static str,
}

impl fmt::Display for InvalidJunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid junction: {}", self.what)
    }
}

impl Error for InvalidJunctionError {}

/// Point-contact junction between an attached membrane patch and the chip.
///
/// For a perfectly uniform isopotential cell the attached patch's ionic and
/// capacitive currents cancel and no cleft signal arises; real junction
/// signals come from the attached (junction) membrane carrying a different
/// ion-channel density than the free membrane. `channel_density_ratio` is
/// that ratio µ (junction/free); the net current driven through the seal
/// resistance is (µ − 1)·j_ionic per unit area.
#[derive(Debug, Clone, PartialEq)]
pub struct CleftJunction {
    cleft_height: Meter,
    contact_radius: Meter,
    resistivity_ohm_m: f64,
    channel_density_ratio: f64,
}

impl CleftJunction {
    /// The paper's nominal junction: 60 nm cleft under a 20 µm-diameter
    /// contact in physiological saline (ρ ≈ 0.7 Ω·m), with the junction
    /// membrane carrying 30 % of the free membrane's channel density.
    pub fn nominal() -> Self {
        Self {
            cleft_height: Meter::from_nano(60.0),
            contact_radius: Meter::from_micro(10.0),
            resistivity_ohm_m: 0.7,
            channel_density_ratio: 0.3,
        }
    }

    /// Creates a junction with the given cleft height, contact radius and
    /// electrolyte resistivity.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidJunctionError`] if any parameter is non-positive.
    pub fn new(
        cleft_height: Meter,
        contact_radius: Meter,
        resistivity_ohm_m: f64,
    ) -> Result<Self, InvalidJunctionError> {
        if cleft_height.value() <= 0.0 {
            return Err(InvalidJunctionError {
                what: "cleft height must be positive",
            });
        }
        if contact_radius.value() <= 0.0 {
            return Err(InvalidJunctionError {
                what: "contact radius must be positive",
            });
        }
        if resistivity_ohm_m <= 0.0 {
            return Err(InvalidJunctionError {
                what: "resistivity must be positive",
            });
        }
        Ok(Self {
            cleft_height,
            contact_radius,
            resistivity_ohm_m,
            channel_density_ratio: 0.3,
        })
    }

    /// Sets the junction-membrane channel-density ratio µ (clamped to
    /// non-negative). µ = 1 reproduces the uniform-cell null result.
    #[must_use]
    pub fn with_channel_density_ratio(mut self, ratio: f64) -> Self {
        self.channel_density_ratio = ratio.max(0.0);
        self
    }

    /// The junction-membrane channel-density ratio µ.
    pub fn channel_density_ratio(&self) -> f64 {
        self.channel_density_ratio
    }

    /// The cleft height.
    pub fn cleft_height(&self) -> Meter {
        self.cleft_height
    }

    /// The contact radius.
    pub fn contact_radius(&self) -> Meter {
        self.contact_radius
    }

    /// Attached membrane patch area π·r².
    pub fn contact_area(&self) -> SquareMeter {
        SquareMeter::new(std::f64::consts::PI * self.contact_radius.value().powi(2))
    }

    /// Seal resistance of the sheet-like cleft: R_j = ρ/(8π·h) for a disk
    /// contact (point-contact model).
    pub fn seal_resistance(&self) -> Ohm {
        Ohm::new(self.resistivity_ohm_m / (8.0 * std::f64::consts::PI * self.cleft_height.value()))
    }

    /// Cleft voltage for a membrane current density `j_ua_per_cm2`
    /// (µA/cm², outward positive) flowing through the attached patch:
    /// V_j = R_j · A_j · j.
    pub fn cleft_voltage(&self, j_ua_per_cm2: f64) -> Volt {
        let j_a_per_m2 = j_ua_per_cm2 * 1e-2; // µA/cm² → A/m²
        let i = self.contact_area().value() * j_a_per_m2;
        Volt::new(self.seal_resistance().value() * i)
    }
}

/// A precomputed extracellular action-potential waveform at the junction.
///
/// Running a full Hodgkin–Huxley model per neuron per pixel per frame is
/// wasteful; cultures instead stamp this template (one HH run through the
/// junction model) at each spike time.
#[derive(Debug, Clone, PartialEq)]
pub struct ApTemplate {
    dt: Seconds,
    /// Cleft-voltage samples, starting `pre` seconds before the upstroke.
    samples: Vec<Volt>,
    /// Time of the upstroke (0 mV crossing) within the template.
    align: Seconds,
}

impl ApTemplate {
    /// Generates a template by firing one HH action potential through the
    /// given junction.
    ///
    /// The template spans 2 ms before to 6 ms after the upstroke, sampled
    /// at `dt`.
    pub fn from_hh(junction: &CleftJunction, dt: Seconds) -> Self {
        let mut hh = HodgkinHuxley::new();
        // Settle to rest.
        let settle = (0.02 / dt.value()).round() as usize;
        for _ in 0..settle {
            hh.step(0.0, dt);
        }
        // Record with a strong brief pulse.
        let total = (0.02 / dt.value()).round() as usize;
        let pulse = (0.5e-3 / dt.value()).round() as usize;
        let mut v_cleft = Vec::with_capacity(total);
        let mut onset_idx = None;
        for k in 0..total {
            let stim = if k < pulse { 25.0 } else { 0.0 };
            let s = hh.step(stim, dt);
            if s.spike_onset && onset_idx.is_none() {
                onset_idx = Some(k);
            }
            // Net junction current density: capacitive current is common to
            // both membranes and cancels in the whole-cell balance, leaving
            // (µ − 1)·j_ionic to return through the cleft.
            let j_net = (junction.channel_density_ratio - 1.0) * s.ionic_ua_per_cm2;
            v_cleft.push(junction.cleft_voltage(j_net));
        }
        let onset = onset_idx.unwrap_or(pulse);
        let pre = (2e-3 / dt.value()).round() as usize;
        let post = (6e-3 / dt.value()).round() as usize;
        let lo = onset.saturating_sub(pre);
        let hi = (onset + post).min(v_cleft.len());
        let samples = v_cleft[lo..hi].to_vec();
        Self {
            dt,
            samples,
            align: dt * (onset - lo) as f64,
        }
    }

    /// The template of [`CleftJunction::nominal`] sampled at 10 µs: the
    /// waveform every [`Culture::random`](crate::culture::Culture::random)
    /// neuron scales. Its inputs are constants, so the HH run behind it
    /// happens once per process, on first use.
    pub fn nominal() -> &'static ApTemplate {
        static NOMINAL: OnceLock<ApTemplate> = OnceLock::new();
        NOMINAL.get_or_init(|| Self::from_hh(&CleftJunction::nominal(), Seconds::new(10e-6)))
    }

    /// Sample interval.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Template duration.
    pub fn duration(&self) -> Seconds {
        self.dt * self.samples.len() as f64
    }

    /// Peak-to-peak amplitude of the transient.
    pub fn amplitude(&self) -> Volt {
        let max = self
            .samples
            .iter()
            .cloned()
            .fold(Volt::new(f64::MIN), Volt::max);
        let min = self
            .samples
            .iter()
            .cloned()
            .fold(Volt::new(f64::MAX), Volt::min);
        max - min
    }

    /// Waveform value at time `t` relative to the spike upstroke (negative
    /// `t` = before the upstroke); zero outside the template.
    pub fn sample_at(&self, t: Seconds) -> Volt {
        let idx = ((t + self.align).value() / self.dt.value()).floor();
        if idx < 0.0 {
            return Volt::ZERO;
        }
        let Some(&[a, b, ..]) = self.samples.get(idx as usize..) else {
            return Volt::ZERO;
        };
        let frac = (t + self.align).value() / self.dt.value() - idx;
        a * (1.0 - frac) + b * frac
    }

    /// The raw samples.
    pub fn samples(&self) -> &[Volt] {
        &self.samples
    }

    /// Scales the template amplitude by `factor` (e.g. per-neuron coupling
    /// variability).
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        for s in &mut self.samples {
            *s *= factor;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_seal_resistance_magnitude() {
        let j = CleftJunction::nominal();
        let r = j.seal_resistance();
        // ρ/(8πh) = 0.7/(8π·60 nm) ≈ 464 kΩ.
        assert!(
            (r.value() - 4.64e5).abs() / r.value() < 0.01,
            "R_seal = {r}"
        );
    }

    #[test]
    fn smaller_cleft_raises_seal_resistance() {
        let near =
            CleftJunction::new(Meter::from_nano(30.0), Meter::from_micro(10.0), 0.7).unwrap();
        let far =
            CleftJunction::new(Meter::from_nano(120.0), Meter::from_micro(10.0), 0.7).unwrap();
        assert!(near.seal_resistance() > far.seal_resistance());
        let ratio = near.seal_resistance().value() / far.seal_resistance().value();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_degenerate_geometry() {
        assert!(CleftJunction::new(Meter::ZERO, Meter::from_micro(10.0), 0.7).is_err());
        assert!(CleftJunction::new(Meter::from_nano(60.0), Meter::ZERO, 0.7).is_err());
        assert!(CleftJunction::new(Meter::from_nano(60.0), Meter::from_micro(10.0), 0.0).is_err());
    }

    #[test]
    fn cleft_voltage_scales_with_current_density() {
        let j = CleftJunction::nominal();
        let v1 = j.cleft_voltage(100.0);
        let v2 = j.cleft_voltage(200.0);
        assert!((v2.value() / v1.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn template_amplitude_in_paper_window() {
        // The paper states sensor-level amplitudes of 100 µV … 5 mV.
        let t = ApTemplate::nominal();
        let amp = t.amplitude();
        assert!(
            amp.value() > 100e-6 && amp.value() < 5e-3,
            "amplitude = {amp}"
        );
    }

    #[test]
    fn template_is_transient_and_biphasic() {
        let t = ApTemplate::nominal();
        let max = t
            .samples()
            .iter()
            .cloned()
            .fold(Volt::new(f64::MIN), Volt::max);
        let min = t
            .samples()
            .iter()
            .cloned()
            .fold(Volt::new(f64::MAX), Volt::min);
        assert!(max.value() > 0.0 && min.value() < 0.0, "biphasic shape");
        // Returns near zero at the template edges.
        let first = t.samples().first().unwrap();
        let last = t.samples().last().unwrap();
        assert!(first.abs().value() < 0.2 * t.amplitude().value());
        assert!(last.abs().value() < 0.2 * t.amplitude().value());
    }

    #[test]
    fn template_sampling_is_zero_outside() {
        let t = ApTemplate::nominal();
        assert_eq!(t.sample_at(Seconds::new(-1.0)), Volt::ZERO);
        assert_eq!(t.sample_at(Seconds::new(1.0)), Volt::ZERO);
        // Near the upstroke the waveform is nonzero.
        assert!(t.sample_at(Seconds::new(0.2e-3)).abs().value() > 0.0);
    }

    #[test]
    fn scaled_template_scales_amplitude() {
        let t = ApTemplate::nominal();
        let half = t.clone().scaled(0.5);
        assert!((half.amplitude().value() - 0.5 * t.amplitude().value()).abs() < 1e-12);
    }

    #[test]
    fn random_cultures_scale_the_nominal_template() {
        use crate::culture::{Culture, CultureConfig};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let fresh = ApTemplate::from_hh(&CleftJunction::nominal(), Seconds::new(10e-6));
        let cfg = CultureConfig::default();
        for seed in [1, 2] {
            // Replay the draws of `Culture::random` to recover each
            // neuron's coupling factor.
            let culture = Culture::random(&cfg, &mut SmallRng::seed_from_u64(seed));
            let mut rng = SmallRng::seed_from_u64(seed);
            for n in culture.neurons() {
                for _ in 0..4 {
                    rng.gen::<f64>();
                }
                let coupling = cfg.coupling_mean
                    * (1.0 + cfg.coupling_spread * (2.0 * rng.gen::<f64>() - 1.0));
                let want = fresh.clone().scaled(coupling.max(0.05));
                let got = &n.template;
                assert_eq!(got.dt.value().to_bits(), want.dt.value().to_bits());
                assert_eq!(got.align.value().to_bits(), want.align.value().to_bits());
                assert_eq!(got.samples.len(), want.samples.len());
                for (a, b) in got.samples.iter().zip(&want.samples) {
                    assert_eq!(a.value().to_bits(), b.value().to_bits());
                }
            }
        }
    }

    #[test]
    fn tighter_cleft_gives_larger_signal() {
        let dt = Seconds::new(10e-6);
        let tight = ApTemplate::from_hh(
            &CleftJunction::new(Meter::from_nano(20.0), Meter::from_micro(10.0), 0.7).unwrap(),
            dt,
        );
        let loose = ApTemplate::from_hh(
            &CleftJunction::new(Meter::from_nano(200.0), Meter::from_micro(10.0), 0.7).unwrap(),
            dt,
        );
        assert!(tight.amplitude() > loose.amplitude());
    }
}
