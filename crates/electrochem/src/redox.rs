//! Redox-cycling current generation.
//!
//! The electrochemically active product generated by the enzyme labels is
//! oxidized at the generator comb and re-reduced at the collector comb of
//! the interdigitated electrode; each molecule shuttles many times, so the
//! collected current is amplified by the cycling gain relative to a single
//! working electrode ("Using a redox-cycling based technique, CMOS chips
//! have recently been published which detect currents between 1 pA and
//! 100 nA per sensor", paper Section 2).

use crate::electrode::InterdigitatedElectrode;
use crate::enzyme::EnzymeLabel;
use bsa_rng::{box_muller, SmallRng};
use bsa_units::consts::FARADAY;
use bsa_units::{Ampere, Meter, Molar, Seconds};

/// Parameters of the redox-cycling current model for one sensor site.
#[derive(Debug, Clone, PartialEq)]
pub struct RedoxCyclingModel {
    /// Electrode geometry of the site.
    pub electrode: InterdigitatedElectrode,
    /// Enzyme label kinetics.
    pub label: EnzymeLabel,
    /// Bulk diffusion boundary-layer thickness.
    pub boundary_layer: Meter,
    /// Electrons per redox event (p-aminophenol: 2).
    pub electrons_per_event: u32,
    /// Collection efficiency of the collector comb (0..1).
    pub collection_efficiency: f64,
    /// Immobilized probe site density in 1/m².
    pub probe_density_per_m2: f64,
    /// Substrate concentration during readout.
    pub substrate: Molar,
    /// Residual background (non-faradaic leakage + stray) current.
    pub background: Ampere,
}

impl Default for RedoxCyclingModel {
    /// Tuned so that full coverage yields ≈ 100 nA (the paper's upper
    /// limit) and bare sites sit near the 1 pA floor.
    fn default() -> Self {
        Self {
            electrode: InterdigitatedElectrode::standard_site(),
            label: EnzymeLabel::default(),
            boundary_layer: Meter::from_micro(25.0),
            electrons_per_event: 2,
            collection_efficiency: 0.9,
            // Hybridized, enzyme-labelled target density: ~3e11/cm², an
            // order below raw probe density (steric/labelling losses), so
            // that full coverage lands at the paper's ~100 nA ceiling.
            probe_density_per_m2: 3e15,
            substrate: Molar::from_milli(1.0),
            background: Ampere::from_pico(0.8),
        }
    }
}

impl RedoxCyclingModel {
    /// Mean faradaic sensor current for fractional target coverage `theta`.
    ///
    /// The generator current is n·F·(product flux); redox cycling
    /// multiplies it by the cycling gain, and the collector picks up
    /// `collection_efficiency` of it. The background floor is added.
    pub fn sensor_current(&self, theta: f64) -> Ampere {
        let flux = self.label.product_flux_mol_per_s(
            theta,
            self.probe_density_per_m2,
            self.electrode.metal_area(),
            self.substrate,
        );
        let gain = self.electrode.cycling_gain(self.boundary_layer) * self.collection_efficiency;
        let faradaic = self.electrons_per_event as f64 * FARADAY * flux * gain;
        Ampere::new(faradaic) + self.background
    }

    /// Baseline comparison: the same site read with a **single** working
    /// electrode (no cycling): the product diffuses away after one redox
    /// event, so the current lacks the cycling gain entirely.
    pub fn single_electrode_current(&self, theta: f64) -> Ampere {
        let flux = self.label.product_flux_mol_per_s(
            theta,
            self.probe_density_per_m2,
            self.electrode.metal_area(),
            self.substrate,
        );
        let faradaic = self.electrons_per_event as f64 * FARADAY * flux;
        Ampere::new(faradaic) + self.background
    }

    /// Amplification of redox cycling over the single-electrode baseline.
    pub fn amplification(&self) -> f64 {
        self.electrode.cycling_gain(self.boundary_layer) * self.collection_efficiency
    }

    /// One noisy current sample integrated over `dt`: shot noise of the
    /// discrete electron flux plus a 0.1 % relative electrochemical
    /// fluctuation floor.
    pub fn sample_current(&self, theta: f64, dt: Seconds, rng: &mut SmallRng) -> Ampere {
        let mean = self.sensor_current(theta);
        let electrons = bsa_circuit_free_electrons(mean, dt, rng);
        let i_shot = electrons * bsa_units::consts::ELEMENTARY_CHARGE / dt.value();
        // Slow electrochemical drift/fluctuation floor.
        let rel = 1.0 + 1e-3 * box_muller(rng);
        Ampere::new(i_shot * rel)
    }
}

/// Poisson electron counting without depending on `bsa-circuit` (the
/// dependency points the other way).
fn bsa_circuit_free_electrons(i: Ampere, dt: Seconds, rng: &mut SmallRng) -> f64 {
    let mean = i.value().abs() * dt.value() / bsa_units::consts::ELEMENTARY_CHARGE;
    if mean > 1e6 {
        // Gaussian approximation.
        (mean + mean.sqrt() * box_muller(rng)).max(0.0)
    } else {
        // Knuth.
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.next_f64();
            if p <= l {
                return k as f64;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coverage_reaches_paper_upper_range() {
        let m = RedoxCyclingModel::default();
        let i = m.sensor_current(1.0);
        assert!(
            i.value() > 20e-9 && i.value() < 500e-9,
            "full-coverage current {i} should be tens–hundreds of nA"
        );
    }

    #[test]
    fn bare_site_sits_at_picoamp_floor() {
        let m = RedoxCyclingModel::default();
        let i = m.sensor_current(0.0);
        assert!(i.value() < 2e-12, "bare-site current {i}");
        assert!(i.value() > 0.0);
    }

    #[test]
    fn dynamic_range_spans_paper_window() {
        // θ from 1e-5 to 1 must span pA … 100 nA: five decades.
        let m = RedoxCyclingModel::default();
        let lo = m.sensor_current(1e-5);
        let hi = m.sensor_current(1.0);
        assert!(hi.value() / lo.value() > 1e4, "lo = {lo}, hi = {hi}");
    }

    #[test]
    fn current_monotone_in_coverage() {
        let m = RedoxCyclingModel::default();
        let mut last = Ampere::ZERO;
        for k in 0..=20 {
            let i = m.sensor_current(k as f64 / 20.0);
            assert!(i >= last);
            last = i;
        }
    }

    #[test]
    fn cycling_beats_single_electrode_by_an_order_of_magnitude() {
        let m = RedoxCyclingModel::default();
        let amp = m.amplification();
        assert!(amp > 5.0, "amplification = {amp}");
        let ratio = (m.sensor_current(0.5) - m.background).value()
            / (m.single_electrode_current(0.5) - m.background).value();
        assert!((ratio - amp).abs() / amp < 1e-9);
    }

    #[test]
    fn sampled_current_is_unbiased() {
        let m = RedoxCyclingModel::default();
        let mut rng = SmallRng::seed_from_u64(31);
        let mean = m.sensor_current(0.3);
        let dt = Seconds::from_milli(10.0);
        let n = 300;
        let avg: f64 = (0..n)
            .map(|_| m.sample_current(0.3, dt, &mut rng).value())
            .sum::<f64>()
            / n as f64;
        assert!((avg - mean.value()).abs() / mean.value() < 0.01);
    }

    #[test]
    fn shot_noise_dominates_at_picoamps() {
        // At 1 pA-scale currents, the relative fluctuation over 1 ms frames
        // is percent-level (Poisson statistics of ~6000 electrons).
        let m = RedoxCyclingModel {
            background: Ampere::from_pico(1.0),
            ..RedoxCyclingModel::default()
        };
        let mut rng = SmallRng::seed_from_u64(32);
        let dt = Seconds::from_milli(1.0);
        let samples: Vec<f64> = (0..2000)
            .map(|_| m.sample_current(0.0, dt, &mut rng).value())
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let sd =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        let rel = sd / mean;
        assert!(rel > 0.005 && rel < 0.05, "relative noise = {rel}");
    }
}
