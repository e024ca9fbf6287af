//! The complete DNA-microarray assay protocol.
//!
//! Paper Fig. 2 walks through the three phases each sensor site sees:
//! a)–c) probe immobilization, d)–e) analyte application and hybridization,
//! f)–g) washing. This module sequences those phases over a
//! [`SpottedSite`] and reports the resulting surface coverage, which
//! [`crate::redox`] converts into the sensor current the chip measures.

use crate::hybridization::HybridizationModel;
use crate::sequence::DnaSequence;
use bsa_units::{Kelvin, Molar, Seconds};

/// Protocol parameters common to a whole chip run.
#[derive(Debug, Clone, PartialEq)]
pub struct AssayConditions {
    /// Hybridization model (thermodynamics + kinetics).
    pub model: HybridizationModel,
    /// Hybridization temperature.
    pub temperature: Kelvin,
    /// Hybridization duration.
    pub hybridization_time: Seconds,
    /// Washing duration.
    pub wash_time: Seconds,
    /// Washing stringency (multiplies off-rates during the wash).
    pub wash_stringency: f64,
    /// Fraction of probes that survived immobilization in active
    /// orientation (immobilization yield).
    pub immobilization_yield: f64,
}

impl Default for AssayConditions {
    /// A standard overnight-style assay compressed to one hour of
    /// hybridization and a five-minute stringent wash at 35 °C — just below
    /// the perfect-match melting point, so stringency discriminates single
    /// mismatches.
    fn default() -> Self {
        Self {
            model: HybridizationModel::default(),
            temperature: Kelvin::new(308.0),
            hybridization_time: Seconds::new(3600.0),
            wash_time: Seconds::new(300.0),
            wash_stringency: 50.0,
            immobilization_yield: 0.85,
        }
    }
}

/// A single spotted sensor site carrying one probe species.
#[derive(Debug, Clone, PartialEq)]
pub struct SpottedSite {
    probe: DnaSequence,
}

impl SpottedSite {
    /// Creates a site spotted with `probe`.
    pub fn new(probe: DnaSequence) -> Self {
        Self { probe }
    }

    /// The immobilized probe sequence.
    pub fn probe(&self) -> &DnaSequence {
        &self.probe
    }

    /// Runs the full protocol against a target at concentration `c` and
    /// returns per-phase coverages.
    pub fn run(&self, target: &DnaSequence, c: Molar, cond: &AssayConditions) -> AssayResult {
        // Phase 1: immobilization — yield caps achievable coverage.
        let active = cond.immobilization_yield.clamp(0.0, 1.0);

        // Phase 2: hybridization from empty surface.
        let hybridized = cond.model.coverage_after(
            &self.probe,
            target,
            c,
            cond.temperature,
            0.0,
            cond.hybridization_time,
        ) * active;

        // Phase 3: stringent wash in pure buffer.
        let washed = cond.model.coverage_after_wash(
            &self.probe,
            target,
            cond.temperature,
            hybridized,
            cond.wash_time,
            cond.wash_stringency,
        );

        AssayResult {
            mismatches: self.probe.mismatches_with(target),
            coverage_after_hybridization: hybridized,
            final_coverage: washed,
        }
    }
}

/// Per-site outcome of an assay run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssayResult {
    /// Mismatch count between probe and target at the best alignment.
    pub mismatches: usize,
    /// Coverage θ right after hybridization (before the wash).
    pub coverage_after_hybridization: f64,
    /// Coverage θ after the washing step — what the readout sees.
    pub final_coverage: f64,
}

impl AssayResult {
    /// Fraction of hybridized material removed by the wash.
    pub fn wash_loss(&self) -> f64 {
        if self.coverage_after_hybridization == 0.0 {
            0.0
        } else {
            1.0 - self.final_coverage / self.coverage_after_hybridization
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_rng::SmallRng;

    fn setup() -> (SpottedSite, DnaSequence, AssayConditions) {
        // Seed chosen to draw a representative mid-GC 20-mer: its perfect
        // match survives the stringent wash while mismatches do not.
        let mut rng = SmallRng::seed_from_u64(2);
        let probe = DnaSequence::random(20, &mut rng);
        let target = probe.reverse_complement();
        (SpottedSite::new(probe), target, AssayConditions::default())
    }

    #[test]
    fn perfect_match_survives_protocol() {
        let (site, target, cond) = setup();
        let r = site.run(&target, Molar::from_nano(100.0), &cond);
        assert_eq!(r.mismatches, 0);
        assert!(
            r.final_coverage > 0.5,
            "match coverage = {}",
            r.final_coverage
        );
    }

    #[test]
    fn mismatches_are_washed_away() {
        let (site, target, cond) = setup();
        let r3 = site.run(&target.with_mismatches(3), Molar::from_nano(100.0), &cond);
        assert!(
            r3.final_coverage < 1e-3,
            "3-mismatch coverage = {}",
            r3.final_coverage
        );
    }

    #[test]
    fn discrimination_ratio_exceeds_two_orders() {
        let (site, target, cond) = setup();
        let c = Molar::from_nano(100.0);
        let m0 = site.run(&target, c, &cond).final_coverage;
        let m2 = site
            .run(&target.with_mismatches(2), c, &cond)
            .final_coverage;
        assert!(
            m0 / m2.max(1e-30) > 100.0,
            "discrimination = {}",
            m0 / m2.max(1e-30)
        );
    }

    #[test]
    fn coverage_grows_with_concentration() {
        let (site, target, cond) = setup();
        let lo = site
            .run(&target, Molar::from_pico(10.0), &cond)
            .final_coverage;
        let hi = site
            .run(&target, Molar::from_micro(1.0), &cond)
            .final_coverage;
        assert!(hi > lo);
    }

    #[test]
    fn immobilization_yield_caps_coverage() {
        let (site, target, mut cond) = setup();
        cond.immobilization_yield = 0.5;
        let r = site.run(&target, Molar::from_micro(10.0), &cond);
        assert!(r.final_coverage <= 0.5 + 1e-12);
    }

    #[test]
    fn harsher_wash_removes_more() {
        let (site, target, mut cond) = setup();
        let c = Molar::from_nano(100.0);
        let t1 = target.with_mismatches(1);
        cond.wash_stringency = 10.0;
        let gentle = site.run(&t1, c, &cond).final_coverage;
        cond.wash_stringency = 500.0;
        let harsh = site.run(&t1, c, &cond).final_coverage;
        assert!(harsh < gentle);
    }

    #[test]
    fn wash_loss_metric() {
        let (site, target, cond) = setup();
        let r = site.run(&target.with_mismatches(2), Molar::from_nano(100.0), &cond);
        assert!(r.wash_loss() > 0.9, "wash loss = {}", r.wash_loss());
        let r0 = site.run(&target, Molar::from_nano(100.0), &cond);
        assert!(r0.wash_loss() < 0.2, "match wash loss = {}", r0.wash_loss());
    }

    #[test]
    fn zero_concentration_gives_zero_coverage() {
        let (site, target, cond) = setup();
        let r = site.run(&target, Molar::ZERO, &cond);
        assert_eq!(r.final_coverage, 0.0);
        assert_eq!(r.wash_loss(), 0.0);
    }
}
