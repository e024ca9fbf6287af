//! Duplex stability and hybridization kinetics.
//!
//! Hybridization of surface-bound probes with solution targets follows
//! Langmuir kinetics:
//!
//! ```text
//! dθ/dt = k_on·C·(1 − θ) − k_off·θ
//! ```
//!
//! with equilibrium coverage `θ_eq = C / (C + K_d)`, `K_d = k_off/k_on`.
//! The dissociation rate depends exponentially on duplex stability: each
//! mismatch destabilizes the duplex by ≈ ΔΔG of 1–3 kcal/mol, which is what
//! makes the match/mismatch contrast of paper Fig. 2 d)–g) possible, and
//! each matched base (more strongly for G·C pairs) stabilizes it.

use crate::sequence::DnaSequence;
use bsa_units::consts::GAS_CONSTANT;
use bsa_units::{Kelvin, Molar, Seconds};

/// Thermodynamic/kinetic parameters of the hybridization model.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridizationModel {
    /// Association rate constant k_on in 1/(M·s). Diffusion-limited
    /// surface hybridization: ~1e4 … 1e6.
    pub k_on: f64,
    /// Free energy per matched A·T pair in kcal/mol (negative = binding).
    pub dg_at_kcal: f64,
    /// Free energy per matched G·C pair in kcal/mol.
    pub dg_gc_kcal: f64,
    /// Destabilization per mismatch in kcal/mol (positive).
    pub ddg_mismatch_kcal: f64,
    /// Duplex initiation penalty in kcal/mol (positive).
    pub dg_init_kcal: f64,
    /// Reference dissociation prefactor in 1/s.
    pub k_off_prefactor: f64,
    /// Melting entropy per matched pair in kcal/(mol·K): raises ΔG by this
    /// much per kelvin above the reference temperature per matched base.
    pub entropy_per_match_kcal_per_k: f64,
    /// Temperature at which the per-base free energies are specified.
    pub reference_temp: Kelvin,
}

impl Default for HybridizationModel {
    /// Parameters tuned to give: K_d(perfect 20-mer) ≪ 1 nM, K_d rising by
    /// roughly an order of magnitude per mismatch — the regime reported for
    /// microarray assays.
    fn default() -> Self {
        Self {
            k_on: 1e5,
            dg_at_kcal: -1.0,
            dg_gc_kcal: -1.6,
            ddg_mismatch_kcal: 2.2,
            dg_init_kcal: 3.0,
            k_off_prefactor: 1e9,
            entropy_per_match_kcal_per_k: 0.02,
            reference_temp: bsa_units::consts::ROOM_TEMPERATURE,
        }
    }
}

impl HybridizationModel {
    /// Duplex free energy ΔG (kcal/mol) from precomputed alignment counts
    /// — the primitive behind [`HybridizationModel::duplex_dg_kcal`], for
    /// callers that evaluate many temperatures for one alignment (melting
    /// curves, panel design).
    pub fn dg_kcal_from_counts(
        &self,
        matches: usize,
        mismatches: usize,
        gc_frac: f64,
        t: Kelvin,
    ) -> f64 {
        let dg_per_match = gc_frac * self.dg_gc_kcal + (1.0 - gc_frac) * self.dg_at_kcal;
        let dg_ref = self.dg_init_kcal
            + matches as f64 * dg_per_match
            + mismatches as f64 * self.ddg_mismatch_kcal;
        let dt = t.value() - self.reference_temp.value();
        dg_ref + dt * self.entropy_per_match_kcal_per_k * matches as f64
    }

    /// Duplex free energy ΔG (kcal/mol) for `probe` bound to `target` at
    /// its best alignment and temperature `t`. More negative = more stable;
    /// the entropy term raises ΔG with temperature, so duplexes melt.
    pub fn duplex_dg_kcal(&self, probe: &DnaSequence, target: &DnaSequence, t: Kelvin) -> f64 {
        let matches = probe.complementary_matches(target);
        let mismatches = probe.mismatches_with(target);
        // Apportion matched pairs by the probe's GC content.
        self.dg_kcal_from_counts(matches, mismatches, probe.gc_content(), t)
    }

    /// Dissociation rate k_off (1/s) at temperature `t`.
    ///
    /// k_off = prefactor · exp(ΔG/(R·T)) — a stable duplex (ΔG ≪ 0)
    /// dissociates slowly. Clamped to the prefactor for unstable duplexes.
    pub fn k_off(&self, probe: &DnaSequence, target: &DnaSequence, t: Kelvin) -> f64 {
        let dg_j = self.duplex_dg_kcal(probe, target, t) * 4184.0;
        let rate = self.k_off_prefactor * (dg_j / (GAS_CONSTANT * t.value())).exp();
        rate.min(self.k_off_prefactor)
    }

    /// Equilibrium dissociation constant K_d = k_off/k_on in mol/L.
    pub fn k_d(&self, probe: &DnaSequence, target: &DnaSequence, t: Kelvin) -> Molar {
        Molar::new(self.k_off(probe, target, t) / self.k_on)
    }

    /// Equilibrium surface coverage θ_eq ∈ [0, 1] at target concentration
    /// `c`.
    pub fn equilibrium_coverage(
        &self,
        probe: &DnaSequence,
        target: &DnaSequence,
        c: Molar,
        t: Kelvin,
    ) -> f64 {
        let kd = self.k_d(probe, target, t).value();
        c.value() / (c.value() + kd)
    }

    /// Coverage after hybridizing for `dt` starting from `theta0`:
    /// the analytic solution of the Langmuir ODE,
    /// θ(t) = θ_eq + (θ₀ − θ_eq)·exp(−(k_on·C + k_off)·t).
    pub fn coverage_after(
        &self,
        probe: &DnaSequence,
        target: &DnaSequence,
        c: Molar,
        t: Kelvin,
        theta0: f64,
        dt: Seconds,
    ) -> f64 {
        let k_off = self.k_off(probe, target, t);
        let k_obs = self.k_on * c.value() + k_off;
        let theta_eq = if k_obs > 0.0 {
            self.k_on * c.value() / k_obs
        } else {
            0.0
        };
        let decayed = (-k_obs * dt.value()).exp();
        (theta_eq + (theta0 - theta_eq) * decayed).clamp(0.0, 1.0)
    }

    /// Coverage remaining after washing in pure buffer (C = 0) for `dt`,
    /// with washing stringency multiplying the dissociation rate (flow,
    /// elevated temperature and low salt all accelerate off-rates).
    pub fn coverage_after_wash(
        &self,
        probe: &DnaSequence,
        target: &DnaSequence,
        t: Kelvin,
        theta0: f64,
        dt: Seconds,
        stringency: f64,
    ) -> f64 {
        let k_off = self.k_off(probe, target, t) * stringency.max(0.0);
        (theta0 * (-k_off * dt.value()).exp()).clamp(0.0, 1.0)
    }

    /// Melting temperature estimate at reference concentration 1 µM: the
    /// temperature where half the probes are occupied at equilibrium,
    /// i.e. K_d(T_m) = 1 µM.
    pub fn melting_temperature(&self, probe: &DnaSequence, target: &DnaSequence) -> Kelvin {
        let c_ref = 1e-6;
        // The alignment is temperature-independent: compute it once.
        let matches = probe.complementary_matches(target);
        let mismatches = probe.mismatches_with(target);
        let gc = probe.gc_content();
        // f(T) = ΔG(T)/(R·T) − ln(k_on·C_ref / prefactor); root is T_m.
        let f = |t: f64| {
            let dg_j = self.dg_kcal_from_counts(matches, mismatches, gc, Kelvin::new(t)) * 4184.0;
            dg_j / (GAS_CONSTANT * t) - (self.k_on * c_ref / self.k_off_prefactor).ln()
        };
        let (mut lo, mut hi) = (200.0, 500.0);
        if f(lo).signum() == f(hi).signum() {
            // Duplex never stable (or always) in range: report the bound.
            return Kelvin::new(if f(lo) > 0.0 { lo } else { hi });
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if f(mid).signum() == f(lo).signum() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Kelvin::new(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_rng::SmallRng;
    use bsa_units::consts::ROOM_TEMPERATURE;

    fn pair(mismatches: usize) -> (DnaSequence, DnaSequence) {
        let mut rng = SmallRng::seed_from_u64(99);
        let probe = DnaSequence::random(20, &mut rng);
        let target = probe.reverse_complement().with_mismatches(mismatches);
        (probe, target)
    }

    #[test]
    fn perfect_duplex_is_stable() {
        let m = HybridizationModel::default();
        let (p, t) = pair(0);
        assert!(m.duplex_dg_kcal(&p, &t, ROOM_TEMPERATURE) < -15.0);
    }

    #[test]
    fn each_mismatch_destabilizes() {
        let m = HybridizationModel::default();
        let mut last = f64::NEG_INFINITY;
        for n in 0..5 {
            let (p, t) = pair(n);
            let dg = m.duplex_dg_kcal(&p, &t, ROOM_TEMPERATURE);
            assert!(dg > last, "mismatch {n} must raise ΔG");
            last = dg;
        }
    }

    #[test]
    fn melting_temperatures_are_physical() {
        // A perfect 20-mer at 1 µM melts somewhere in 300–400 K.
        let m = HybridizationModel::default();
        let (p, t) = pair(0);
        let tm = m.melting_temperature(&p, &t);
        assert!(tm.value() > 300.0 && tm.value() < 420.0, "Tm = {tm}");
    }

    #[test]
    fn kd_rises_orders_of_magnitude_per_mismatch() {
        let m = HybridizationModel::default();
        let (p0, t0) = pair(0);
        let (p3, t3) = pair(3);
        let kd0 = m.k_d(&p0, &t0, ROOM_TEMPERATURE).value();
        let kd3 = m.k_d(&p3, &t3, ROOM_TEMPERATURE).value();
        assert!(
            kd3 / kd0 > 1e3,
            "3 mismatches should raise K_d ≥ 1000×: {kd0} → {kd3}"
        );
    }

    #[test]
    fn equilibrium_coverage_saturates_with_concentration() {
        let m = HybridizationModel::default();
        let (p, t) = pair(0);
        let th_low = m.equilibrium_coverage(&p, &t, Molar::from_pico(1.0), ROOM_TEMPERATURE);
        let th_high = m.equilibrium_coverage(&p, &t, Molar::from_micro(1.0), ROOM_TEMPERATURE);
        assert!(th_low < th_high);
        assert!(th_high > 0.99);
        assert!((0.0..=1.0).contains(&th_low));
    }

    #[test]
    fn coverage_after_converges_to_equilibrium() {
        let m = HybridizationModel::default();
        let (p, t) = pair(1);
        let c = Molar::from_nano(10.0);
        let eq = m.equilibrium_coverage(&p, &t, c, ROOM_TEMPERATURE);
        let th = m.coverage_after(&p, &t, c, ROOM_TEMPERATURE, 0.0, Seconds::new(1e7));
        assert!((th - eq).abs() < 1e-6, "θ = {th}, θ_eq = {eq}");
    }

    #[test]
    fn coverage_is_monotone_in_time() {
        let m = HybridizationModel::default();
        let (p, t) = pair(0);
        let c = Molar::from_nano(100.0);
        let mut last = 0.0;
        for k in 1..=10 {
            let th = m.coverage_after(
                &p,
                &t,
                c,
                ROOM_TEMPERATURE,
                0.0,
                Seconds::new(60.0 * k as f64),
            );
            assert!(th >= last);
            last = th;
        }
    }

    #[test]
    fn washing_removes_mismatched_faster() {
        let m = HybridizationModel::default();
        let (p0, t0) = pair(0);
        let (p2, t2) = pair(2);
        let wash = Seconds::new(300.0);
        let kept0 = m.coverage_after_wash(&p0, &t0, ROOM_TEMPERATURE, 0.9, wash, 100.0);
        let kept2 = m.coverage_after_wash(&p2, &t2, ROOM_TEMPERATURE, 0.9, wash, 100.0);
        assert!(kept0 > kept2, "match retains more: {kept0} vs {kept2}");
    }

    #[test]
    fn melting_temperature_drops_with_mismatches() {
        let m = HybridizationModel::default();
        let (p0, t0) = pair(0);
        let (p4, t4) = pair(4);
        let tm0 = m.melting_temperature(&p0, &t0);
        let tm4 = m.melting_temperature(&p4, &t4);
        assert!(tm0 > tm4, "Tm(match) = {tm0}, Tm(4 mm) = {tm4}");
    }

    #[test]
    fn longer_probes_melt_higher() {
        let m = HybridizationModel::default();
        let mut rng = SmallRng::seed_from_u64(5);
        let p15 = DnaSequence::random(15, &mut rng);
        let p40 = DnaSequence::random(40, &mut rng);
        let tm15 = m.melting_temperature(&p15, &p15.reverse_complement());
        let tm40 = m.melting_temperature(&p40, &p40.reverse_complement());
        assert!(tm40 > tm15);
    }

    #[test]
    fn k_off_clamped_for_unstable_duplex() {
        let m = HybridizationModel::default();
        let mut rng = SmallRng::seed_from_u64(6);
        let probe = DnaSequence::random(20, &mut rng);
        let unrelated = DnaSequence::random(20, &mut rng);
        let k = m.k_off(&probe, &unrelated, ROOM_TEMPERATURE);
        assert!(k <= m.k_off_prefactor);
        assert!(k > 0.0);
    }

    #[test]
    fn higher_temperature_accelerates_off_rate() {
        let m = HybridizationModel::default();
        let (p, t) = pair(0);
        let cold = m.k_off(&p, &t, Kelvin::new(290.0));
        let hot = m.k_off(&p, &t, Kelvin::new(340.0));
        assert!(hot > cold);
    }
}
