//! Compound libraries.

use bsa_rng::SmallRng;

/// One compound in the library, with its (latent) ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Compound {
    /// Stable identifier.
    pub id: u64,
    /// Whether the compound is truly active against the target.
    pub active: bool,
    /// Latent potency in `[0, 1]` (0 for inactives; actives spread over
    /// `(0, 1]`): stages with imperfect sensitivity miss weak actives
    /// preferentially.
    pub potency: f64,
}

/// A synthetic compound library.
#[derive(Debug, Clone, PartialEq)]
pub struct CompoundLibrary {
    compounds: Vec<Compound>,
}

impl CompoundLibrary {
    /// Generates `n` compounds with the given true-active rate, seeded.
    pub fn generate(n: usize, active_rate: f64, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let compounds = (0..n as u64)
            .map(|id| {
                let active = rng.next_f64() < active_rate;
                let potency = if active {
                    // Skew toward weak actives (square of uniform).
                    let u: f64 = rng.next_f64();
                    (1.0 - u * u).max(0.05)
                } else {
                    0.0
                };
                Compound {
                    id,
                    active,
                    potency,
                }
            })
            .collect();
        Self { compounds }
    }

    /// The compounds.
    pub fn compounds(&self) -> &[Compound] {
        &self.compounds
    }

    /// Library size.
    pub fn len(&self) -> usize {
        self.compounds.len()
    }

    /// `true` for an empty library.
    pub fn is_empty(&self) -> bool {
        self.compounds.is_empty()
    }

    /// Number of truly active compounds.
    pub fn true_active_count(&self) -> usize {
        self.compounds.iter().filter(|c| c.active).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_hits_requested_rate() {
        let lib = CompoundLibrary::generate(200_000, 1e-3, 1);
        let rate = lib.true_active_count() as f64 / lib.len() as f64;
        assert!((rate - 1e-3).abs() < 3e-4, "rate = {rate}");
    }

    #[test]
    fn inactives_have_zero_potency() {
        let lib = CompoundLibrary::generate(10_000, 0.01, 2);
        for c in lib.compounds() {
            if c.active {
                assert!(c.potency > 0.0 && c.potency <= 1.0);
            } else {
                assert_eq!(c.potency, 0.0);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CompoundLibrary::generate(1000, 0.01, 3);
        let b = CompoundLibrary::generate(1000, 0.01, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn ids_are_sequential() {
        let lib = CompoundLibrary::generate(5, 0.5, 4);
        let ids: Vec<u64> = lib.compounds().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_library() {
        let lib = CompoundLibrary::generate(0, 0.1, 5);
        assert!(lib.is_empty());
        assert_eq!(lib.true_active_count(), 0);
    }
}
