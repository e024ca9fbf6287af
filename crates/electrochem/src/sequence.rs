//! DNA sequences and complementarity.
//!
//! Probe molecules on the chip are 15–40-mers; targets are "up to 2…3
//! orders of magnitude longer" (paper Fig. 2 caption). Hybridization occurs
//! between complementary strands; this module provides the sequence algebra
//! the hybridization model is built on.

use bsa_rng::SmallRng;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A single DNA base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Base {
    /// Adenine.
    A,
    /// Cytosine.
    C,
    /// Guanine.
    G,
    /// Thymine.
    T,
}

impl Base {
    /// All four bases in alphabetical order.
    pub const ALL: [Self; 4] = [Self::A, Self::C, Self::G, Self::T];

    /// Watson–Crick complement.
    ///
    /// # Examples
    ///
    /// ```
    /// use bsa_electrochem::sequence::Base;
    /// assert_eq!(Base::A.complement(), Base::T);
    /// assert_eq!(Base::G.complement(), Base::C);
    /// ```
    pub fn complement(self) -> Self {
        match self {
            Self::A => Self::T,
            Self::T => Self::A,
            Self::C => Self::G,
            Self::G => Self::C,
        }
    }

    /// `true` for G or C (three hydrogen bonds, stronger pairing).
    pub fn is_gc(self) -> bool {
        matches!(self, Self::G | Self::C)
    }

    /// Character representation.
    pub fn to_char(self) -> char {
        match self {
            Self::A => 'A',
            Self::C => 'C',
            Self::G => 'G',
            Self::T => 'T',
        }
    }

    /// Parses a base from a character (case-insensitive).
    pub fn from_char(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            'A' => Some(Self::A),
            'C' => Some(Self::C),
            'G' => Some(Self::G),
            'T' => Some(Self::T),
            _ => None,
        }
    }
}

/// Error returned when parsing a DNA sequence from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSequenceError {
    position: usize,
    character: char,
}

impl fmt::Display for ParseSequenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid base {:?} at position {}",
            self.character, self.position
        )
    }
}

impl Error for ParseSequenceError {}

/// An immutable DNA sequence (5'→3').
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DnaSequence {
    bases: Vec<Base>,
}

impl DnaSequence {
    /// Creates a sequence from bases.
    pub fn new(bases: Vec<Base>) -> Self {
        Self { bases }
    }

    /// Generates a uniformly random sequence of the given length.
    pub fn random(len: usize, rng: &mut SmallRng) -> Self {
        let [a, c, g, t] = Base::ALL;
        let bases = (0..len)
            .map(|_| match rng.gen_range(0..Base::ALL.len()) {
                0 => a,
                1 => c,
                2 => g,
                _ => t,
            })
            .collect();
        Self { bases }
    }

    /// Length in bases.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// `true` if the sequence has no bases.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// The bases slice.
    pub fn bases(&self) -> &[Base] {
        &self.bases
    }

    /// Fraction of G/C bases, in `[0, 1]` (0 for an empty sequence).
    pub fn gc_content(&self) -> f64 {
        if self.bases.is_empty() {
            return 0.0;
        }
        self.bases.iter().filter(|b| b.is_gc()).count() as f64 / self.bases.len() as f64
    }

    /// Base-wise complement (3'→5' of the original orientation).
    pub fn complement(&self) -> Self {
        Self {
            bases: self.bases.iter().map(|b| b.complement()).collect(),
        }
    }

    /// Reverse complement: the strand that hybridizes with this one in
    /// antiparallel orientation.
    ///
    /// # Examples
    ///
    /// ```
    /// use bsa_electrochem::sequence::DnaSequence;
    /// let s: DnaSequence = "ATGC".parse()?;
    /// assert_eq!(s.reverse_complement().to_string(), "GCAT");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn reverse_complement(&self) -> Self {
        Self {
            bases: self.bases.iter().rev().map(|b| b.complement()).collect(),
        }
    }

    /// Returns a copy with `n` point mutations at deterministic, spread-out
    /// positions (each mutated base is replaced by the next base cyclically,
    /// guaranteeing a real change). Used to construct k-mismatch targets.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    #[must_use]
    pub fn with_mismatches(&self, n: usize) -> Self {
        assert!(n <= self.len(), "cannot mutate more bases than exist");
        let mut bases = self.bases.clone();
        if n == 0 {
            return Self { bases };
        }
        let stride = self.len() as f64 / n as f64;
        for k in 0..n {
            let idx = (k as f64 * stride) as usize;
            if let Some(b) = bases.get_mut(idx) {
                // Any substitution that is not the identity works; cycle
                // A→C→G→T→A so the mutation is deterministic.
                *b = match *b {
                    Base::A => Base::C,
                    Base::C => Base::G,
                    Base::G => Base::T,
                    Base::T => Base::A,
                };
            }
        }
        Self { bases }
    }

    /// Number of positions at which `self` pairs complementarily with
    /// `other` at the best antiparallel alignment: the probe is slid along
    /// the (reversed) target and the alignment with the most Watson–Crick
    /// pairs wins. Targets shorter than the probe compare over the overlap.
    pub fn complementary_matches(&self, other: &Self) -> usize {
        if self.is_empty() || other.is_empty() {
            return 0;
        }
        let rev: Vec<Base> = other.bases.iter().rev().copied().collect();
        if rev.len() < self.len() {
            return self
                .bases
                .iter()
                .zip(rev.iter())
                .filter(|(a, b)| a.complement() == **b)
                .count();
        }
        rev.windows(self.len())
            .map(|w| {
                self.bases
                    .iter()
                    .zip(w.iter())
                    .filter(|(a, b)| a.complement() == **b)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of mismatched positions at the best hybridization alignment
    /// with `other` (antiparallel), over the shorter of the two lengths.
    pub fn mismatches_with(&self, other: &Self) -> usize {
        let overlap = self.len().min(other.len());
        overlap - self.complementary_matches(other)
    }

    /// `true` if `other` contains the perfect hybridization partner over
    /// the full probe length.
    pub fn is_perfect_match(&self, other: &Self) -> bool {
        other.len() >= self.len() && self.mismatches_with(other) == 0
    }
}

impl fmt::Display for DnaSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bases {
            write!(f, "{}", b.to_char())?;
        }
        Ok(())
    }
}

impl FromStr for DnaSequence {
    type Err = ParseSequenceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bases = Vec::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            if c.is_whitespace() {
                continue;
            }
            match Base::from_char(c) {
                Some(b) => bases.push(b),
                None => {
                    return Err(ParseSequenceError {
                        position: i,
                        character: c,
                    })
                }
            }
        }
        Ok(Self { bases })
    }
}

impl FromIterator<Base> for DnaSequence {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        Self {
            bases: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        let s: DnaSequence = "ACGTacgt".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTACGT");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn parse_rejects_invalid_base() {
        let err = "ACGX".parse::<DnaSequence>().unwrap_err();
        assert_eq!(err.to_string(), "invalid base 'X' at position 3");
    }

    #[test]
    fn parse_skips_whitespace() {
        let s: DnaSequence = "ACG T".parse().unwrap();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn gc_content_values() {
        let s: DnaSequence = "GGCC".parse().unwrap();
        assert_eq!(s.gc_content(), 1.0);
        let s: DnaSequence = "ATAT".parse().unwrap();
        assert_eq!(s.gc_content(), 0.0);
        let s: DnaSequence = "ATGC".parse().unwrap();
        assert_eq!(s.gc_content(), 0.5);
        assert_eq!(DnaSequence::new(vec![]).gc_content(), 0.0);
    }

    #[test]
    fn reverse_complement_hybridizes_perfectly() {
        let mut rng = SmallRng::seed_from_u64(1);
        let probe = DnaSequence::random(25, &mut rng);
        let target = probe.reverse_complement();
        assert!(probe.is_perfect_match(&target));
        assert_eq!(probe.mismatches_with(&target), 0);
    }

    #[test]
    fn reverse_complement_is_involution() {
        let mut rng = SmallRng::seed_from_u64(2);
        let s = DnaSequence::random(30, &mut rng);
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn with_mismatches_changes_exactly_n_positions() {
        let mut rng = SmallRng::seed_from_u64(3);
        let probe = DnaSequence::random(20, &mut rng);
        let target = probe.reverse_complement();
        for n in 0..=5 {
            let mutated = target.with_mismatches(n);
            assert_eq!(probe.mismatches_with(&mutated), n, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot mutate")]
    fn with_mismatches_rejects_excess() {
        let s: DnaSequence = "ACGT".parse().unwrap();
        let _ = s.with_mismatches(5);
    }

    #[test]
    fn longer_target_still_matches_probe() {
        // Target 10× longer than the probe (paper: targets are orders of
        // magnitude longer); the binding site is embedded mid-target.
        let mut rng = SmallRng::seed_from_u64(4);
        let probe = DnaSequence::random(20, &mut rng);
        let mut bases = DnaSequence::random(90, &mut rng).bases().to_vec();
        bases.extend_from_slice(probe.reverse_complement().bases());
        bases.extend_from_slice(DnaSequence::random(90, &mut rng).bases());
        let target = DnaSequence::new(bases);
        assert!(probe.is_perfect_match(&target));
        assert_eq!(probe.mismatches_with(&target), 0);
    }

    #[test]
    fn unrelated_target_has_many_mismatches() {
        let mut rng = SmallRng::seed_from_u64(14);
        let probe = DnaSequence::random(24, &mut rng);
        let target = DnaSequence::random(24, &mut rng);
        // A random 24-mer pairs at ~25 % of positions by chance; the best
        // single alignment should still leave many mismatches.
        assert!(probe.mismatches_with(&target) >= 8);
        assert!(!probe.is_perfect_match(&target));
    }

    #[test]
    fn random_sequences_are_seed_deterministic() {
        let mut a = SmallRng::seed_from_u64(5);
        let mut b = SmallRng::seed_from_u64(5);
        assert_eq!(
            DnaSequence::random(40, &mut a),
            DnaSequence::random(40, &mut b)
        );
    }

    #[test]
    fn random_base_composition_is_uniform() {
        let mut rng = SmallRng::seed_from_u64(6);
        let s = DnaSequence::random(40_000, &mut rng);
        let gc = s.gc_content();
        assert!((gc - 0.5).abs() < 0.02, "gc = {gc}");
    }

    #[test]
    fn from_iterator_collects() {
        let s: DnaSequence = [Base::A, Base::C].into_iter().collect();
        assert_eq!(s.to_string(), "AC");
    }
}
