//! Redundant-spot layouts and majority voting for fault tolerance.
//!
//! A microarray die loses individual sites to fabrication defects and
//! in-field faults; the assay-level defense is redundancy. Each target's
//! probe is spotted on several sites, the replicates are *interleaved*
//! across the array (replicate r of target t at spot `r·targets + t`) so
//! that a clustered failure — a dead row, a lost readout channel — never
//! wipes out all replicates of one target, and the per-target call is a
//! majority vote over the replicates that survived the chip's health
//! screen. With three replicates and ≤ 10 % random site faults, a
//! genotyping panel still calls correctly.

/// Replicated-spot placement of a probe panel on a sensor array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundantLayout {
    targets: usize,
    replicates: usize,
}

/// One target's majority-voted call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VotedCall {
    /// Usable replicates voting "match".
    pub votes_match: usize,
    /// Usable replicates voting "mismatch".
    pub votes_mismatch: usize,
}

impl VotedCall {
    /// Replicates that contributed a vote (survived the health screen).
    pub fn usable_replicates(&self) -> usize {
        self.votes_match + self.votes_mismatch
    }

    /// The majority call. Ties — and the no-usable-replicate case —
    /// resolve to mismatch: a spurious positive is the costlier error in
    /// a genotyping panel.
    pub fn matched(&self) -> bool {
        self.votes_match > self.votes_mismatch
    }

    /// `true` when the vote carries no majority: no usable replicate at
    /// all, or an exact tie.
    pub fn is_inconclusive(&self) -> bool {
        self.votes_match == self.votes_mismatch
    }

    /// Fraction of usable replicates agreeing with the majority call
    /// (0 when no replicate is usable).
    pub fn confidence(&self) -> f64 {
        let n = self.usable_replicates();
        if n == 0 {
            0.0
        } else {
            self.votes_match.max(self.votes_mismatch) as f64 / n as f64
        }
    }
}

impl RedundantLayout {
    /// A layout spotting each of `targets` probes on `replicates` sites.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(targets: usize, replicates: usize) -> Self {
        assert!(targets > 0, "a layout needs at least one target");
        assert!(replicates > 0, "a layout needs at least one replicate");
        Self {
            targets,
            replicates,
        }
    }

    /// Number of distinct targets.
    pub fn targets(&self) -> usize {
        self.targets
    }

    /// Replicates per target.
    pub fn replicates(&self) -> usize {
        self.replicates
    }

    /// Total spots the layout occupies (`targets · replicates`).
    pub fn total_spots(&self) -> usize {
        self.targets * self.replicates
    }

    /// Target spotted at `spot`, or `None` past the end of the layout
    /// (spare sites on a larger die).
    pub fn target_of_spot(&self, spot: usize) -> Option<usize> {
        if spot < self.total_spots() {
            Some(spot % self.targets)
        } else {
            None
        }
    }

    /// Spot indices carrying one target's replicates.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn replicate_spots(&self, target: usize) -> Vec<usize> {
        assert!(target < self.targets, "target {target} out of range");
        (0..self.replicates)
            .map(|r| r * self.targets + target)
            .collect()
    }

    /// Expands one item per target into one item per spot, in layout
    /// order — used to build the spotting list for the chip.
    ///
    /// # Panics
    ///
    /// Panics if `per_target.len() != targets`.
    pub fn expand<T: Clone>(&self, per_target: &[T]) -> Vec<T> {
        assert_eq!(
            per_target.len(),
            self.targets,
            "expected {} items, got {}",
            self.targets,
            per_target.len()
        );
        // Spot `s` carries target `s % targets`: the list cycles.
        per_target
            .iter()
            .cycle()
            .take(self.total_spots())
            .cloned()
            .collect()
    }

    /// Majority-votes per-spot match flags down to per-target calls.
    /// Spots flagged unusable by the chip's health screen are excluded
    /// from the vote. `spot_matches` and `usable` may be longer than the
    /// layout (spare sites); the excess is ignored.
    ///
    /// # Panics
    ///
    /// Panics if either slice is shorter than [`Self::total_spots`], or
    /// if the two slices differ in length.
    pub fn vote(&self, spot_matches: &[bool], usable: &[bool]) -> Vec<VotedCall> {
        assert_eq!(
            spot_matches.len(),
            usable.len(),
            "calls and mask must align"
        );
        assert!(
            spot_matches.len() >= self.total_spots(),
            "layout covers {} spots, got {} calls",
            self.total_spots(),
            spot_matches.len()
        );
        let mut votes = vec![
            VotedCall {
                votes_match: 0,
                votes_mismatch: 0,
            };
            self.targets
        ];
        for spot in 0..self.total_spots() {
            if !usable[spot] {
                continue;
            }
            let v = &mut votes[spot % self.targets];
            if spot_matches[spot] {
                v.votes_match += 1;
            } else {
                v.votes_mismatch += 1;
            }
        }
        votes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicates_are_interleaved_not_blocked() {
        let layout = RedundantLayout::new(4, 3);
        assert_eq!(layout.total_spots(), 12);
        assert_eq!(layout.replicate_spots(1), vec![1, 5, 9]);
        assert_eq!(layout.target_of_spot(6), Some(2));
        assert_eq!(layout.target_of_spot(12), None);
    }

    #[test]
    fn expand_replicates_each_probe() {
        let layout = RedundantLayout::new(3, 2);
        let spotted = layout.expand(&["a", "b", "c"]);
        assert_eq!(spotted, vec!["a", "b", "c", "a", "b", "c"]);
    }

    #[test]
    fn unanimous_votes_pass_through() {
        let layout = RedundantLayout::new(2, 3);
        // target 0 matches everywhere, target 1 nowhere.
        let calls = [true, false, true, false, true, false];
        let usable = [true; 6];
        let votes = layout.vote(&calls, &usable);
        assert!(votes[0].matched());
        assert!(!votes[1].matched());
        assert_eq!(votes[0].confidence(), 1.0);
    }

    #[test]
    fn one_faulty_replicate_is_outvoted() {
        let layout = RedundantLayout::new(2, 3);
        // target 0's replicate at spot 2 reads dead (mismatch).
        let calls = [true, false, false, false, true, false];
        let usable = [true; 6];
        let votes = layout.vote(&calls, &usable);
        assert!(votes[0].matched(), "2-of-3 majority must hold");
        assert!((votes[0].confidence() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn masked_replicate_is_excluded_from_the_vote() {
        let layout = RedundantLayout::new(2, 3);
        // Spot 2 (target 0) is dead: its bogus mismatch is masked out.
        let calls = [true, false, false, false, true, false];
        let mut usable = [true; 6];
        usable[2] = false;
        let votes = layout.vote(&calls, &usable);
        assert_eq!(votes[0].usable_replicates(), 2);
        assert!(votes[0].matched());
        assert_eq!(votes[0].confidence(), 1.0);
    }

    #[test]
    fn tie_and_empty_votes_are_inconclusive_mismatches() {
        let layout = RedundantLayout::new(1, 2);
        let tie = layout.vote(&[true, false], &[true, true]);
        assert!(tie[0].is_inconclusive());
        assert!(!tie[0].matched());
        let empty = layout.vote(&[true, true], &[false, false]);
        assert!(empty[0].is_inconclusive());
        assert!(!empty[0].matched());
        assert_eq!(empty[0].confidence(), 0.0);
    }

    #[test]
    fn spare_spots_beyond_the_layout_are_ignored() {
        let layout = RedundantLayout::new(2, 2);
        let calls = [true, false, true, false, true, true];
        let usable = [true; 6];
        let votes = layout.vote(&calls, &usable);
        assert_eq!(votes.len(), 2);
        assert_eq!(votes[0].votes_match, 2);
        assert_eq!(votes[1].votes_mismatch, 2);
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_rejected() {
        RedundantLayout::new(3, 0);
    }
}
