//! Dead-pixel masking and neighbor interpolation.
//!
//! Fabrication defects and in-field faults leave individual sensor sites
//! unusable; calibration flags them, and downstream processing must not
//! let a dead pixel's bogus sample leak into maps, filters, or calls.
//! This module carries the per-pixel usability mask produced by the
//! chip-side health monitor (as plain booleans, row-major) and repairs
//! masked samples by averaging their usable neighbors — the standard
//! graceful-degradation move for imaging arrays.

use crate::frames::FrameStack;
use crate::stats::median;

/// Row-major per-pixel usability mask over a sensor array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PixelMask {
    rows: usize,
    cols: usize,
    usable: Vec<bool>,
}

/// How a masked pixel was repaired by [`PixelMask::interpolate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// The pixel was usable; its sample is untouched.
    Untouched,
    /// Replaced by the mean of its usable 8-neighborhood.
    FromNeighbors,
    /// No usable neighbor existed; replaced by the median of all usable
    /// samples in the frame (0.0 if the whole frame is masked).
    FromGlobalMedian,
}

/// Per-frame repair summary from [`PixelMask::interpolate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// One entry per pixel, row-major.
    pub repairs: Vec<Repair>,
}

impl RepairReport {
    /// Number of pixels repaired from their neighborhood.
    pub fn from_neighbors(&self) -> usize {
        self.repairs
            .iter()
            .filter(|r| **r == Repair::FromNeighbors)
            .count()
    }

    /// Number of pixels that fell back to the global median.
    pub fn from_global_median(&self) -> usize {
        self.repairs
            .iter()
            .filter(|r| **r == Repair::FromGlobalMedian)
            .count()
    }

    /// Total repaired pixels.
    pub fn repaired(&self) -> usize {
        self.repairs
            .iter()
            .filter(|r| **r != Repair::Untouched)
            .count()
    }
}

impl PixelMask {
    /// Creates a mask from row-major usability flags.
    ///
    /// # Panics
    ///
    /// Panics if `usable.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, usable: Vec<bool>) -> Self {
        assert_eq!(
            usable.len(),
            rows * cols,
            "mask has {} flags, expected {}",
            usable.len(),
            rows * cols
        );
        Self { rows, cols, usable }
    }

    /// A mask with every pixel usable.
    pub fn all_usable(rows: usize, cols: usize) -> Self {
        Self::new(rows, cols, vec![true; rows * cols])
    }

    /// Rows in the array.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns in the array.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total pixels.
    pub fn len(&self) -> usize {
        self.usable.len()
    }

    /// `true` if the mask covers zero pixels.
    pub fn is_empty(&self) -> bool {
        self.usable.is_empty()
    }

    /// Usability of one pixel.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn is_usable(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "address out of range");
        self.usable.get(row * self.cols + col) == Some(&true)
    }

    /// The raw row-major flags.
    pub fn flags(&self) -> &[bool] {
        &self.usable
    }

    /// Number of masked (unusable) pixels.
    pub fn masked_count(&self) -> usize {
        self.usable.iter().filter(|u| !**u).count()
    }

    /// Fraction of masked pixels (0 for an empty mask).
    pub fn masked_fraction(&self) -> f64 {
        if self.usable.is_empty() {
            0.0
        } else {
            self.masked_count() as f64 / self.usable.len() as f64
        }
    }

    /// Repairs one row-major frame in place: every masked pixel is
    /// replaced by the mean of its usable 8-neighbors, falling back to
    /// the median of all usable samples when a masked pixel is fully
    /// surrounded by other masked pixels (an isolated cluster). Usable
    /// pixels are never modified, and interpolation only ever reads
    /// usable sources — faulty samples cannot contaminate the repair.
    /// That is also why the repair can write in place: no repair reads a
    /// sample another repair wrote. The median is computed only if some
    /// masked pixel needs it.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` differs from the mask size.
    pub fn interpolate(&self, samples: &mut [f64]) -> RepairReport {
        assert_eq!(
            samples.len(),
            self.usable.len(),
            "frame has {} samples, mask covers {}",
            samples.len(),
            self.usable.len()
        );
        let mut global = None;
        let mut repairs = vec![Repair::Untouched; samples.len()];
        for (idx, (usable, repair)) in self.usable.iter().zip(&mut repairs).enumerate() {
            if *usable {
                continue;
            }
            // `idx < rows * cols`, so `cols > 0` here.
            let (row, col) = (idx / self.cols, idx % self.cols);
            let mut sum = 0.0;
            let mut n = 0usize;
            // The 8-neighborhood in row-major order; the center is masked,
            // so the usable test skips it.
            for nr in row.saturating_sub(1)..(row + 2).min(self.rows) {
                for nc in col.saturating_sub(1)..(col + 2).min(self.cols) {
                    let nidx = nr * self.cols + nc;
                    if let (Some(true), Some(s)) = (self.usable.get(nidx), samples.get(nidx)) {
                        sum += s;
                        n += 1;
                    }
                }
            }
            let value = if n > 0 {
                *repair = Repair::FromNeighbors;
                sum / n as f64
            } else {
                *repair = Repair::FromGlobalMedian;
                *global.get_or_insert_with(|| self.usable_median(samples))
            };
            if let Some(s) = samples.get_mut(idx) {
                *s = value;
            }
        }
        RepairReport { repairs }
    }

    /// Median of the usable samples of a frame, 0.0 when none is usable.
    fn usable_median(&self, samples: &[f64]) -> f64 {
        let usable_samples: Vec<f64> = samples
            .iter()
            .zip(&self.usable)
            .filter(|(_, u)| **u)
            .map(|(s, _)| *s)
            .collect();
        median(&usable_samples).unwrap_or(0.0)
    }

    /// Repairs every frame of a stack, returning the repaired stack.
    pub fn repair_stack(&self, stack: &FrameStack) -> FrameStack {
        assert_eq!(
            (stack.rows(), stack.cols()),
            (self.rows, self.cols),
            "stack geometry {}×{} differs from mask {}×{}",
            stack.rows(),
            stack.cols(),
            self.rows,
            self.cols
        );
        let frames: Vec<Vec<f64>> = stack
            .frames()
            .map(|frame| {
                let mut frame = frame.to_vec();
                self.interpolate(&mut frame);
                frame
            })
            .collect();
        FrameStack::new(stack.rows(), stack.cols(), frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_rng::SmallRng;

    /// The copy-and-median repair `interpolate` replaced: copies the
    /// frame, takes the median of every usable sample up front, and
    /// writes the repaired copy back.
    fn reference_interpolate(mask: &PixelMask, samples: &mut [f64]) -> RepairReport {
        let usable_samples: Vec<f64> = samples
            .iter()
            .zip(&mask.usable)
            .filter(|(_, u)| **u)
            .map(|(s, _)| *s)
            .collect();
        let global = median(&usable_samples).unwrap_or(0.0);
        let mut repairs = vec![Repair::Untouched; samples.len()];
        let mut repaired = samples.to_vec();
        for row in 0..mask.rows {
            for col in 0..mask.cols {
                let idx = row * mask.cols + col;
                if mask.usable[idx] {
                    continue;
                }
                let mut sum = 0.0;
                let mut n = 0usize;
                for dr in -1i64..=1 {
                    for dc in -1i64..=1 {
                        if dr == 0 && dc == 0 {
                            continue;
                        }
                        let (nr, nc) = (row as i64 + dr, col as i64 + dc);
                        if nr < 0 || nc < 0 || nr >= mask.rows as i64 || nc >= mask.cols as i64 {
                            continue;
                        }
                        let nidx = nr as usize * mask.cols + nc as usize;
                        if mask.usable[nidx] {
                            sum += samples[nidx];
                            n += 1;
                        }
                    }
                }
                if n > 0 {
                    repaired[idx] = sum / n as f64;
                    repairs[idx] = Repair::FromNeighbors;
                } else {
                    repaired[idx] = global;
                    repairs[idx] = Repair::FromGlobalMedian;
                }
            }
        }
        samples.copy_from_slice(&repaired);
        RepairReport { repairs }
    }

    /// In-place repair is bit-identical to the copy-and-median
    /// reference, at every mask density from none to all masked, over 256
    /// seeded random frames.
    #[test]
    fn in_place_repair_matches_the_copying_reference() {
        for case in 0..256 {
            let mut rng = SmallRng::seed_from_u64(case);
            let rows = rng.gen_range(0..10);
            let cols = rng.gen_range(0..10);
            let masked_below = rng.gen_range(0..5);
            let mut usable = Vec::new();
            let mut got = Vec::new();
            for _ in 0..rows * cols {
                usable.push(rng.gen_range(0..4) >= masked_below);
                // Finite samples of every magnitude from 1e-300 to 1e300.
                let mantissa = 2.0 * rng.next_f64() - 1.0;
                got.push(mantissa * 10f64.powf(600.0 * rng.next_f64() - 300.0));
            }
            let mask = PixelMask::new(rows, cols, usable);
            let mut want = got.clone();
            let got_report = mask.interpolate(&mut got);
            let want_report = reference_interpolate(&mask, &mut want);
            assert_eq!(got_report, want_report, "case {case}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "case {case}");
        }
    }

    #[test]
    fn usable_pixels_pass_through_untouched() {
        let mask = PixelMask::all_usable(3, 3);
        let mut frame: Vec<f64> = (0..9).map(|k| k as f64).collect();
        let original = frame.clone();
        let report = mask.interpolate(&mut frame);
        assert_eq!(frame, original);
        assert_eq!(report.repaired(), 0);
    }

    #[test]
    fn masked_pixel_becomes_neighbor_mean() {
        let mut usable = vec![true; 9];
        usable[4] = false; // center of 3×3
        let mask = PixelMask::new(3, 3, usable);
        let mut frame = vec![2.0; 9];
        frame[4] = 1e9; // bogus dead-pixel sample
        let report = mask.interpolate(&mut frame);
        assert!((frame[4] - 2.0).abs() < 1e-12);
        assert_eq!(report.from_neighbors(), 1);
    }

    #[test]
    fn corner_pixel_uses_only_in_bounds_neighbors() {
        let mut usable = vec![true; 4];
        usable[0] = false;
        let mask = PixelMask::new(2, 2, usable);
        let mut frame = vec![0.0, 3.0, 6.0, 9.0];
        mask.interpolate(&mut frame);
        assert!((frame[0] - 6.0).abs() < 1e-12, "mean of 3, 6, 9");
    }

    #[test]
    fn isolated_cluster_falls_back_to_global_median() {
        // A fully masked 3-wide band: the middle column of the band has
        // no usable neighbor.
        let rows = 3;
        let cols = 5;
        let mut usable = vec![true; rows * cols];
        for r in 0..rows {
            for c in 1..4 {
                usable[r * cols + c] = false;
            }
        }
        let mask = PixelMask::new(rows, cols, usable);
        let mut frame = vec![7.0; rows * cols];
        for r in 0..rows {
            frame[r * cols + 2] = -1.0;
        }
        let report = mask.interpolate(&mut frame);
        assert_eq!(report.from_global_median(), rows);
        for r in 0..rows {
            assert!((frame[r * cols + 2] - 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fully_masked_frame_repairs_to_zero() {
        let mask = PixelMask::new(2, 2, vec![false; 4]);
        let mut frame = vec![42.0; 4];
        let report = mask.interpolate(&mut frame);
        assert_eq!(frame, vec![0.0; 4]);
        assert_eq!(report.repaired(), 4);
    }

    #[test]
    fn masked_fraction_counts() {
        let mask = PixelMask::new(2, 2, vec![true, false, false, true]);
        assert_eq!(mask.masked_count(), 2);
        assert!((mask.masked_fraction() - 0.5).abs() < 1e-12);
        assert!(mask.is_usable(0, 0));
        assert!(!mask.is_usable(0, 1));
    }

    #[test]
    fn repair_stack_repairs_every_frame() {
        let mut usable = vec![true; 4];
        usable[3] = false;
        let mask = PixelMask::new(2, 2, usable);
        let stack = FrameStack::new(
            2,
            2,
            vec![vec![1.0, 1.0, 1.0, 100.0], vec![2.0, 2.0, 2.0, -50.0]],
        );
        let repaired = mask.repair_stack(&stack);
        assert_eq!(repaired.frame(0), Some(&[1.0; 4][..]));
        assert_eq!(repaired.frame(1), Some(&[2.0; 4][..]));
    }

    #[test]
    #[should_panic(expected = "frame has")]
    fn length_mismatch_panics() {
        let mask = PixelMask::all_usable(2, 2);
        mask.interpolate(&mut [0.0; 3]);
    }
}
