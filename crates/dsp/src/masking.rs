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
        self.usable[row * self.cols + col]
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
        let usable_samples: Vec<f64> = samples
            .iter()
            .zip(&self.usable)
            .filter(|(_, u)| **u)
            .map(|(s, _)| *s)
            .collect();
        let global = median(&usable_samples).unwrap_or(0.0);

        let mut repairs = vec![Repair::Untouched; samples.len()];
        let mut repaired = samples.to_vec();
        for row in 0..self.rows {
            for col in 0..self.cols {
                let idx = row * self.cols + col;
                if self.usable[idx] {
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
                        if nr < 0 || nc < 0 || nr >= self.rows as i64 || nc >= self.cols as i64 {
                            continue;
                        }
                        let nidx = nr as usize * self.cols + nc as usize;
                        if self.usable[nidx] {
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
        let frames: Vec<Vec<f64>> = (0..stack.len())
            .map(|k| {
                let mut frame = stack.frame(k).to_vec();
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
        assert!((repaired.frame(0)[3] - 1.0).abs() < 1e-12);
        assert!((repaired.frame(1)[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "frame has")]
    fn length_mismatch_panics() {
        let mask = PixelMask::all_usable(2, 2);
        mask.interpolate(&mut [0.0; 3]);
    }
}
