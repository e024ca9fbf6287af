//! Frame-stack processing for the 128×128 neural array.
//!
//! A recording is a stack of frames (row-major pixel samples). Analysis
//! removes each pixel's static baseline (offsets survive even after
//! on-chip calibration: charge-injection residuals, channel gain spread)
//! and produces per-pixel activity statistics used to localize neurons on
//! the surface.

use crate::stats::median;

/// A stack of equally sized frames.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameStack {
    rows: usize,
    cols: usize,
    /// One Vec per frame, row-major.
    frames: Vec<Vec<f64>>,
}

impl FrameStack {
    /// Creates a stack from frames.
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `rows·cols`.
    pub fn new(rows: usize, cols: usize, frames: Vec<Vec<f64>>) -> Self {
        for (k, f) in frames.iter().enumerate() {
            assert_eq!(
                f.len(),
                rows * cols,
                "frame {k} has {} samples, expected {}",
                f.len(),
                rows * cols
            );
        }
        Self { rows, cols, frames }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` if the stack has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Rows per frame.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns per frame.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One frame's row-major samples, or `None` past the last frame.
    pub fn frame(&self, index: usize) -> Option<&[f64]> {
        self.frames.get(index).map(Vec::as_slice)
    }

    /// Every frame's row-major samples, in order.
    pub fn frames(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.frames.iter().map(Vec::as_slice)
    }

    /// Time series of one pixel across the stack.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of range.
    pub fn pixel_series(&self, row: usize, col: usize) -> Vec<f64> {
        assert!(row < self.rows && col < self.cols);
        let idx = row * self.cols + col;
        self.frames
            .iter()
            .filter_map(|f| f.get(idx).copied())
            .collect()
    }

    /// Per-pixel median across frames — the static baseline map.
    pub fn baseline_map(&self) -> Vec<f64> {
        if self.frames.is_empty() {
            return vec![0.0; self.rows * self.cols];
        }
        (0..self.rows * self.cols)
            .map(|idx| {
                let series: Vec<f64> = self
                    .frames
                    .iter()
                    .filter_map(|f| f.get(idx).copied())
                    .collect();
                // Frames are non-empty here (guarded above).
                median(&series).unwrap_or(0.0)
            })
            .collect()
    }

    /// Returns a baseline-subtracted copy of the stack.
    #[must_use]
    pub fn detrended(&self) -> Self {
        let base = self.baseline_map();
        let frames = self
            .frames
            .iter()
            .map(|f| f.iter().zip(base.iter()).map(|(x, b)| x - b).collect())
            .collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            frames,
        }
    }

    /// Per-pixel peak |deviation from baseline| — the activity map used to
    /// localize firing neurons under the array.
    pub fn activity_map(&self) -> Vec<f64> {
        let base = self.baseline_map();
        base.iter()
            .enumerate()
            .map(|(idx, b)| {
                self.frames
                    .iter()
                    .filter_map(|f| f.get(idx))
                    .map(|x| (x - b).abs())
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Per-pixel standard deviation around the baseline.
    pub fn std_map(&self) -> Vec<f64> {
        let base = self.baseline_map();
        base.iter()
            .enumerate()
            .map(|(idx, b)| {
                if self.frames.len() < 2 {
                    return 0.0;
                }
                let var = self
                    .frames
                    .iter()
                    .filter_map(|f| f.get(idx))
                    .map(|x| (x - b).powi(2))
                    .sum::<f64>()
                    / (self.frames.len() - 1) as f64;
                var.sqrt()
            })
            .collect()
    }

    /// Centroid (row, col) of the top-activity region: activity-weighted
    /// mean over pixels above `fraction`·max activity. Returns `None` for
    /// an all-zero map.
    pub fn activity_centroid(&self, fraction: f64) -> Option<(f64, f64)> {
        let act = self.activity_map();
        let max = act.iter().cloned().fold(0.0, f64::max);
        if max <= 0.0 {
            return None;
        }
        let thr = fraction.clamp(0.0, 1.0) * max;
        let mut wsum = 0.0;
        let mut rsum = 0.0;
        let mut csum = 0.0;
        for (idx, &a) in act.iter().enumerate() {
            if a >= thr {
                let r = (idx / self.cols) as f64;
                let c = (idx % self.cols) as f64;
                wsum += a;
                rsum += a * r;
                csum += a * c;
            }
        }
        Some((rsum / wsum, csum / wsum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4×4 stack with a static offset pattern plus one active pixel.
    fn stack_with_event() -> FrameStack {
        let rows = 4;
        let cols = 4;
        let mut frames = Vec::new();
        for t in 0..10 {
            let mut f: Vec<f64> = (0..16).map(|i| i as f64 * 0.1).collect(); // offsets
            if t == 5 {
                f[2 * cols + 1] += 3.0; // event at (2, 1)
            }
            frames.push(f);
        }
        FrameStack::new(rows, cols, frames)
    }

    #[test]
    fn baseline_recovers_static_offsets() {
        let s = stack_with_event();
        let base = s.baseline_map();
        for (i, b) in base.iter().enumerate() {
            assert!((b - i as f64 * 0.1).abs() < 1e-12, "pixel {i}");
        }
    }

    #[test]
    fn detrended_removes_offsets_keeps_events() {
        let s = stack_with_event().detrended();
        // Static pixels all ~0.
        assert!(s.pixel_series(0, 0).iter().all(|x| x.abs() < 1e-12));
        // The event survives.
        let series = s.pixel_series(2, 1);
        assert!((series[5] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn activity_map_highlights_the_event_pixel() {
        let s = stack_with_event();
        let act = s.activity_map();
        let max_idx = act
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, 2 * 4 + 1);
        assert!((act[max_idx] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_localizes_the_event() {
        let s = stack_with_event();
        let (r, c) = s.activity_centroid(0.5).unwrap();
        assert!((r - 2.0).abs() < 1e-9);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn centroid_none_for_silent_stack() {
        let s = FrameStack::new(2, 2, vec![vec![1.0; 4]; 5]);
        assert_eq!(s.activity_centroid(0.5), None);
    }

    #[test]
    fn std_map_zero_for_static_pixels() {
        let s = stack_with_event();
        let std = s.std_map();
        assert!(std[0] < 1e-12);
        assert!(std[2 * 4 + 1] > 0.5);
    }

    #[test]
    fn pixel_series_extraction() {
        let s = stack_with_event();
        let series = s.pixel_series(2, 1);
        assert_eq!(series.len(), 10);
        // Pixel (2, 1) is flat index 9: offset 0.9, +3.0 at frame 5.
        assert!((series[0] - 0.9).abs() < 1e-12);
        assert!((series[5] - 3.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn mismatched_frame_size_rejected() {
        FrameStack::new(2, 2, vec![vec![0.0; 3]]);
    }

    #[test]
    fn empty_stack_behaviour() {
        let s = FrameStack::new(2, 2, vec![]);
        assert!(s.is_empty());
        assert_eq!(s.baseline_map(), vec![0.0; 4]);
        assert_eq!(s.std_map(), vec![0.0; 4]);
    }
}
