//! Spike sorting: separating the units recorded at one pixel.
//!
//! A pixel under two overlapping neurons sees both units' action
//! potentials; sorting clusters the detected snippets by waveform shape so
//! each unit gets its own spike train. Snippets are reduced to simple
//! shape features and clustered with deterministic k-means.

/// A detected spike snippet cut from a series.
#[derive(Debug, Clone, PartialEq)]
pub struct Snippet {
    /// Sample index of the detection in the source series.
    pub index: usize,
    /// The waveform window (aligned on the detection sample).
    pub samples: Vec<f64>,
}

/// Cuts fixed-size snippets around detection indices (windows that would
/// cross the series edges are skipped).
pub fn extract_snippets(
    series: &[f64],
    detections: &[usize],
    pre: usize,
    post: usize,
) -> Vec<Snippet> {
    detections
        .iter()
        .filter_map(|&i| {
            let window = series.get(i.checked_sub(pre)?..=i.checked_add(post)?)?;
            Some(Snippet {
                index: i,
                samples: window.to_vec(),
            })
        })
        .collect()
}

/// Shape features of one snippet: peak, trough, peak-to-trough distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeFeatures {
    /// Maximum sample value.
    pub peak: f64,
    /// Minimum sample value.
    pub trough: f64,
    /// Samples between the peak and the trough (signed).
    pub width: f64,
}

impl SpikeFeatures {
    /// Computes features from a snippet.
    ///
    /// # Panics
    ///
    /// Panics if the snippet is empty.
    pub fn of(snippet: &Snippet) -> Self {
        assert!(!snippet.samples.is_empty(), "empty snippet");
        let (mut peak, mut peak_i) = (f64::MIN, 0usize);
        let (mut trough, mut trough_i) = (f64::MAX, 0usize);
        for (i, &x) in snippet.samples.iter().enumerate() {
            if x > peak {
                peak = x;
                peak_i = i;
            }
            if x < trough {
                trough = x;
                trough_i = i;
            }
        }
        Self {
            peak,
            trough,
            width: trough_i as f64 - peak_i as f64,
        }
    }

    fn as_vec(&self) -> [f64; 3] {
        [self.peak, self.trough, self.width]
    }
}

/// Result of sorting: cluster label per snippet plus the cluster means.
#[derive(Debug, Clone, PartialEq)]
pub struct SortResult {
    /// Cluster label (0-based) per input snippet.
    pub labels: Vec<usize>,
    /// Cluster centroids in feature space (peak, trough, width).
    pub centroids: Vec<[f64; 3]>,
}

impl SortResult {
    /// Spike indices assigned to cluster `k`.
    pub fn unit_spikes(&self, snippets: &[Snippet], k: usize) -> Vec<usize> {
        self.labels
            .iter()
            .zip(snippets)
            .filter(|(l, _)| **l == k)
            .map(|(_, s)| s.index)
            .collect()
    }

    /// Number of snippets in each cluster.
    pub fn cluster_sizes(&self, k: usize) -> Vec<usize> {
        let mut sizes = vec![0usize; k];
        for l in &self.labels {
            if let Some(n) = sizes.get_mut(*l) {
                *n += 1;
            }
        }
        sizes
    }
}

/// Sorts snippets into `k` units with deterministic k-means on the shape
/// features (features are z-scored per dimension; initial centroids are
/// the means of `k` equal groups of snippets ordered by peak amplitude).
///
/// # Panics
///
/// Panics if `k == 0` or there are fewer snippets than clusters.
pub fn sort_spikes(snippets: &[Snippet], k: usize) -> SortResult {
    assert!(k > 0, "need at least one cluster");
    assert!(
        snippets.len() >= k,
        "need at least as many snippets as clusters"
    );
    let feats: Vec<[f64; 3]> = snippets
        .iter()
        .map(|s| SpikeFeatures::of(s).as_vec())
        .collect();

    // Z-score per dimension (avoid one feature dominating).
    let mut mean = [0.0f64; 3];
    let mut sd = [0.0f64; 3];
    for f in &feats {
        mean = zip_with(mean, *f, |m, x| m + x);
    }
    for m in &mut mean {
        *m /= feats.len() as f64;
    }
    for f in &feats {
        sd = zip_with(sd, zip_with(*f, mean, |x, m| (x - m).powi(2)), |s, v| s + v);
    }
    for s in &mut sd {
        *s = (*s / feats.len() as f64).sqrt().max(1e-12);
    }
    let normed: Vec<[f64; 3]> = feats
        .iter()
        .map(|f| zip_with(zip_with(*f, mean, |x, m| x - m), sd, |c, s| c / s))
        .collect();

    // Deterministic init: order snippets by peak and seed each centroid at
    // the mean of one of k equal groups along that order. A group mean,
    // unlike any single snippet, does not carry one snippet's feature noise
    // into the first assignment.
    let mut order: Vec<(f64, &[f64; 3])> = normed.iter().map(|f @ [peak, ..]| (*peak, f)).collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = normed.len();
    let mut centroids: Vec<[f64; 3]> = (0..k)
        .map(|j| {
            let group = order.get(j * n / k..(j + 1) * n / k).unwrap_or(&[]);
            let mut c = [0.0f64; 3];
            for (_, f) in group {
                c = zip_with(c, **f, |cd, fd| cd + fd);
            }
            c.map(|sum| sum / group.len().max(1) as f64)
        })
        .collect();

    let dist2 =
        |a: &[f64; 3], b: &[f64; 3]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum() };

    let mut labels = vec![0usize; normed.len()];
    for _ in 0..50 {
        // Assign.
        let mut changed = false;
        for (f, label) in normed.iter().zip(&mut labels) {
            let best = centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| dist2(f, a).total_cmp(&dist2(f, b)))
                .map_or(0, |(j, _)| j);
            if *label != best {
                *label = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![[0.0f64; 3]; k];
        let mut counts = vec![0usize; k];
        for (f, &l) in normed.iter().zip(&labels) {
            if let (Some(sum), Some(count)) = (sums.get_mut(l), counts.get_mut(l)) {
                *sum = zip_with(*sum, *f, |s, x| s + x);
                *count += 1;
            }
        }
        for ((c, sum), &count) in centroids.iter_mut().zip(&sums).zip(&counts) {
            if count > 0 {
                *c = sum.map(|s| s / count as f64);
            }
        }
        if !changed {
            break;
        }
    }

    // De-normalize centroids back to feature units.
    let centroids = centroids
        .into_iter()
        .map(|c| zip_with(zip_with(c, sd, |c, s| c * s), mean, |x, m| x + m))
        .collect();
    SortResult { labels, centroids }
}

/// Applies `op` to each pair of matching components.
fn zip_with(a: [f64; 3], b: [f64; 3], op: impl Fn(f64, f64) -> f64) -> [f64; 3] {
    let ([a0, a1, a2], [b0, b1, b2]) = (a, b);
    [op(a0, b0), op(a1, b1), op(a2, b2)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Series with two unit types: big biphasic and small monophasic.
    fn two_unit_series() -> (Vec<f64>, Vec<usize>, Vec<usize>) {
        let n = 2000;
        let mut series = vec![0.0f64; n];
        // Deterministic small noise.
        let mut state = 17u64;
        for s in series.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *s = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.02;
        }
        let unit_a: Vec<usize> = (100..2000).step_by(400).collect();
        let unit_b: Vec<usize> = (300..2000).step_by(400).collect();
        for &i in &unit_a {
            series[i] += 1.0;
            series[i + 1] -= 0.8;
        }
        for &i in &unit_b {
            series[i] += 0.4;
            series[i + 1] += 0.1;
        }
        (series, unit_a, unit_b)
    }

    #[test]
    fn snippets_extracted_around_detections() {
        let series: Vec<f64> = (0..100).map(|k| k as f64).collect();
        let snips = extract_snippets(&series, &[10, 50, 98], 3, 4);
        // Index 98 would cross the right edge: skipped.
        assert_eq!(snips.len(), 2);
        assert_eq!(snips[0].samples.len(), 8);
        assert_eq!(snips[0].samples[3], 10.0, "aligned on the detection");
    }

    #[test]
    fn features_capture_shape() {
        let s = Snippet {
            index: 5,
            samples: vec![0.0, 1.0, -0.5, 0.0],
        };
        let f = SpikeFeatures::of(&s);
        assert_eq!(f.peak, 1.0);
        assert_eq!(f.trough, -0.5);
        assert_eq!(f.width, 1.0);
    }

    #[test]
    fn two_units_are_separated() {
        let (series, unit_a, unit_b) = two_unit_series();
        let mut detections: Vec<usize> = unit_a.iter().chain(unit_b.iter()).copied().collect();
        detections.sort_unstable();
        let snips = extract_snippets(&series, &detections, 2, 4);
        let result = sort_spikes(&snips, 2);

        // Every unit-A spike lands in one cluster, every unit-B in the other.
        let label_of = |idx: usize| -> usize {
            let pos = snips.iter().position(|s| s.index == idx).unwrap();
            result.labels[pos]
        };
        let a_label = label_of(unit_a[0]);
        let b_label = label_of(unit_b[0]);
        assert_ne!(a_label, b_label, "units must get distinct clusters");
        for &i in &unit_a {
            assert_eq!(label_of(i), a_label, "unit A spike at {i}");
        }
        for &i in &unit_b {
            assert_eq!(label_of(i), b_label, "unit B spike at {i}");
        }
    }

    #[test]
    fn one_snippet_with_an_odd_width_does_not_split_a_unit() {
        // Two units of one shape at two amplitudes. The smallest snippet
        // has its trough three samples early, so its width alone sits
        // far out in z-score.
        let snippet = |index: usize, amp: f64, trough_at: usize| {
            let mut samples = vec![0.0, 0.4 * amp, amp, -0.5 * amp, -0.5 * amp, -0.5 * amp];
            samples.push(-0.6 * amp);
            if let Some(x) = samples.get_mut(trough_at) {
                *x = -0.7 * amp;
            }
            Snippet { index, samples }
        };
        let mut snips: Vec<Snippet> = (0..6)
            .map(|u| snippet(u, 1.0 + 0.01 * u as f64, 6))
            .collect();
        snips.extend((0..6).map(|u| snippet(10 + u, 0.4 + 0.01 * u as f64, 6)));
        if let Some(smallest) = snips.get_mut(6) {
            *smallest = snippet(10, 0.4, 3);
        }
        let result = sort_spikes(&snips, 2);
        let (big, small) = result.labels.split_at(6);
        assert!(big.iter().all(|l| Some(l) == big.first()), "{big:?}");
        assert!(small.iter().all(|l| Some(l) == small.first()), "{small:?}");
        assert_ne!(big.first(), small.first());
    }

    #[test]
    fn unit_spike_trains_are_recovered() {
        let (series, unit_a, _) = two_unit_series();
        let mut detections: Vec<usize> = (100..2000).step_by(400).collect();
        detections.extend((300..2000).step_by(400));
        detections.sort_unstable();
        let snips = extract_snippets(&series, &detections, 2, 4);
        let result = sort_spikes(&snips, 2);
        let sizes = result.cluster_sizes(2);
        assert_eq!(sizes.iter().sum::<usize>(), snips.len());
        // One of the clusters is exactly unit A's train.
        let t0 = result.unit_spikes(&snips, 0);
        let t1 = result.unit_spikes(&snips, 1);
        assert!(t0 == unit_a || t1 == unit_a, "{t0:?} / {t1:?}");
    }

    #[test]
    fn single_cluster_takes_everything() {
        let (series, _, _) = two_unit_series();
        let detections: Vec<usize> = (100..2000).step_by(400).collect();
        let snips = extract_snippets(&series, &detections, 2, 4);
        let result = sort_spikes(&snips, 1);
        assert!(result.labels.iter().all(|l| *l == 0));
        assert_eq!(result.centroids.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least as many snippets")]
    fn rejects_more_clusters_than_snippets() {
        let snips = vec![Snippet {
            index: 0,
            samples: vec![1.0],
        }];
        sort_spikes(&snips, 2);
    }

    #[test]
    fn sorting_is_deterministic() {
        let (series, unit_a, unit_b) = two_unit_series();
        let mut detections: Vec<usize> = unit_a.iter().chain(unit_b.iter()).copied().collect();
        detections.sort_unstable();
        let snips = extract_snippets(&series, &detections, 2, 4);
        let a = sort_spikes(&snips, 2);
        let b = sort_spikes(&snips, 2);
        assert_eq!(a, b);
    }
}
