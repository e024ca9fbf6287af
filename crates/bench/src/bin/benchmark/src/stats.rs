//! Order statistics: the percentile rule the benchmark reports by, and
//! the quartiles `compare` uses.

/// Linear-interpolated quantile of unsorted samples (`q` in 0..=1).
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The `pct`-th percentile, reported only when at least ten samples lie
/// beyond it: p50 needs 20 samples, p90 needs 100. A tail estimated from
/// fewer points is noise, so it is refused rather than printed.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let beyond = samples.len() * (100 - pct.min(100)) / 100;
    if beyond < 10 {
        return None;
    }
    quantile(samples, pct as f64 / 100.0)
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so spreads printed
/// here match the ones computed from the same values there.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some((data[0], data[0], data[0])),
        _ => {}
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let hundred = ramp(100);
        assert!(percentile(&hundred, 90).is_some());
        assert!(percentile(&hundred, 50).is_some());
        let twenty = ramp(20);
        assert_eq!(percentile(&twenty, 50), Some(10.5));
        assert_eq!(percentile(&twenty, 90), None);
        let nineteen = ramp(19);
        assert_eq!(percentile(&nineteen, 50), None);
        assert_eq!(percentile(&nineteen, 90), None);
        assert_eq!(percentile(&ramp(99), 90), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    }
}
