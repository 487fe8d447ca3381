//! Order statistics used for every reported timing.

/// Median of `values` (mean of the two middle samples when even).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, or `None` when even p50 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 640 delta jobs: p90 leaves 64 beyond, p95 32, p99 6.
        assert_eq!(tail_percentile(640), Some(95.0));
        assert_eq!(samples_beyond(640, 90.0), 64);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail_percentile(100), Some(90.0));
        // 99 samples: p90 -> rank 90, 9 beyond; falls back to p50.
        assert_eq!(tail_percentile(99), Some(50.0));
        // Nine one-shot runs: no percentile has ten samples beyond.
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(20_000), Some(99.9));
    }
}
