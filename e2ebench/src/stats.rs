//! Exact order statistics over raw samples (no histogram buckets).

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps e.g. 0.99 * 1000 from rounding up to 991.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n)
}

/// The highest reported percentile that still has at least ten samples
/// above it, so a tail figure never rests on a handful of outliers.
/// Candidates run from p99 down to the median.
pub fn tail_percentile(n: usize) -> f64 {
    const CANDIDATES: [f64; 8] = [99.0, 98.0, 97.0, 96.0, 95.0, 90.0, 75.0, 50.0];
    for p in CANDIDATES {
        if n >= 10 && n - rank(n, p) >= 10 {
            return p;
        }
    }
    50.0
}

/// Samples sorted ascending (NaN-free input assumed).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> Option<f64> {
    percentile(&sorted(v.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&[5.0], 99.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten above it.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(500), 98.0);
        assert_eq!(tail_percentile(499), 97.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        for n in [10usize, 37, 250, 1000, 12345] {
            let p = tail_percentile(n);
            if n >= 20 {
                assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            }
        }
    }
}
