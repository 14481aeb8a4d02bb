//! Order statistics over timing samples.

/// Nearest-rank percentile (`p` in `(0, 100]`) of an unsorted sample set.
/// Panics on an empty set: every caller has taken at least one sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_of(sorted.len(), p) - 1]
}

/// Median as the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank_of(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank_of(n, p)
}

/// The reporting rule: a percentile is quoted only with at least ten
/// samples beyond it.
pub fn has_ten_beyond(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is rank 90: exactly ten beyond it.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(has_ten_beyond(100, 90.0));
        assert!(!has_ten_beyond(99, 90.0));
        // 120 samples leave 12 beyond p90 but only 2 beyond p99.
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert!(!has_ten_beyond(120, 99.0));
        assert!(has_ten_beyond(20, 50.0));
        assert!(!has_ten_beyond(12, 50.0));
    }
}
