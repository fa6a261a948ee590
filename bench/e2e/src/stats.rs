//! Order statistics shared by the run report and `compare`.

/// Percentiles the report may name, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before the report names it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps float noise in `p * n` (99.99 has no exact binary form) from
/// pushing an exact rank up by one.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile of ascending `sorted` samples (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder (50, 90, 99, 99.9, 99.99) that has
/// at least [`MIN_BEYOND`] of `n` samples strictly beyond its rank, or `None`
/// when even the median has fewer.
pub fn highest_resolved_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
}

/// Median (a copy of `values` is sorted; the mean of the middle pair for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
    }

    #[test]
    fn resolved_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond it; p99.9 has 1.
        assert_eq!(highest_resolved_percentile(1000), Some(99.0));
        assert_eq!(highest_resolved_percentile(999), Some(90.0));
        assert_eq!(highest_resolved_percentile(10_000), Some(99.9));
        assert_eq!(highest_resolved_percentile(100_000), Some(99.99));
        assert_eq!(highest_resolved_percentile(100), Some(90.0));
        assert_eq!(highest_resolved_percentile(20), Some(50.0));
        assert_eq!(highest_resolved_percentile(19), None);
        assert_eq!(highest_resolved_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
