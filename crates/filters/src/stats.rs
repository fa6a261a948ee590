//! Empirical measurement helpers: observed false-positive rates, fill
//! trajectories, and simple membership oracles used by experiments.

use rand::Rng;

use crate::concurrent::ConcurrentBloomFilter;

/// Result of an empirical false-positive measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FalsePositiveMeasurement {
    /// Number of non-member probes issued.
    pub probes: u64,
    /// Number of probes the filter (incorrectly) accepted.
    pub false_positives: u64,
    /// Observed rate `false_positives / probes`.
    pub rate: f64,
    /// Rate predicted from the filter's current fill ratio.
    pub predicted: f64,
}

/// Measures the false-positive rate of `filter` by probing it with `probes`
/// items drawn from `label` + a counter — items guaranteed (by construction
/// of the experiment) not to have been inserted.
pub fn measure_false_positive_rate(
    filter: &ConcurrentBloomFilter,
    label: &str,
    probes: u64,
) -> FalsePositiveMeasurement {
    let mut false_positives = 0;
    for i in 0..probes {
        let probe = format!("{label}-{i}");
        if filter.contains(probe.as_bytes()) {
            false_positives += 1;
        }
    }
    FalsePositiveMeasurement {
        probes,
        false_positives,
        rate: false_positives as f64 / probes as f64,
        predicted: filter.current_false_positive_probability(),
    }
}

/// Measures the false-positive rate using random byte-string probes from the
/// provided RNG (useful when string-shaped probes would bias a strategy).
pub fn measure_false_positive_rate_random<R: Rng>(
    filter: &ConcurrentBloomFilter,
    rng: &mut R,
    probes: u64,
) -> FalsePositiveMeasurement {
    let mut false_positives = 0;
    let mut buf = [0u8; 16];
    for _ in 0..probes {
        rng.fill(&mut buf);
        if filter.contains(&buf) {
            false_positives += 1;
        }
    }
    FalsePositiveMeasurement {
        probes,
        false_positives,
        rate: false_positives as f64 / probes as f64,
        predicted: filter.current_false_positive_probability(),
    }
}

/// One point of a fill/false-positive trajectory (the data behind Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Number of items inserted so far.
    pub inserted: u64,
    /// Hamming weight of the filter at that point.
    pub hamming_weight: u64,
    /// False-positive probability implied by the fill ratio.
    pub false_positive_probability: f64,
}

/// Inserts the given items one by one and records the filter state every
/// `sample_every` insertions (and after the last one).
pub fn fill_trajectory<'a, I>(
    filter: &ConcurrentBloomFilter,
    items: I,
    sample_every: u64,
) -> Vec<TrajectoryPoint>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    assert!(sample_every > 0, "sampling interval must be positive");
    let mut points = Vec::new();
    let mut count = 0u64;
    for item in items {
        filter.insert(item);
        count += 1;
        if count.is_multiple_of(sample_every) {
            points.push(TrajectoryPoint {
                inserted: count,
                hamming_weight: filter.hamming_weight(),
                false_positive_probability: filter.current_false_positive_probability(),
            });
        }
    }
    if !count.is_multiple_of(sample_every) {
        points.push(TrajectoryPoint {
            inserted: count,
            hamming_weight: filter.hamming_weight(),
            false_positive_probability: filter.current_false_positive_probability(),
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FilterParams;
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn loaded_filter() -> ConcurrentBloomFilter {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::optimal(2000, 0.02),
            KirschMitzenmacher::new(Murmur3_128),
        );
        for i in 0..2000 {
            filter.insert(format!("member-{i}").as_bytes());
        }
        filter
    }

    #[test]
    fn measured_rate_tracks_prediction() {
        let filter = loaded_filter();
        let measurement = measure_false_positive_rate(&filter, "probe", 20_000);
        assert!((measurement.rate - measurement.predicted).abs() < 0.01);
        assert_eq!(measurement.probes, 20_000);
    }

    #[test]
    fn random_probes_give_similar_rate() {
        let filter = loaded_filter();
        let mut rng = StdRng::seed_from_u64(1);
        let a = measure_false_positive_rate(&filter, "probe", 10_000);
        let b = measure_false_positive_rate_random(&filter, &mut rng, 10_000);
        assert!((a.rate - b.rate).abs() < 0.02);
    }

    #[test]
    fn trajectory_is_monotone_and_samples_correctly() {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::explicit(3200, 4, 600),
            KirschMitzenmacher::new(Murmur3_128),
        );
        let items: Vec<Vec<u8>> = (0..600).map(|i| format!("u{i}").into_bytes()).collect();
        let points = fill_trajectory(&filter, items.iter().map(|v| v.as_slice()), 100);
        assert_eq!(points.len(), 6);
        assert_eq!(points.last().expect("non-empty").inserted, 600);
        for pair in points.windows(2) {
            assert!(pair[1].hamming_weight >= pair[0].hamming_weight);
            assert!(pair[1].false_positive_probability >= pair[0].false_positive_probability);
        }
    }

    #[test]
    fn trajectory_records_trailing_partial_sample() {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::explicit(512, 3, 50),
            KirschMitzenmacher::new(Murmur3_128),
        );
        let items: Vec<Vec<u8>> = (0..55).map(|i| format!("u{i}").into_bytes()).collect();
        let points = fill_trajectory(&filter, items.iter().map(|v| v.as_slice()), 25);
        assert_eq!(points.len(), 3);
        assert_eq!(points[2].inserted, 55);
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_sampling_interval_rejected() {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::explicit(64, 2, 5),
            KirschMitzenmacher::new(Murmur3_128),
        );
        fill_trajectory(&filter, core::iter::empty(), 0);
    }
}
