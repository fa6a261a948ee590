//! Chosen-insertion adversary: pollution and saturation (Section 4.1).
//!
//! The adversary crafts items whose `k` indexes all land on *currently unset*
//! bits (Equation (6)), so every insertion raises the Hamming weight by
//! exactly `k`. After `n` insertions the false-positive probability reaches
//! `(nk/m)^k` instead of the designed value, and `m/k` insertions saturate
//! the filter outright — a factor `log m` cheaper than random saturation.

use std::collections::HashSet;

use evilbloom_urlgen::UrlGenerator;

use crate::search::{search, SearchOutcome, SearchStats};
use crate::target::TargetFilter;

/// Result of crafting a batch of polluting items.
#[derive(Debug, Clone, PartialEq)]
pub struct PollutionPlan {
    /// The crafted items, in the order they must be inserted.
    pub items: Vec<String>,
    /// Search cost accounting.
    pub stats: SearchStats,
    /// Predicted false-positive probability once all items are inserted,
    /// assuming the filter initially had `initial_weight` set bits.
    pub predicted_false_positive: f64,
}

/// Crafts `count` polluting items against the current state of `filter`.
///
/// The search tracks a *shadow* set of bits claimed by already-accepted
/// items, so the plan stays valid when the items are inserted in order: each
/// item sets `k` bits that are fresh both in the real filter and relative to
/// the earlier items of the plan.
///
/// `generator` supplies the candidate URLs (the adversary's link farm);
/// `max_attempts` bounds the search.
pub fn craft_polluting_items<F: TargetFilter>(
    filter: &F,
    generator: &UrlGenerator,
    count: usize,
    max_attempts: u64,
) -> PollutionPlan {
    let m = filter.m();
    let k = filter.k();
    let initial_weight = filter.weight();
    let mut claimed: HashSet<u64> = HashSet::new();

    let outcome: SearchOutcome = search(
        count,
        max_attempts,
        |i| generator.url(i),
        |candidate| {
            let indexes = filter.indexes_of(candidate.as_bytes());
            let distinct: HashSet<u64> = indexes.iter().copied().collect();
            if distinct.len() != indexes.len() {
                return false;
            }
            let all_fresh =
                indexes.iter().all(|&idx| !filter.is_set(idx) && !claimed.contains(&idx));
            if all_fresh {
                claimed.extend(indexes);
            }
            all_fresh
        },
    );

    let final_weight = initial_weight + claimed.len() as u64;
    let predicted_false_positive = ((final_weight as f64 / m as f64).min(1.0)).powi(k as i32);

    PollutionPlan { items: outcome.items, stats: outcome.stats, predicted_false_positive }
}

/// Crafts enough polluting items to fully saturate the filter (`⌈zeros/k⌉`
/// items, the paper's `m/k` bound for an initially empty filter). Returns the
/// plan; call sites insert the items to realise the saturation.
pub fn craft_saturating_items<F: TargetFilter>(
    filter: &F,
    generator: &UrlGenerator,
    max_attempts: u64,
) -> PollutionPlan {
    let zeros = filter.m() - filter.weight();
    let needed = zeros.div_ceil(u64::from(filter.k())) as usize;
    craft_polluting_items(filter, generator, needed, max_attempts)
}

/// One point of the Figure 3 sweep: the false-positive probability after a
/// given number of insertions under a given strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertionSweepPoint {
    /// Number of items inserted so far.
    pub inserted: u64,
    /// Honest (uniform-insertion) false-positive probability.
    pub honest: f64,
    /// Fully adversarial false-positive probability.
    pub adversarial: f64,
    /// Mixed scenario: the first `honest_prefix` insertions are honest, the
    /// rest adversarial.
    pub partial: f64,
}

/// Computes the Figure 3 curves analytically for a filter of `m` bits and
/// `k` hash functions, sweeping insertions from 0 to `max_items` in steps of
/// `step`, with the partial curve switching from honest to adversarial after
/// `honest_prefix` insertions.
pub fn insertion_sweep(
    m: u64,
    k: u32,
    max_items: u64,
    step: u64,
    honest_prefix: u64,
) -> Vec<InsertionSweepPoint> {
    assert!(step > 0, "step must be positive");
    let mut points = Vec::new();
    let mut n = 0u64;
    while n <= max_items {
        let honest = evilbloom_analysis::false_positive::false_positive_approx(m, n, k);
        let adversarial = evilbloom_analysis::worst_case::adversarial_false_positive(m, n, k);
        let partial = if n <= honest_prefix {
            honest
        } else {
            // After the honest prefix the filter holds the expected honest
            // fill; every further insertion adds k fresh bits.
            let honest_fill =
                evilbloom_analysis::false_positive::expected_fill(m, honest_prefix, k);
            let extra_bits = (n - honest_prefix) * u64::from(k);
            let fill = (honest_fill + extra_bits as f64 / m as f64).min(1.0);
            fill.powi(k as i32)
        };
        points.push(InsertionSweepPoint { inserted: n, honest, adversarial, partial });
        n += step;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128, SaltedCrypto, Sha256};

    fn figure3_filter() -> ConcurrentBloomFilter {
        ConcurrentBloomFilter::new(
            FilterParams::explicit(3200, 4, 600),
            SaltedCrypto::new(Box::new(Sha256)),
        )
    }

    #[test]
    fn polluting_items_set_k_fresh_bits_each() {
        let filter = figure3_filter();
        let generator = UrlGenerator::new("pollute");
        let plan = craft_polluting_items(&filter, &generator, 50, 1_000_000);
        assert_eq!(plan.items.len(), 50);
        for item in &plan.items {
            let fresh = filter.insert(item.as_bytes());
            assert_eq!(fresh, 4, "every crafted item must set exactly k new bits");
        }
        assert_eq!(filter.hamming_weight(), 200);
    }

    #[test]
    fn pollution_beats_honest_false_positive_rate() {
        let filter = figure3_filter();
        let generator = UrlGenerator::new("pollute");
        let plan = craft_polluting_items(&filter, &generator, 422, 10_000_000);
        assert_eq!(plan.items.len(), 422);
        for item in &plan.items {
            filter.insert(item.as_bytes());
        }
        // The paper: 422 chosen insertions already reach the threshold 0.077
        // that honest insertions only reach after 600.
        let fpp = filter.current_false_positive_probability();
        assert!(fpp >= 0.075, "achieved {fpp}");
        assert!((plan.predicted_false_positive - fpp).abs() < 1e-9);
    }

    #[test]
    fn pollution_works_on_partially_filled_filters() {
        let filter = figure3_filter();
        for i in 0..400 {
            filter.insert(format!("honest-{i}").as_bytes());
        }
        let before = filter.hamming_weight();
        let generator = UrlGenerator::new("late-attack");
        let plan = craft_polluting_items(&filter, &generator, 60, 5_000_000);
        assert_eq!(plan.items.len(), 60);
        for item in &plan.items {
            filter.insert(item.as_bytes());
        }
        assert_eq!(filter.hamming_weight(), before + 60 * 4);
    }

    #[test]
    fn saturation_plan_kills_the_filter() {
        let params = FilterParams::explicit(64, 2, 20);
        let filter = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        let generator = UrlGenerator::new("saturate");
        let plan = craft_saturating_items(&filter, &generator, 50_000_000);
        assert_eq!(plan.items.len(), 32, "m/k items saturate an empty filter");
        for item in &plan.items {
            filter.insert(item.as_bytes());
        }
        assert!(filter.is_saturated());
        assert!(filter.contains(b"anything at all"));
    }

    #[test]
    fn search_cost_grows_with_filter_occupancy() {
        let filter = figure3_filter();
        let generator = UrlGenerator::new("cost");
        let empty_plan = craft_polluting_items(&filter, &generator, 20, 1_000_000);
        for i in 0..500 {
            filter.insert(format!("filler-{i}").as_bytes());
        }
        let loaded_plan = craft_polluting_items(&filter, &generator, 20, 10_000_000);
        assert!(
            loaded_plan.stats.attempts_per_accepted() > empty_plan.stats.attempts_per_accepted(),
            "loaded {} vs empty {}",
            loaded_plan.stats.attempts_per_accepted(),
            empty_plan.stats.attempts_per_accepted()
        );
    }

    #[test]
    fn insertion_sweep_reproduces_figure3_shape() {
        let points = insertion_sweep(3200, 4, 600, 50, 400);
        assert_eq!(points.len(), 13);
        let last = points.last().expect("non-empty");
        assert!((last.adversarial - 0.316).abs() < 0.01);
        assert!((last.honest - 0.077).abs() < 0.01);
        // Partial attack sits between the honest and fully adversarial curve.
        assert!(last.partial > last.honest && last.partial < last.adversarial);
        // Before the switch point the partial curve equals the honest one.
        let at_switch = &points[8];
        assert_eq!(at_switch.inserted, 400);
        assert!((at_switch.partial - at_switch.honest).abs() < 1e-12);
    }

    #[test]
    fn sweep_curves_are_monotone() {
        let points = insertion_sweep(3200, 4, 600, 25, 300);
        for pair in points.windows(2) {
            assert!(pair[1].honest >= pair[0].honest);
            assert!(pair[1].adversarial >= pair[0].adversarial);
            assert!(pair[1].partial >= pair[0].partial);
        }
    }
}
