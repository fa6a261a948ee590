//! A Dablooms-style *scaling, counting* Bloom filter — the data structure
//! Bitly proposed for filtering malicious URLs and the target of Section 6.
//!
//! Dablooms combines two Bloom-filter variants:
//!
//! * **counting** sub-filters (4-bit counters) so URLs can be delisted, and
//! * **scalable** growth so the number of URLs need not be fixed a priori
//!   (`f_i = f_0 · r^i`, `r = 0.9`).
//!
//! [`Dablooms`] is therefore the scalable stack with counting slices,
//! [`ConcurrentScalableFilter<ConcurrentCountingFilter>`]: growth, queries
//! and statistics are the stack's, and this module adds the
//! [`ScalableConfig`] constructor and the two deletions. Index derivation
//! uses MurmurHash3 with the Kirsch–Mitzenmacher trick, exactly the
//! combination the paper points out is trivially predictable and
//! invertible.

use std::sync::Arc;

use evilbloom_hashes::{IndexStrategy, KirschMitzenmacher, Murmur3_128};

use crate::concurrent_counting::ConcurrentCountingFilter;
use crate::concurrent_scalable::ConcurrentScalableFilter;
use crate::params::FilterParams;

/// Configuration of a scalable stack of filters (Almeida et al.): slice `i`
/// is created when slice `i - 1` has taken `slice_capacity` insertions, and
/// targets `f_i = f_0 · r^i`, so the compound probability
/// `F = 1 - Π(1 - f_i)` stays bounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalableConfig {
    /// Capacity `δ` of each sub-filter (number of insertions before a new
    /// sub-filter is created).
    pub slice_capacity: u64,
    /// Target false-positive probability `f_0` of the first sub-filter.
    pub base_fpp: f64,
    /// Tightening ratio `r` (Dablooms uses 0.9).
    pub tightening_ratio: f64,
}

impl ScalableConfig {
    /// The configuration used by Dablooms and by Figure 8 of the paper:
    /// `δ = 10 000`, `f_0 = 0.01`, `r = 0.9`.
    pub fn dablooms() -> Self {
        ScalableConfig { slice_capacity: 10_000, base_fpp: 0.01, tightening_ratio: 0.9 }
    }
}

/// A scaling, counting Bloom filter in the style of Bitly's Dablooms: the
/// scalable stack with counting slices.
pub type Dablooms = ConcurrentScalableFilter<ConcurrentCountingFilter>;

impl ConcurrentScalableFilter<ConcurrentCountingFilter> {
    /// Creates a Dablooms filter with the paper's configuration
    /// (`δ = 10 000`, `f0 = 0.01`, `r = 0.9`) and the genuine Dablooms index
    /// derivation (MurmurHash3 + Kirsch–Mitzenmacher).
    pub fn new_paper_configuration() -> Self {
        Self::new(ScalableConfig::dablooms(), KirschMitzenmacher::new(Murmur3_128))
    }

    /// Creates a Dablooms filter with a custom configuration and strategy:
    /// slice `i` is `FilterParams::optimal(δ, f_0 · r^i)`.
    ///
    /// # Panics
    ///
    /// Panics if `slice_capacity` is zero, `base_fpp` is outside `(0, 1)`
    /// or `tightening_ratio` is outside `(0, 1]`.
    pub fn new<H: IndexStrategy + 'static>(config: ScalableConfig, strategy: H) -> Self {
        Self::with_base_fpp(
            FilterParams::optimal(config.slice_capacity, config.base_fpp),
            config.base_fpp,
            Arc::new(strategy),
            config.tightening_ratio,
        )
    }

    /// Deletes `item` from every slice that currently reports it (Dablooms
    /// does not know which slice an item went into, so delete must probe all
    /// of them). Returns `true` if at least one slice reported the item.
    pub fn delete(&self, item: &[u8]) -> bool {
        let mut was_present = false;
        for slice in self.slices() {
            if slice.contains(item) {
                slice.remove(item);
                was_present = true;
            }
        }
        was_present
    }

    /// Deletes `item` from every slice *without* a membership check — the
    /// behaviour of the original Dablooms `remove`, which locates the slice
    /// by a caller-supplied id and decrements unconditionally. This is the
    /// entry point the delisting (deletion) attack abuses.
    pub fn force_delete(&self, item: &[u8]) {
        for slice in self.slices() {
            slice.remove(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128, Murmur3_32};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> Dablooms {
        Dablooms::new(
            ScalableConfig { slice_capacity: 200, base_fpp: 0.01, tightening_ratio: 0.9 },
            KirschMitzenmacher::new(Murmur3_32),
        )
    }

    #[test]
    fn paper_configuration_defaults() {
        let filter = Dablooms::new_paper_configuration();
        assert_eq!(filter.params().capacity, 10_000);
        assert_eq!(filter.slice_count(), 1);
    }

    #[test]
    fn insert_query_delete_cycle() {
        let filter = small();
        filter.insert(b"http://malware.example/payload");
        assert!(filter.contains(b"http://malware.example/payload"));
        assert!(filter.delete(b"http://malware.example/payload"));
        assert!(!filter.contains(b"http://malware.example/payload"));
        assert!(!filter.delete(b"http://never-inserted.example/"));
    }

    #[test]
    fn grows_like_a_scalable_filter() {
        let filter = small();
        for i in 0..1000u32 {
            filter.insert(format!("url-{i}").as_bytes());
        }
        assert_eq!(filter.slice_count(), 5);
        assert_eq!(filter.inserted(), 1000);
        assert_eq!(filter.slices()[0].inserted(), 200);
    }

    #[test]
    fn deletions_cause_only_rare_false_negatives() {
        // Deleting from a Dablooms stack probes every slice, so a deletion
        // that false-positives in a foreign slice wrongfully decrements that
        // slice's counters — the intrinsic false-negative weakness of
        // counting variants the paper cites ([17]). The rate must stay of
        // the order of the per-slice false-positive probability, not higher.
        let filter = small();
        let items: Vec<String> = (0..600).map(|i| format!("badurl-{i}")).collect();
        for item in &items {
            filter.insert(item.as_bytes());
        }
        // Delete every third item.
        for item in items.iter().step_by(3) {
            filter.delete(item.as_bytes());
        }
        let undeleted: Vec<&String> =
            items.iter().enumerate().filter(|(i, _)| i % 3 != 0).map(|(_, s)| s).collect();
        let missing = undeleted.iter().filter(|item| !filter.contains(item.as_bytes())).count();
        assert!(
            (missing as f64) < 0.03 * undeleted.len() as f64,
            "{missing} false negatives out of {}",
            undeleted.len()
        );
    }

    #[test]
    fn compound_fpp_bounded_under_honest_load() {
        let filter = small();
        for i in 0..800u32 {
            filter.insert(format!("honest-{i}").as_bytes());
        }
        assert!(filter.current_false_positive_probability() < 0.12);
    }

    #[test]
    fn wasted_slice_detection() {
        let filter = small();
        // Fill the first slice's insertion counter without giving it any
        // queryable content: insert and immediately delete the same item.
        for i in 0..200u32 {
            let url = format!("ghost-{i}");
            filter.insert(url.as_bytes());
            filter.delete(url.as_bytes());
        }
        // Wasted: the insert count says full (>= δ) while almost nothing is
        // still queryable.
        let wasted = filter
            .slices()
            .iter()
            .filter(|s| s.inserted() >= 200 && s.occupied_cells() <= 10)
            .count();
        assert_eq!(wasted, 1);
        // The next insertion opens a second slice even though the first one
        // holds nothing.
        filter.insert(b"next");
        assert_eq!(filter.slice_count(), 2);
    }

    #[test]
    fn memory_reported_in_packed_bytes() {
        let filter = small();
        let slice = &filter.slices()[0];
        assert_eq!(filter.memory_bytes(), slice.memory_bytes());
        assert_eq!(slice.memory_bytes(), slice.m().div_ceil(2));
    }

    /// `(m, k)` of the first ten slices of a stack grown by insert calls.
    fn grown_geometry(config: ScalableConfig) -> Vec<(u64, u32)> {
        let filter = Dablooms::new(config, KirschMitzenmacher::new(Murmur3_128));
        for i in 0..9 * config.slice_capacity + 1 {
            filter.insert(&i.to_le_bytes());
        }
        filter.slices().iter().map(|s| (s.m(), s.k())).collect()
    }

    /// Slice `i` is `FilterParams::optimal(δ, f0 · r^i)`: the paper's
    /// configuration and the spam example's `δ = 500` one.
    #[test]
    fn known_answer_slice_geometry() {
        assert_eq!(
            grown_geometry(ScalableConfig::dablooms()),
            [
                (95851, 7),
                (98044, 7),
                (100237, 7),
                (102430, 7),
                (104623, 7),
                (106816, 7),
                (109009, 8),
                (111202, 8),
                (113395, 8),
                (115588, 8),
            ]
        );
        let spam = ScalableConfig { slice_capacity: 500, base_fpp: 0.01, tightening_ratio: 0.9 };
        assert_eq!(
            grown_geometry(spam),
            [
                (4793, 7),
                (4903, 7),
                (5012, 7),
                (5122, 7),
                (5232, 7),
                (5341, 7),
                (5451, 8),
                (5561, 8),
                (5670, 8),
                (5780, 8),
            ]
        );
    }

    #[test]
    fn grows_after_exactly_capacity_insert_calls() {
        let filter = small();
        for i in 0..200u32 {
            filter.insert(format!("url-{i}").as_bytes());
        }
        assert_eq!(filter.slice_count(), 1);
        // Section 6.2 churn: every insert call counts towards δ even though
        // its item is deleted at once, so slice 1 fills up while empty.
        for i in 0..200u32 {
            let url = format!("ghost-{i}");
            filter.insert(url.as_bytes());
            filter.force_delete(url.as_bytes());
        }
        assert_eq!(filter.slice_count(), 2);
        assert_eq!(filter.slices()[1].inserted(), 200);
        assert_eq!(filter.slices()[1].occupied_cells(), 0);
        filter.insert(b"next");
        assert_eq!(filter.slice_count(), 3);
        assert_eq!(filter.slices()[1].occupied_cells(), 0);
        assert!(filter.contains(b"next"));
    }

    /// Inserts from 4 threads, then force-deletes every other item from 4
    /// threads, on seeded item sets.
    ///
    /// Racing writers may overfill a slice by at most `THREADS - 1` insert
    /// calls but never open an extra slice, and no increment is lost: each
    /// slice's counters sum to its insert calls times its `k`. force_delete
    /// decrements *every* slice, so in a stack of several slices it also
    /// drains cells that survivors hold in other slices (the deletion damage
    /// of Section 6); survivors are therefore checked against a model
    /// rather than assumed present. The model takes each cell's value after
    /// the insert phase, less the decrements the deleted items aim at it,
    /// floored at zero. Every cell, and every survivor's membership, must
    /// match it whenever no cell saturated.
    #[test]
    fn concurrent_inserts_then_force_deletes() {
        const THREADS: usize = 4;
        const DELTA: u64 = 100;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(200usize..1200);
            let items: Vec<String> = (0..n).map(|i| format!("s{seed}-{i}")).collect();
            let filter = Dablooms::new(
                ScalableConfig { slice_capacity: DELTA, base_fpp: 0.01, tightening_ratio: 0.9 },
                KirschMitzenmacher::new(Murmur3_128),
            );
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (filter, items) = (&filter, &items);
                    scope.spawn(move || {
                        for item in items.iter().skip(t).step_by(THREADS) {
                            filter.insert(item.as_bytes());
                        }
                    });
                }
            });
            let n = n as u64;
            let slices = filter.slices();
            let lo = n.div_ceil(DELTA + THREADS as u64 - 1) as usize;
            let hi = n.div_ceil(DELTA) as usize;
            assert!((lo..=hi).contains(&slices.len()), "seed {seed}: {} slices", slices.len());
            assert_eq!(filter.inserted(), n, "seed {seed}");
            for item in &items {
                assert!(filter.contains(item.as_bytes()), "seed {seed}: lost {item}");
            }
            // Frozen counters ignore later updates, so the exact checks only
            // hold when no cell saturated.
            if slices.iter().any(|s| s.saturated_cells() > 0) {
                continue;
            }
            let mut model: Vec<Vec<i64>> = slices
                .iter()
                .map(|s| (0..s.m()).map(|i| i64::from(s.counter(i))).collect())
                .collect();
            for (slice, cells) in slices.iter().zip(&model) {
                let total: i64 = cells.iter().sum();
                assert_eq!(total as u64, slice.inserted() * u64::from(slice.k()), "seed {seed}");
            }

            let deleted: Vec<&String> = items.iter().step_by(2).collect();
            for item in &deleted {
                for (slice, cells) in slices.iter().zip(&mut model) {
                    for i in slice.indexes(item.as_bytes()) {
                        cells[i as usize] -= 1;
                    }
                }
            }
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (filter, deleted) = (&filter, &deleted);
                    scope.spawn(move || {
                        for item in deleted.iter().skip(t).step_by(THREADS) {
                            filter.force_delete(item.as_bytes());
                        }
                    });
                }
            });
            for (j, (slice, cells)) in slices.iter().zip(&model).enumerate() {
                for (i, &want) in cells.iter().enumerate() {
                    let got = i64::from(slice.counter(i as u64));
                    assert_eq!(got, want.max(0), "seed {seed}: slice {j} cell {i}");
                }
            }
            for survivor in items.iter().skip(1).step_by(2) {
                let present = slices.iter().zip(&model).any(|(slice, cells)| {
                    slice.indexes(survivor.as_bytes()).iter().all(|&i| cells[i as usize] > 0)
                });
                assert_eq!(filter.contains(survivor.as_bytes()), present, "seed {seed}");
            }
        }
    }

    #[test]
    fn overflow_accounting_bubbles_up() {
        let filter = small();
        for _ in 0..40 {
            filter.insert(b"same-url");
        }
        assert!(filter.slices().iter().map(|s| s.overflows()).sum::<u64>() > 0);
    }
}
