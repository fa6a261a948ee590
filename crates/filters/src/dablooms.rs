//! A Dablooms-style *scaling, counting* Bloom filter — the data structure
//! Bitly proposed for filtering malicious URLs and the target of Section 6.
//!
//! Dablooms combines two Bloom-filter variants:
//!
//! * **counting** sub-filters (4-bit counters) so URLs can be delisted, and
//! * **scalable** growth so the number of URLs need not be fixed a priori
//!   (`f_i = f_0 · r^i`, `r = 0.9`).
//!
//! Index derivation uses MurmurHash3 with the Kirsch–Mitzenmacher trick,
//! exactly the combination the paper points out is trivially predictable and
//! invertible.

use std::sync::Arc;

use evilbloom_hashes::{IndexStrategy, KirschMitzenmacher, Murmur3_128};

use crate::concurrent_counting::{ConcurrentCountingFilter, CountingOptions};
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

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of range.
    pub fn validate(&self) {
        assert!(self.slice_capacity > 0, "slice capacity must be positive");
        assert!(self.base_fpp > 0.0 && self.base_fpp < 1.0, "base fpp must be in (0, 1)");
        assert!(
            self.tightening_ratio > 0.0 && self.tightening_ratio <= 1.0,
            "tightening ratio must be in (0, 1]"
        );
    }

    /// Target probability of the `i`-th sub-filter.
    pub fn slice_fpp(&self, i: u32) -> f64 {
        self.base_fpp * self.tightening_ratio.powi(i as i32)
    }
}

/// A scaling, counting Bloom filter in the style of Bitly's Dablooms.
pub struct Dablooms {
    config: ScalableConfig,
    strategy: Arc<dyn IndexStrategy>,
    slices: Vec<ConcurrentCountingFilter>,
    /// Per-slice insertion counters (Dablooms decides growth on the number of
    /// *insertions*, not the number of distinct items).
    slice_insertions: Vec<u64>,
    inserted: u64,
    deleted: u64,
}

impl Dablooms {
    /// Creates a Dablooms filter with the paper's configuration
    /// (`δ = 10 000`, `f0 = 0.01`, `r = 0.9`) and the genuine Dablooms index
    /// derivation (MurmurHash3 + Kirsch–Mitzenmacher).
    pub fn new_paper_configuration() -> Self {
        Self::new(ScalableConfig::dablooms(), KirschMitzenmacher::new(Murmur3_128))
    }

    /// Creates a Dablooms filter with a custom configuration and strategy.
    pub fn new<S: IndexStrategy + 'static>(config: ScalableConfig, strategy: S) -> Self {
        Self::with_shared_strategy(config, Arc::new(strategy))
    }

    /// Creates a Dablooms filter with a shared index strategy.
    pub fn with_shared_strategy(config: ScalableConfig, strategy: Arc<dyn IndexStrategy>) -> Self {
        config.validate();
        let mut filter = Dablooms {
            config,
            strategy,
            slices: Vec::new(),
            slice_insertions: Vec::new(),
            inserted: 0,
            deleted: 0,
        };
        filter.grow();
        filter
    }

    fn grow(&mut self) {
        let i = self.slices.len() as u32;
        let params = FilterParams::optimal(self.config.slice_capacity, self.config.slice_fpp(i));
        self.slices.push(ConcurrentCountingFilter::with_shared_strategy(
            params,
            Arc::clone(&self.strategy),
            CountingOptions::default(),
        ));
        self.slice_insertions.push(0);
    }

    /// The configuration this filter was created with.
    pub fn config(&self) -> ScalableConfig {
        self.config
    }

    /// Number of sub-filters (`λ`).
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// The sub-filters, oldest first. They take `&self` inserts, so the
    /// pollution experiments write into a slice directly.
    pub fn slices(&self) -> &[ConcurrentCountingFilter] {
        &self.slices
    }

    /// Recorded number of insertions into slice `index` (the "insertion
    /// counter" the counter-overflow attack fools).
    pub fn slice_insertions(&self, index: usize) -> u64 {
        self.slice_insertions[index]
    }

    /// Total insertions performed.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Total deletions performed.
    pub fn deleted(&self) -> u64 {
        self.deleted
    }

    /// Inserts `item` into the active slice, growing first if the slice's
    /// insertion counter has reached the capacity `δ`.
    pub fn insert(&mut self, item: &[u8]) {
        let active = self.slices.len() - 1;
        if self.slice_insertions[active] >= self.config.slice_capacity {
            self.grow();
        }
        let active = self.slices.len() - 1;
        self.slices[active].insert(item);
        self.slice_insertions[active] += 1;
        self.inserted += 1;
    }

    /// Deletes `item` from every slice that currently reports it (Dablooms
    /// does not know which slice an item went into, so delete must probe all
    /// of them). Returns `true` if at least one slice reported the item.
    pub fn delete(&mut self, item: &[u8]) -> bool {
        let mut was_present = false;
        for slice in &self.slices {
            if slice.contains(item) {
                slice.remove(item);
                was_present = true;
            }
        }
        self.deleted += 1;
        was_present
    }

    /// Deletes `item` from every slice *without* a membership check — the
    /// behaviour of the original Dablooms `remove`, which locates the slice
    /// by a caller-supplied id and decrements unconditionally. This is the
    /// entry point the delisting (deletion) attack abuses.
    pub fn force_delete(&mut self, item: &[u8]) {
        for slice in &self.slices {
            slice.remove(item);
        }
        self.deleted += 1;
    }

    /// Membership query: present if *any* slice reports the item.
    pub fn contains(&self, item: &[u8]) -> bool {
        self.slices.iter().any(|slice| slice.contains(item))
    }

    /// Compound false-positive probability given the current fill of every
    /// slice.
    pub fn current_false_positive_probability(&self) -> f64 {
        let per: Vec<f64> =
            self.slices.iter().map(|s| s.current_false_positive_probability()).collect();
        evilbloom_analysis::scalable::compound_false_positive(&per)
    }

    /// Total number of counter-overflow events across slices.
    pub fn overflows(&self) -> u64 {
        self.slices.iter().map(|s| s.overflows()).sum()
    }

    /// Total memory footprint in bytes (packed 4-bit counters).
    pub fn memory_bytes(&self) -> u64 {
        self.slices.iter().map(|s| s.memory_bytes()).sum()
    }

    /// Number of slices that are "wasted": their insertion counter says they
    /// are full (>= δ) while they contain almost nothing that is still
    /// queryable (occupied cells below `threshold_cells`). This is the
    /// outcome of the counter-overflow attack of Section 6.2.
    pub fn wasted_slices(&self, threshold_cells: u64) -> usize {
        self.slices
            .iter()
            .zip(&self.slice_insertions)
            .filter(|(slice, &ins)| {
                ins >= self.config.slice_capacity && slice.occupied_cells() <= threshold_cells
            })
            .count()
    }
}

impl core::fmt::Debug for Dablooms {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Dablooms")
            .field("slices", &self.slices.len())
            .field("inserted", &self.inserted)
            .field("deleted", &self.deleted)
            .field("compound_fpp", &self.current_false_positive_probability())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_32};

    fn small() -> Dablooms {
        Dablooms::new(
            ScalableConfig { slice_capacity: 200, base_fpp: 0.01, tightening_ratio: 0.9 },
            KirschMitzenmacher::new(Murmur3_32),
        )
    }

    #[test]
    fn paper_configuration_defaults() {
        let filter = Dablooms::new_paper_configuration();
        assert_eq!(filter.config().slice_capacity, 10_000);
        assert_eq!(filter.slice_count(), 1);
    }

    #[test]
    fn insert_query_delete_cycle() {
        let mut filter = small();
        filter.insert(b"http://malware.example/payload");
        assert!(filter.contains(b"http://malware.example/payload"));
        assert!(filter.delete(b"http://malware.example/payload"));
        assert!(!filter.contains(b"http://malware.example/payload"));
        assert!(!filter.delete(b"http://never-inserted.example/"));
    }

    #[test]
    fn grows_like_a_scalable_filter() {
        let mut filter = small();
        for i in 0..1000u32 {
            filter.insert(format!("url-{i}").as_bytes());
        }
        assert_eq!(filter.slice_count(), 5);
        assert_eq!(filter.inserted(), 1000);
        assert_eq!(filter.slice_insertions(0), 200);
    }

    #[test]
    fn deletions_cause_only_rare_false_negatives() {
        // Deleting from a Dablooms stack probes every slice, so a deletion
        // that false-positives in a foreign slice wrongfully decrements that
        // slice's counters — the intrinsic false-negative weakness of
        // counting variants the paper cites ([17]). The rate must stay of
        // the order of the per-slice false-positive probability, not higher.
        let mut filter = small();
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
        let mut filter = small();
        for i in 0..800u32 {
            filter.insert(format!("honest-{i}").as_bytes());
        }
        assert!(filter.current_false_positive_probability() < 0.12);
    }

    #[test]
    fn wasted_slice_detection() {
        let mut filter = small();
        // Fill the first slice's insertion counter without giving it any
        // queryable content: insert and immediately delete the same item.
        for i in 0..200u32 {
            let url = format!("ghost-{i}");
            filter.insert(url.as_bytes());
            filter.delete(url.as_bytes());
        }
        assert_eq!(filter.wasted_slices(10), 1);
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

    #[test]
    fn overflow_accounting_bubbles_up() {
        let mut filter = small();
        for _ in 0..40 {
            filter.insert(b"same-url");
        }
        assert!(filter.overflows() > 0);
    }
}
