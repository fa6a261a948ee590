//! Power-of-two-choices Bloom filter (Lumetta & Mitzenmacher).
//!
//! The paper's conclusion contrasts its "power of evil choices" with Lumetta
//! and Mitzenmacher's *power of two choices*: give every item two candidate
//! index sets (derived from two hash groups) and, on insertion, use the set
//! that introduces fewer fresh bits. Queries must accept either set, so the
//! false-positive behaviour differs; the structure is included both as an
//! extension and because an adversary can still defeat it by crafting items
//! whose *both* groups are fresh.

use std::sync::Arc;

use evilbloom_hashes::IndexStrategy;

use crate::bitvec::BitVec;
use crate::params::FilterParams;

/// A Bloom filter giving each item the choice between two index groups.
#[derive(Clone)]
pub struct TwoChoiceBloomFilter {
    bits: BitVec,
    params: FilterParams,
    strategy: Arc<dyn IndexStrategy>,
    inserted: u64,
}

impl TwoChoiceBloomFilter {
    /// Creates an empty filter.
    pub fn new<S: IndexStrategy + 'static>(params: FilterParams, strategy: S) -> Self {
        TwoChoiceBloomFilter {
            bits: BitVec::new(params.m),
            params,
            strategy: Arc::new(strategy),
            inserted: 0,
        }
    }

    /// The filter parameters.
    pub fn params(&self) -> FilterParams {
        self.params
    }

    /// Number of insertions performed.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// The two candidate index groups of `item`. Group `g` uses the strategy
    /// with `2k` indexes: the first `k` form group 0, the rest group 1.
    pub fn index_groups(&self, item: &[u8]) -> (Vec<u64>, Vec<u64>) {
        let all = self.strategy.indexes(item, self.params.k * 2, self.params.m);
        let (a, b) = all.split_at(self.params.k as usize);
        (a.to_vec(), b.to_vec())
    }

    fn fresh_bits(&self, indexes: &[u64]) -> u32 {
        indexes.iter().filter(|&&i| !self.bits.get(i)).count() as u32
    }

    /// Inserts `item` using whichever group sets fewer new bits. Returns the
    /// number of bits actually set.
    pub fn insert(&mut self, item: &[u8]) -> u32 {
        let (a, b) = self.index_groups(item);
        let chosen = if self.fresh_bits(&a) <= self.fresh_bits(&b) { a } else { b };
        let mut set = 0;
        for idx in chosen {
            if !self.bits.set(idx) {
                set += 1;
            }
        }
        self.inserted += 1;
        set
    }

    /// Membership query: present if *either* group is fully set.
    pub fn contains(&self, item: &[u8]) -> bool {
        let (a, b) = self.index_groups(item);
        a.iter().all(|&i| self.bits.get(i)) || b.iter().all(|&i| self.bits.get(i))
    }

    /// Hamming weight of the filter.
    pub fn hamming_weight(&self) -> u64 {
        self.bits.count_ones()
    }

    /// Fill ratio of the filter.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// Probability that a random non-member is accepted, given the current
    /// fill `p`: either group matches, i.e. `1 - (1 - p^k)^2`.
    pub fn current_false_positive_probability(&self) -> f64 {
        let per_group = self.fill_ratio().powi(self.params.k as i32);
        1.0 - (1.0 - per_group).powi(2)
    }
}

impl core::fmt::Debug for TwoChoiceBloomFilter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TwoChoiceBloomFilter")
            .field("m", &self.params.m)
            .field("k", &self.params.k)
            .field("inserted", &self.inserted)
            .field("weight", &self.hamming_weight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::ConcurrentBloomFilter;
    use evilbloom_hashes::{Murmur3_128, SaltedHashes};

    fn two_choice(m: u64, k: u32, n: u64) -> TwoChoiceBloomFilter {
        TwoChoiceBloomFilter::new(FilterParams::explicit(m, k, n), SaltedHashes::new(Murmur3_128))
    }

    #[test]
    fn no_false_negatives() {
        let mut filter = two_choice(8192, 4, 500);
        let items: Vec<String> = (0..500).map(|i| format!("item-{i}")).collect();
        for item in &items {
            filter.insert(item.as_bytes());
        }
        for item in &items {
            assert!(filter.contains(item.as_bytes()));
        }
    }

    #[test]
    fn sets_fewer_bits_than_classic_filter() {
        // The whole point of two choices: lower fill for the same load.
        let (m, k, n) = (4096u64, 4u32, 600u64);
        let classic = ConcurrentBloomFilter::new(
            FilterParams::explicit(m, k, n),
            SaltedHashes::new(Murmur3_128),
        );
        let mut choosy = two_choice(m, k, n);
        for i in 0..n {
            let item = format!("load-{i}");
            classic.insert(item.as_bytes());
            choosy.insert(item.as_bytes());
        }
        assert!(
            choosy.hamming_weight() < classic.hamming_weight(),
            "two-choice {} vs classic {}",
            choosy.hamming_weight(),
            classic.hamming_weight()
        );
    }

    #[test]
    fn groups_are_disjoint_views_of_2k_indexes() {
        let filter = two_choice(1024, 3, 100);
        let (a, b) = filter.index_groups(b"item");
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        assert!(a.iter().chain(&b).all(|&i| i < 1024));
    }

    #[test]
    fn fpp_formula_matches_two_group_acceptance() {
        let mut filter = two_choice(512, 3, 60);
        for i in 0..60 {
            filter.insert(format!("x{i}").as_bytes());
        }
        let p = filter.fill_ratio().powi(3);
        let expect = 1.0 - (1.0 - p) * (1.0 - p);
        assert!((filter.current_false_positive_probability() - expect).abs() < 1e-12);
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let filter = two_choice(256, 2, 10);
        assert!(!filter.contains(b"anything"));
        assert_eq!(filter.current_false_positive_probability(), 0.0);
    }
}
