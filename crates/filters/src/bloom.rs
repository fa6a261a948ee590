//! The classic Bloom filter (Section 3 of the paper).

use std::sync::Arc;

use evilbloom_hashes::IndexStrategy;

use crate::bitvec::BitVec;
use crate::params::FilterParams;

/// A classic Bloom filter: an `m`-bit vector, `k` indexes per item derived by
/// a pluggable [`IndexStrategy`].
///
/// The filter intentionally exposes its internal state (`is_set`, `support`,
/// `fill_ratio`): the paper's adversary models assume the implementation is
/// public and the filter contents are known or partially known, and the
/// attack engines in `evilbloom-attacks` rely on that visibility. Production
/// deployments would not expose the state, but hiding it is *not* a defence —
/// a chosen-insertion adversary can reconstruct it by replaying her own
/// insertions.
///
/// # Examples
///
/// ```
/// use evilbloom_filters::{BloomFilter, FilterParams};
/// use evilbloom_hashes::{SaltedHashes, Murmur3_32};
///
/// let params = FilterParams::optimal(1000, 0.01);
/// let mut filter = BloomFilter::new(params, SaltedHashes::new(Murmur3_32));
/// filter.insert(b"http://example.org/");
/// assert!(filter.contains(b"http://example.org/"));
/// assert!(!filter.contains(b"http://example.org/other"));
/// ```
#[derive(Clone)]
pub struct BloomFilter {
    bits: BitVec,
    params: FilterParams,
    strategy: Arc<dyn IndexStrategy>,
    inserted: u64,
}

impl BloomFilter {
    /// Creates an empty filter with the given parameters and index strategy.
    pub fn new<S: IndexStrategy + 'static>(params: FilterParams, strategy: S) -> Self {
        Self::with_shared_strategy(params, Arc::new(strategy))
    }

    /// Creates an empty filter sharing an already-boxed strategy (used when
    /// many filters must use the same keyed strategy instance).
    pub fn with_shared_strategy(params: FilterParams, strategy: Arc<dyn IndexStrategy>) -> Self {
        BloomFilter { bits: BitVec::new(params.m), params, strategy, inserted: 0 }
    }

    /// The filter's sizing parameters.
    pub fn params(&self) -> FilterParams {
        self.params
    }

    /// Number of bits in the filter (`m`).
    pub fn m(&self) -> u64 {
        self.params.m
    }

    /// Number of indexes per item (`k`).
    pub fn k(&self) -> u32 {
        self.params.k
    }

    /// Number of `insert` calls performed so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Name of the index-derivation strategy in use.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// The `k` indexes of `item` under this filter's strategy — `I_x` in the
    /// paper's notation.
    pub fn indexes(&self, item: &[u8]) -> Vec<u64> {
        self.strategy.indexes(item, self.params.k, self.params.m)
    }

    /// Inserts `item`. Returns the number of bits that flipped from 0 to 1
    /// (0 means the item was already "present", i.e. all its bits were set).
    pub fn insert(&mut self, item: &[u8]) -> u32 {
        let indexes = self.indexes(item);
        self.insert_indexes(&indexes)
    }

    /// Inserts an item by its pre-computed indexes. Exposed because the
    /// chosen-insertion attack engine derives indexes itself while searching.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn insert_indexes(&mut self, indexes: &[u64]) -> u32 {
        let mut fresh = 0;
        for &i in indexes {
            if !self.bits.set(i) {
                fresh += 1;
            }
        }
        self.inserted += 1;
        fresh
    }

    /// Membership query: true if every index of `item` is set (a positive
    /// answer may be a false positive).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.indexes(item).iter().all(|&i| self.bits.get(i))
    }

    /// Membership query by pre-computed indexes.
    pub fn contains_indexes(&self, indexes: &[u64]) -> bool {
        indexes.iter().all(|&i| self.bits.get(i))
    }

    /// Number of indexes of `item` that are already set — the quantity a
    /// worst-case-latency query maximises for the first `k - 1` probes.
    pub fn matching_bits(&self, item: &[u8]) -> u32 {
        self.indexes(item).iter().filter(|&&i| self.bits.get(i)).count() as u32
    }

    /// Whether the bit at `index` is set.
    pub fn is_set(&self, index: u64) -> bool {
        self.bits.get(index)
    }

    /// Hamming weight `wH(z)` of the filter.
    pub fn hamming_weight(&self) -> u64 {
        self.bits.count_ones()
    }

    /// Fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// The support `supp(z)`: positions of all set bits.
    pub fn support(&self) -> Vec<u64> {
        self.bits.support()
    }

    /// Positions of all unset bits (what a chosen-insertion adversary aims
    /// for).
    pub fn zero_positions(&self) -> Vec<u64> {
        self.bits.zero_positions()
    }

    /// Whether every bit is set; such a filter answers "present" to every
    /// query.
    pub fn is_saturated(&self) -> bool {
        self.bits.count_zeros() == 0
    }

    /// Empirical false-positive probability given the current fill:
    /// `(wH(z)/m)^k`.
    pub fn current_false_positive_probability(&self) -> f64 {
        evilbloom_analysis::false_positive::false_positive_for_fill(
            self.fill_ratio(),
            self.params.k,
        )
    }

    /// Read-only view of the underlying bit vector (e.g. to ship a cache
    /// digest to a peer).
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// The shared index strategy (used to build a concurrent filter that is
    /// bit-for-bit compatible with this one).
    pub fn strategy_arc(&self) -> &Arc<dyn IndexStrategy> {
        &self.strategy
    }

    /// Overwrites the filter's bits and insert counter from a snapshot taken
    /// elsewhere (e.g. frozen from a concurrent filter with the same
    /// strategy).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length differs from `m`.
    pub fn absorb_bits(&mut self, bits: &BitVec, inserted: u64) {
        assert_eq!(bits.len(), self.params.m, "snapshot length must equal m");
        self.bits = bits.clone();
        self.inserted = inserted;
    }

    /// Clears the filter.
    pub fn reset(&mut self) {
        self.bits.reset();
        self.inserted = 0;
    }
}

impl core::fmt::Debug for BloomFilter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BloomFilter")
            .field("m", &self.params.m)
            .field("k", &self.params.k)
            .field("inserted", &self.inserted)
            .field("weight", &self.hamming_weight())
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::{
        KeyedPair, KirschMitzenmacher, KmIndexes, Murmur3_32, SaltedCrypto, Sha256, SipHash24,
        SipKey,
    };

    fn small_filter() -> BloomFilter {
        BloomFilter::new(FilterParams::explicit(128, 3, 10), SaltedHashesMurmur())
    }

    #[allow(non_snake_case)]
    fn SaltedHashesMurmur() -> evilbloom_hashes::SaltedHashes<Murmur3_32> {
        evilbloom_hashes::SaltedHashes::new(Murmur3_32)
    }

    #[test]
    fn no_false_negatives() {
        let mut filter =
            BloomFilter::new(FilterParams::optimal(500, 0.01), KirschMitzenmacher::new(Murmur3_32));
        let items: Vec<String> = (0..500).map(|i| format!("http://site{i}.example/")).collect();
        for item in &items {
            filter.insert(item.as_bytes());
        }
        for item in &items {
            assert!(filter.contains(item.as_bytes()), "false negative for {item}");
        }
    }

    #[test]
    fn false_positive_rate_close_to_design() {
        let params = FilterParams::optimal(2000, 0.02);
        let mut filter = BloomFilter::new(params, SaltedCrypto::new(Box::new(Sha256)));
        for i in 0..2000 {
            filter.insert(format!("member-{i}").as_bytes());
        }
        let probes = 20_000;
        let fp =
            (0..probes).filter(|i| filter.contains(format!("non-member-{i}").as_bytes())).count();
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.04, "observed fp rate {rate}");
        assert!(rate > 0.005, "suspiciously low fp rate {rate}");
    }

    #[test]
    fn insert_reports_fresh_bits() {
        let mut filter = small_filter();
        let fresh = filter.insert(b"first");
        assert!((1..=3).contains(&fresh));
        // Re-inserting the same item sets nothing new.
        assert_eq!(filter.insert(b"first"), 0);
        assert_eq!(filter.inserted(), 2);
    }

    #[test]
    fn weight_grows_by_at_most_k_per_insert() {
        let mut filter = small_filter();
        let mut last = 0;
        for i in 0..20 {
            filter.insert(format!("item-{i}").as_bytes());
            let w = filter.hamming_weight();
            assert!(w >= last && w <= last + 3);
            last = w;
        }
    }

    #[test]
    fn contains_indexes_matches_contains() {
        let mut filter = small_filter();
        filter.insert(b"present");
        let idx = filter.indexes(b"present");
        assert!(filter.contains_indexes(&idx));
        let idx_absent = filter.indexes(b"absent-item");
        assert_eq!(filter.contains(b"absent-item"), filter.contains_indexes(&idx_absent));
    }

    #[test]
    fn matching_bits_counts_partial_hits() {
        let mut filter = small_filter();
        assert_eq!(filter.matching_bits(b"anything"), 0);
        filter.insert(b"anything");
        assert_eq!(filter.matching_bits(b"anything"), 3);
    }

    #[test]
    fn current_fpp_tracks_fill() {
        let mut filter = small_filter();
        assert_eq!(filter.current_false_positive_probability(), 0.0);
        for i in 0..30 {
            filter.insert(format!("x{i}").as_bytes());
        }
        let fpp = filter.current_false_positive_probability();
        assert!(fpp > 0.0 && fpp < 1.0);
        let expected = filter.fill_ratio().powi(3);
        assert!((fpp - expected).abs() < 1e-12);
    }

    #[test]
    fn saturation_answers_yes_to_everything() {
        let mut filter = BloomFilter::new(FilterParams::explicit(64, 2, 8), SaltedHashesMurmur());
        let mut i = 0;
        while !filter.is_saturated() {
            filter.insert(format!("spam-{i}").as_bytes());
            i += 1;
            assert!(i < 10_000, "saturation should happen quickly on 64 bits");
        }
        for probe in ["a", "b", "c", "never inserted"] {
            assert!(filter.contains(probe.as_bytes()));
        }
        assert_eq!(filter.current_false_positive_probability(), 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut filter = small_filter();
        filter.insert(b"x");
        filter.reset();
        assert_eq!(filter.hamming_weight(), 0);
        assert_eq!(filter.inserted(), 0);
        assert!(!filter.contains(b"x"));
    }

    #[test]
    fn keyed_filters_with_different_keys_disagree_internally() {
        let params = FilterParams::explicit(1 << 12, 4, 100);
        let mut a = BloomFilter::new(
            params,
            KmIndexes::new(KeyedPair::new(Box::new(SipHash24::new(SipKey::new(1, 1))))),
        );
        let mut b = BloomFilter::new(
            params,
            KmIndexes::new(KeyedPair::new(Box::new(SipHash24::new(SipKey::new(2, 2))))),
        );
        a.insert(b"item");
        b.insert(b"item");
        assert_ne!(a.support(), b.support());
        // Both still answer membership correctly.
        assert!(a.contains(b"item") && b.contains(b"item"));
    }

    #[test]
    fn support_and_zero_positions_partition_the_filter() {
        let mut filter = small_filter();
        for i in 0..5 {
            filter.insert(format!("i{i}").as_bytes());
        }
        let ones = filter.support().len() as u64;
        let zeros = filter.zero_positions().len() as u64;
        assert_eq!(ones + zeros, filter.m());
        assert_eq!(ones, filter.hamming_weight());
    }

    #[test]
    fn debug_output_mentions_strategy() {
        let filter = small_filter();
        let text = format!("{filter:?}");
        assert!(text.contains("MurmurHash3"));
    }
}
