//! The classic Bloom filter of Section 3, with `&self` insert and query and
//! safe to share across threads. It is the crate's one plain Bloom filter:
//! the experiments and attack engines drive it from one thread, and every
//! shard of the `evilbloom-store` serving layer holds one.
//!
//! Bloom filters are monotone — bits are only ever set — which is what makes
//! the lock-free formulation correct: there is no state a racing insert can
//! corrupt, and a query that observes all `k` bits set would also have
//! observed them under any serialisation of the inserts. After the same
//! insert set the bits are the same whatever the interleaving (see the
//! property tests in `evilbloom-store`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evilbloom_hashes::IndexStrategy;

use crate::atomic_bitvec::AtomicBitVec;
use crate::params::FilterParams;

/// A lock-free Bloom filter: an `m`-bit [`AtomicBitVec`], `k` indexes per
/// item derived by a pluggable [`IndexStrategy`], `&self` insert/query, and
/// O(1) approximate fill statistics.
///
/// The filter intentionally exposes its internal state (`is_set`,
/// `snapshot_words`, `fill_ratio`): the paper's adversary models assume the
/// implementation is public and the filter contents are known or partially
/// known, and the attack engines in `evilbloom-attacks` rely on that
/// visibility. Hiding the state is *not* a defence — a chosen-insertion
/// adversary can reconstruct it by replaying her own insertions.
///
/// # Examples
///
/// ```
/// use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
/// use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
///
/// let filter = ConcurrentBloomFilter::new(
///     FilterParams::optimal(1000, 0.01),
///     KirschMitzenmacher::new(Murmur3_128),
/// );
/// std::thread::scope(|scope| {
///     for t in 0..4 {
///         let filter = &filter;
///         scope.spawn(move || {
///             for i in 0..250 {
///                 filter.insert(format!("worker-{t}-item-{i}").as_bytes());
///             }
///         });
///     }
/// });
/// assert!(filter.contains(b"worker-0-item-0"));
/// assert_eq!(filter.inserted(), 1000);
/// ```
pub struct ConcurrentBloomFilter {
    bits: AtomicBitVec,
    params: FilterParams,
    strategy: Arc<dyn IndexStrategy>,
    inserted: AtomicU64,
}

impl ConcurrentBloomFilter {
    /// Creates an empty filter with the given parameters and index strategy.
    pub fn new<S: IndexStrategy + 'static>(params: FilterParams, strategy: S) -> Self {
        Self::with_shared_strategy(params, Arc::new(strategy))
    }

    /// Creates an empty filter sharing an already-boxed strategy (used when
    /// many filters must use the same keyed strategy instance).
    pub fn with_shared_strategy(params: FilterParams, strategy: Arc<dyn IndexStrategy>) -> Self {
        ConcurrentBloomFilter {
            bits: AtomicBitVec::new(params.m),
            params,
            strategy,
            inserted: AtomicU64::new(0),
        }
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

    /// Number of `insert` calls performed so far (racing inserts are all
    /// counted; the value is exact once writers are quiescent).
    pub fn inserted(&self) -> u64 {
        self.inserted.load(Ordering::Relaxed)
    }

    /// Name of the index-derivation strategy in use.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// The shared index strategy (used by the store to build query batches
    /// that amortise hashing).
    pub fn strategy(&self) -> &Arc<dyn IndexStrategy> {
        &self.strategy
    }

    /// The `k` indexes of `item` under this filter's strategy.
    pub fn indexes(&self, item: &[u8]) -> Vec<u64> {
        self.strategy.indexes(item, self.params.k, self.params.m)
    }

    /// Runs `f` on the `k` indexes of `item`, derived into a reused
    /// per-thread buffer: the scalar insert and query allocate nothing.
    fn with_indexes<R>(&self, item: &[u8], f: impl FnOnce(&[u64]) -> R) -> R {
        thread_local! {
            static INDEXES: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
        }
        INDEXES.with(|cell| {
            // Taken, not borrowed: a nested call would find an empty buffer
            // and allocate, never panic.
            let mut indexes = cell.take();
            indexes.clear();
            self.strategy.indexes_into(item, self.params.k, self.params.m, &mut indexes);
            let result = f(&indexes);
            cell.set(indexes);
            result
        })
    }

    /// Inserts `item`. Returns the number of bits this call flipped from 0
    /// to 1 (racing inserts of overlapping items split the credit — each
    /// flipped bit is credited to exactly one caller).
    pub fn insert(&self, item: &[u8]) -> u32 {
        self.with_indexes(item, |indexes| self.insert_indexes(indexes))
    }

    /// Inserts an item by its pre-computed indexes (the batch APIs derive
    /// indexes once and reuse them).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn insert_indexes(&self, indexes: &[u64]) -> u32 {
        let mut fresh = 0;
        for &i in indexes {
            if !self.bits.set(i) {
                fresh += 1;
            }
        }
        self.inserted.fetch_add(1, Ordering::Relaxed);
        fresh
    }

    /// Membership query: true if every index of `item` is set. Positive
    /// answers may be false positives; an item whose insert call returned
    /// before this query began is always found.
    pub fn contains(&self, item: &[u8]) -> bool {
        self.with_indexes(item, |indexes| self.contains_indexes(indexes))
    }

    /// Membership query by pre-computed indexes.
    pub fn contains_indexes(&self, indexes: &[u64]) -> bool {
        indexes.iter().all(|&i| self.bits.get(i))
    }

    /// Batch insert with hash precompute: derives the indexes of every item
    /// into one flat buffer (a single allocation for the whole batch, via
    /// [`IndexStrategy::indexes_into`]) and then replays the memory-bound bit
    /// sets. Bit-identical to per-item [`ConcurrentBloomFilter::insert`]
    /// calls; returns the total number of bits flipped 0 → 1 by this batch.
    pub fn insert_batch<I: AsRef<[u8]>>(&self, items: &[I]) -> u64 {
        let mut fresh = 0u64;
        for i in self.batch_indexes(items) {
            if !self.bits.set(i) {
                fresh += 1;
            }
        }
        self.inserted.fetch_add(items.len() as u64, Ordering::Relaxed);
        fresh
    }

    /// Batch membership query with hash precompute; answers are in input
    /// order and bit-identical to per-item [`ConcurrentBloomFilter::contains`]
    /// calls.
    pub fn query_batch<I: AsRef<[u8]>>(&self, items: &[I]) -> Vec<bool> {
        let indexes = self.batch_indexes(items);
        indexes.chunks_exact(self.params.k as usize).map(|c| self.contains_indexes(c)).collect()
    }

    /// The indexes of every item, `k` per item, in one flat buffer.
    fn batch_indexes<I: AsRef<[u8]>>(&self, items: &[I]) -> Vec<u64> {
        let mut indexes = Vec::with_capacity(items.len() * self.params.k as usize);
        for item in items {
            self.strategy.indexes_into(item.as_ref(), self.params.k, self.params.m, &mut indexes);
        }
        indexes
    }

    /// Whether the bit at `index` is set.
    pub fn is_set(&self, index: u64) -> bool {
        self.bits.get(index)
    }

    /// Exact Hamming weight (scans the whole vector).
    pub fn hamming_weight(&self) -> u64 {
        self.bits.count_ones()
    }

    /// O(1) approximate Hamming weight from the running counter.
    pub fn hamming_weight_approx(&self) -> u64 {
        self.bits.count_ones_approx()
    }

    /// O(1) approximate fraction of set bits.
    pub fn fill_ratio_approx(&self) -> f64 {
        self.bits.fill_ratio_approx()
    }

    /// Exact fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// Whether every bit is set (exact scan).
    pub fn is_saturated(&self) -> bool {
        self.bits.count_zeros() == 0
    }

    /// Empirical false-positive probability `(wH(z)/m)^k` from the O(1)
    /// approximate fill — the statistic the store's saturation alarms watch.
    pub fn current_false_positive_probability(&self) -> f64 {
        evilbloom_analysis::false_positive::false_positive_for_fill(
            self.fill_ratio_approx(),
            self.params.k,
        )
    }

    /// Racy raw-word copy of the bit vector under `&self` — the persistence
    /// fast path (no per-bit rebuild). See
    /// [`AtomicBitVec::snapshot_words`] for the torn-read safety argument;
    /// any ones count for the copy must be recounted from these words, not
    /// taken from [`ConcurrentBloomFilter::hamming_weight_approx`].
    pub fn snapshot_words(&self) -> Vec<u64> {
        self.bits.snapshot_words()
    }

    /// Rebuilds a filter from a persisted word array (the recovery inverse
    /// of [`ConcurrentBloomFilter::snapshot_words`]). The bit-vector
    /// ones-counter is recounted from `words`; `inserted` restores the
    /// insert-call statistic, which is independent of the bit count.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `params.m.div_ceil(64)` words long.
    pub fn from_words(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        words: Vec<u64>,
        inserted: u64,
    ) -> Self {
        ConcurrentBloomFilter {
            bits: AtomicBitVec::from_words(params.m, words),
            params,
            strategy,
            inserted: AtomicU64::new(inserted),
        }
    }
}

impl Clone for ConcurrentBloomFilter {
    /// Copies the bits word by word (see [`ConcurrentBloomFilter::snapshot_words`]).
    fn clone(&self) -> Self {
        Self::from_words(
            self.params,
            Arc::clone(&self.strategy),
            self.snapshot_words(),
            self.inserted(),
        )
    }
}

impl core::fmt::Debug for ConcurrentBloomFilter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ConcurrentBloomFilter")
            .field("m", &self.params.m)
            .field("k", &self.params.k)
            .field("inserted", &self.inserted())
            .field("weight_approx", &self.hamming_weight_approx())
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128, SaltedCrypto, Sha256};

    fn small_filter() -> ConcurrentBloomFilter {
        ConcurrentBloomFilter::new(
            FilterParams::explicit(512, 3, 40),
            KirschMitzenmacher::new(Murmur3_128),
        )
    }

    #[test]
    fn no_false_negatives_single_thread() {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::optimal(500, 0.01),
            SaltedCrypto::new(Box::new(Sha256)),
        );
        let items: Vec<String> = (0..500).map(|i| format!("http://site{i}.example/")).collect();
        for item in &items {
            filter.insert(item.as_bytes());
        }
        for item in &items {
            assert!(filter.contains(item.as_bytes()), "false negative for {item}");
        }
    }

    #[test]
    fn insert_reports_fresh_bits() {
        let filter = small_filter();
        let fresh = filter.insert(b"first");
        assert!((1..=3).contains(&fresh));
        assert_eq!(filter.insert(b"first"), 0);
        assert_eq!(filter.inserted(), 2);
    }

    #[test]
    fn parallel_inserts_have_no_false_negatives() {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::optimal(2000, 0.01),
            KirschMitzenmacher::new(Murmur3_128),
        );
        std::thread::scope(|scope| {
            for t in 0..4 {
                let filter = &filter;
                scope.spawn(move || {
                    for i in 0..500 {
                        filter.insert(format!("t{t}-i{i}").as_bytes());
                    }
                });
            }
        });
        for t in 0..4 {
            for i in 0..500 {
                assert!(filter.contains(format!("t{t}-i{i}").as_bytes()));
            }
        }
        assert_eq!(filter.inserted(), 2000);
        assert_eq!(filter.hamming_weight(), filter.hamming_weight_approx());
    }

    #[test]
    fn batch_apis_are_bit_identical_to_per_item_calls() {
        let params = FilterParams::explicit(4096, 5, 400);
        let loop_filter = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        let batch_filter = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        let items: Vec<String> = (0..400).map(|i| format!("item-{i}")).collect();
        let mut fresh_loop = 0u64;
        for item in &items {
            fresh_loop += u64::from(loop_filter.insert(item.as_bytes()));
        }
        let fresh_batch = batch_filter.insert_batch(&items);
        assert_eq!(fresh_batch, fresh_loop);
        assert_eq!(batch_filter.snapshot_words(), loop_filter.snapshot_words());
        assert_eq!(batch_filter.inserted(), loop_filter.inserted());
        assert_eq!(batch_filter.hamming_weight(), batch_filter.hamming_weight_approx());

        let probes: Vec<String> =
            items.iter().cloned().chain((0..100).map(|i| format!("absent-{i}"))).collect();
        let answers = batch_filter.query_batch(&probes);
        for (probe, answer) in probes.iter().zip(&answers) {
            assert_eq!(*answer, loop_filter.contains(probe.as_bytes()), "{probe}");
        }
        assert!(answers[..400].iter().all(|&a| a), "no false negatives in batch");
    }

    #[test]
    fn word_snapshot_roundtrips_bit_for_bit() {
        let strategy: Arc<dyn IndexStrategy> = Arc::new(KirschMitzenmacher::new(Murmur3_128));
        let params = FilterParams::explicit(1000, 4, 100); // m not a multiple of 64
        let filter = ConcurrentBloomFilter::with_shared_strategy(params, Arc::clone(&strategy));
        for i in 0..100 {
            filter.insert(format!("item-{i}").as_bytes());
        }
        let words = filter.snapshot_words();
        let restored =
            ConcurrentBloomFilter::from_words(params, strategy, words, filter.inserted());
        assert_eq!(restored.snapshot_words(), filter.snapshot_words());
        assert_eq!(restored.inserted(), filter.inserted());
        assert_eq!(restored.hamming_weight(), filter.hamming_weight());
        // Recounted, not copied: the approx counter matches the exact scan.
        assert_eq!(restored.hamming_weight_approx(), restored.hamming_weight());
        for i in 0..100 {
            assert!(restored.contains(format!("item-{i}").as_bytes()));
        }
    }

    #[test]
    fn fpp_estimate_tracks_approx_fill() {
        let filter = small_filter();
        assert_eq!(filter.current_false_positive_probability(), 0.0);
        for i in 0..40 {
            filter.insert(format!("y{i}").as_bytes());
        }
        let expected = filter.fill_ratio_approx().powi(3);
        assert!((filter.current_false_positive_probability() - expected).abs() < 1e-12);
    }

    #[test]
    fn debug_output_mentions_strategy() {
        let text = format!("{:?}", small_filter());
        assert!(text.contains("Kirsch-Mitzenmacher"));
    }
}
