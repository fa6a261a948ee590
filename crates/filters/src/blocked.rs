//! A cache-line *blocked* Bloom filter — the performance-lab fast path.
//!
//! The classic filter ([`crate::ConcurrentBloomFilter`]) touches `k` random
//! cache lines per operation; once `m` outgrows the last-level cache every
//! probe is a memory stall. The blocked layout (Putze, Sanders & Singler, JEA 2009)
//! confines all `k` bits of an item to one 512-bit (cache-line-sized) block:
//!
//! 1. a single [`HashStrategy`] call yields the pair `(h1, h2)`;
//! 2. `h1` selects the block;
//! 3. the `k` in-block offsets are derived from the pair by
//!    Kirsch–Mitzenmacher double hashing with an odd stride, so they are
//!    pairwise distinct and need no further hashing.
//!
//! One hash call, one cache line, zero allocations per operation. The price
//! is a slightly higher false-positive probability (block-load variance) —
//! quantified exactly by [`evilbloom_analysis::blocked`], and the filter's
//! [`BlockedBloomFilter::current_false_positive_probability`] uses that
//! corrected formula.
//!
//! **Security is unchanged from the classic filter**: with a predictable pair
//! source the block *and* the in-block offsets are computable offline, so the
//! paper's chosen-insertion and query-only adversaries apply verbatim (the
//! filter implements `TargetFilter` in `evilbloom-attacks`). Hardening means
//! a keyed pair source ([`evilbloom_hashes::KeyedPair`]), exactly as for the
//! classic filter.

use std::sync::Arc;

use evilbloom_hashes::HashStrategy;

use crate::params::FilterParams;

/// Bits per block: one x86-64 cache line.
pub const BLOCK_BITS: u64 = 512;
/// 64-bit words per block.
pub const BLOCK_WORDS: usize = (BLOCK_BITS / 64) as usize;

/// A cache-line blocked Bloom filter: every operation computes one hash pair
/// and touches exactly one 512-bit block.
///
/// # Examples
///
/// ```
/// use evilbloom_filters::{BlockedBloomFilter, FilterParams};
/// use evilbloom_hashes::Murmur128Pair;
///
/// let mut filter = BlockedBloomFilter::new(FilterParams::optimal(10_000, 0.01), Murmur128Pair);
/// filter.insert(b"http://example.org/");
/// assert!(filter.contains(b"http://example.org/"));
/// ```
pub struct BlockedBloomFilter {
    words: Vec<u64>,
    num_blocks: u64,
    params: FilterParams,
    strategy: Arc<dyn HashStrategy>,
    inserted: u64,
}

impl BlockedBloomFilter {
    /// Creates an empty filter. The requested `params.m` is rounded **up** to
    /// a whole number of 512-bit blocks (the effective size is
    /// [`BlockedBloomFilter::m`]).
    ///
    /// # Panics
    ///
    /// Panics if `params.k` exceeds [`BLOCK_BITS`].
    pub fn new<S: HashStrategy + 'static>(params: FilterParams, strategy: S) -> Self {
        Self::with_shared_strategy(params, Arc::new(strategy))
    }

    /// Creates an empty filter sharing an already-boxed strategy.
    pub fn with_shared_strategy(params: FilterParams, strategy: Arc<dyn HashStrategy>) -> Self {
        assert!(
            u64::from(params.k) <= BLOCK_BITS,
            "k = {} exceeds the {BLOCK_BITS}-bit block",
            params.k
        );
        let num_blocks = params.m.div_ceil(BLOCK_BITS).max(1);
        let mut params = params;
        params.m = num_blocks * BLOCK_BITS;
        BlockedBloomFilter {
            words: vec![0u64; num_blocks as usize * BLOCK_WORDS],
            num_blocks,
            params,
            strategy,
            inserted: 0,
        }
    }

    /// The filter's sizing parameters (with `m` rounded up to whole blocks).
    pub fn params(&self) -> FilterParams {
        self.params
    }

    /// Total number of bits (`m`, a multiple of [`BLOCK_BITS`]).
    pub fn m(&self) -> u64 {
        self.params.m
    }

    /// Number of bits set per item (`k`).
    pub fn k(&self) -> u32 {
        self.params.k
    }

    /// Number of 512-bit blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Number of `insert` calls performed so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Name of the hash-pair strategy in use.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// The hash pair of `item` under this filter's strategy.
    pub fn hash_pair(&self, item: &[u8]) -> (u64, u64) {
        self.strategy.hash_pair(item)
    }

    /// The block `item` maps to.
    pub fn block_of(&self, item: &[u8]) -> u64 {
        self.strategy.hash_pair(item).0 % self.num_blocks
    }

    /// The `k` pairwise-distinct in-block bit offsets of a pair: KM double
    /// hashing `(h2 + i·stride) mod 512` with an odd stride drawn from the
    /// pair's upper half (odd ⇒ coprime with 512 ⇒ distinct for `k ≤ 512`).
    #[inline]
    fn offsets(pair: (u64, u64), k: u32) -> impl Iterator<Item = u64> {
        let stride = (pair.0 >> 32) | 1;
        (0..u64::from(k))
            .map(move |i| pair.1.wrapping_add(i.wrapping_mul(stride)) & (BLOCK_BITS - 1))
    }

    /// The `k` *global* bit positions of `item` (block base + in-block
    /// offsets) — the adversary-facing view `TargetFilter` exposes, and the
    /// coordinates the attack engines search over.
    pub fn bit_positions(&self, item: &[u8]) -> Vec<u64> {
        let pair = self.strategy.hash_pair(item);
        let base = (pair.0 % self.num_blocks) * BLOCK_BITS;
        Self::offsets(pair, self.params.k).map(|o| base + o).collect()
    }

    /// Whether the global bit at `index` is set.
    pub fn is_set(&self, index: u64) -> bool {
        assert!(index < self.params.m, "bit index out of range");
        self.words[(index / 64) as usize] >> (index % 64) & 1 == 1
    }

    #[inline]
    fn block_words(&self, block: u64) -> &[u64] {
        let start = block as usize * BLOCK_WORDS;
        &self.words[start..start + BLOCK_WORDS]
    }

    /// Inserts by a precomputed pair; returns bits freshly set.
    #[inline]
    fn insert_pair(&mut self, pair: (u64, u64)) -> u32 {
        let start = (pair.0 % self.num_blocks) as usize * BLOCK_WORDS;
        let mut fresh = 0;
        for offset in Self::offsets(pair, self.params.k) {
            let word = &mut self.words[start + (offset / 64) as usize];
            let mask = 1u64 << (offset % 64);
            fresh += u32::from(*word & mask == 0);
            *word |= mask;
        }
        self.inserted += 1;
        fresh
    }

    /// Queries by a precomputed pair.
    #[inline]
    fn contains_pair(&self, pair: (u64, u64)) -> bool {
        let block = self.block_words(pair.0 % self.num_blocks);
        Self::offsets(pair, self.params.k)
            .all(|offset| block[(offset / 64) as usize] >> (offset % 64) & 1 == 1)
    }

    /// Inserts `item`: one hash call, one cache line. Returns the number of
    /// bits that flipped from 0 to 1.
    pub fn insert(&mut self, item: &[u8]) -> u32 {
        self.insert_pair(self.strategy.hash_pair(item))
    }

    /// Membership query (positives may be false positives).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.contains_pair(self.strategy.hash_pair(item))
    }

    /// Batch insert with hash precompute: phase 1 hashes every item into a
    /// pair buffer, phase 2 replays the (purely memory-bound) block updates.
    /// Bit-identical to calling [`BlockedBloomFilter::insert`] per item, in
    /// order. Returns the total number of freshly set bits.
    pub fn insert_batch<I: AsRef<[u8]>>(&mut self, items: &[I]) -> u64 {
        let pairs: Vec<(u64, u64)> =
            items.iter().map(|item| self.strategy.hash_pair(item.as_ref())).collect();
        pairs.into_iter().map(|pair| u64::from(self.insert_pair(pair))).sum()
    }

    /// Batch query with hash precompute; answers are in input order and
    /// bit-identical to per-item [`BlockedBloomFilter::contains`] calls.
    pub fn query_batch<I: AsRef<[u8]>>(&self, items: &[I]) -> Vec<bool> {
        let pairs: Vec<(u64, u64)> =
            items.iter().map(|item| self.strategy.hash_pair(item.as_ref())).collect();
        pairs.into_iter().map(|pair| self.contains_pair(pair)).collect()
    }

    /// Exact Hamming weight.
    pub fn hamming_weight(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.hamming_weight() as f64 / self.params.m as f64
    }

    /// Number of set bits in one block (block-load skew is what the
    /// corrected analysis quantifies).
    pub fn block_weight(&self, block: u64) -> u32 {
        self.block_words(block).iter().map(|w| w.count_ones()).sum()
    }

    /// Expected false-positive probability at the current insertion count,
    /// using the **corrected** blocked-filter formula (Poisson mixture over
    /// block loads) rather than the textbook one.
    pub fn current_false_positive_probability(&self) -> f64 {
        evilbloom_analysis::blocked::blocked_false_positive(
            self.params.m,
            self.inserted,
            self.params.k,
            BLOCK_BITS,
        )
    }

    /// Clears the filter.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.inserted = 0;
    }
}

impl core::fmt::Debug for BlockedBloomFilter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BlockedBloomFilter")
            .field("m", &self.params.m)
            .field("blocks", &self.num_blocks)
            .field("k", &self.params.k)
            .field("inserted", &self.inserted)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::{KeyedPair, Murmur128Pair, Murmur3_128, SipHash24, SipKey};

    fn filter(m: u64, k: u32, capacity: u64) -> BlockedBloomFilter {
        BlockedBloomFilter::new(FilterParams::explicit(m, k, capacity), Murmur128Pair)
    }

    #[test]
    fn rounds_m_up_to_whole_blocks() {
        let f = filter(1000, 4, 100);
        assert_eq!(f.m(), 1024);
        assert_eq!(f.num_blocks(), 2);
        let exact = filter(2048, 4, 100);
        assert_eq!(exact.m(), 2048);
        assert_eq!(exact.num_blocks(), 4);
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BlockedBloomFilter::new(FilterParams::optimal(2000, 0.01), Murmur128Pair);
        let items: Vec<String> = (0..2000).map(|i| format!("http://site{i}.example/")).collect();
        for item in &items {
            f.insert(item.as_bytes());
        }
        for item in &items {
            assert!(f.contains(item.as_bytes()), "false negative for {item}");
        }
    }

    #[test]
    fn insert_sets_exactly_k_distinct_bits_in_one_block() {
        let mut f = filter(1 << 16, 8, 1000);
        for i in 0..200 {
            let item = format!("item-{i}");
            let before = f.hamming_weight();
            let positions = f.bit_positions(item.as_bytes());
            let fresh = f.insert(item.as_bytes());
            // k pairwise-distinct positions, all in one block.
            let mut unique = positions.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), 8, "offsets must be pairwise distinct");
            let block = positions[0] / BLOCK_BITS;
            assert!(positions.iter().all(|&p| p / BLOCK_BITS == block));
            assert_eq!(f.hamming_weight(), before + u64::from(fresh));
            assert!(positions.iter().all(|&p| f.is_set(p)));
        }
    }

    #[test]
    fn bit_positions_match_probed_bits() {
        let mut f = filter(1 << 14, 5, 100);
        f.insert(b"only-item");
        // Exactly the bits named by bit_positions are set.
        let expected: std::collections::HashSet<u64> =
            f.bit_positions(b"only-item").into_iter().collect();
        for bit in 0..f.m() {
            assert_eq!(f.is_set(bit), expected.contains(&bit), "bit {bit}");
        }
    }

    #[test]
    fn batch_is_bit_identical_to_per_item_calls() {
        let items: Vec<String> = (0..500).map(|i| format!("item-{i}")).collect();
        let mut one_by_one = filter(1 << 14, 6, 500);
        let mut fresh_loop = 0u64;
        for item in &items {
            fresh_loop += u64::from(one_by_one.insert(item.as_bytes()));
        }
        let mut batched = filter(1 << 14, 6, 500);
        let fresh_batch = batched.insert_batch(&items);
        assert_eq!(fresh_batch, fresh_loop);
        assert_eq!(batched.words, one_by_one.words);
        assert_eq!(batched.inserted(), one_by_one.inserted());

        let probes: Vec<String> =
            items.iter().cloned().chain((0..200).map(|i| format!("absent-{i}"))).collect();
        let batch_answers = batched.query_batch(&probes);
        for (probe, answer) in probes.iter().zip(&batch_answers) {
            assert_eq!(*answer, one_by_one.contains(probe.as_bytes()), "{probe}");
        }
    }

    #[test]
    fn corrected_fpp_tracks_observed_rate() {
        let mut f =
            BlockedBloomFilter::new(FilterParams::explicit(1 << 15, 5, 4000), Murmur128Pair);
        for i in 0..4000 {
            f.insert(format!("member-{i}").as_bytes());
        }
        let predicted = f.current_false_positive_probability();
        let probes = 100_000;
        let fp = (0..probes).filter(|i| f.contains(format!("non-member-{i}").as_bytes())).count();
        let observed = fp as f64 / probes as f64;
        assert!(observed < predicted * 2.0, "observed {observed} predicted {predicted}");
        assert!(observed > predicted / 2.0, "observed {observed} predicted {predicted}");
        // And the corrected prediction exceeds the naive unblocked formula.
        let naive = evilbloom_analysis::false_positive::false_positive_exact(f.m(), 4000, 5);
        assert!(predicted > naive);
    }

    #[test]
    fn seeded_and_keyed_sources_work() {
        let mut plain = BlockedBloomFilter::new(FilterParams::optimal(500, 0.01), Murmur3_128);
        let mut keyed = BlockedBloomFilter::new(
            FilterParams::optimal(500, 0.01),
            KeyedPair::new(Box::new(SipHash24::new(SipKey::new(7, 9)))),
        );
        for i in 0..500 {
            let item = format!("x{i}");
            plain.insert(item.as_bytes());
            keyed.insert(item.as_bytes());
        }
        for i in 0..500 {
            let item = format!("x{i}");
            assert!(plain.contains(item.as_bytes()));
            assert!(keyed.contains(item.as_bytes()));
        }
        // Different pair sources place items differently.
        assert_ne!(plain.bit_positions(b"x0"), keyed.bit_positions(b"x0"));
    }

    #[test]
    #[should_panic(expected = "exceeds the 512-bit block")]
    fn oversized_k_rejected() {
        filter(1 << 14, 513, 10);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = filter(1 << 12, 4, 100);
        f.insert(b"x");
        f.reset();
        assert_eq!(f.hamming_weight(), 0);
        assert_eq!(f.inserted(), 0);
        assert!(!f.contains(b"x"));
    }

    #[test]
    fn debug_output_mentions_blocks_and_strategy() {
        let text = format!("{:?}", filter(2048, 4, 10));
        assert!(text.contains("blocks"));
        assert!(text.contains("MurmurHash3-x64-128-pair"));
    }
}
