//! The counting Bloom filter (Fan et al.) with `&self` insert/query/delete:
//! the deletable variant the Section 4.3 deletion adversary targets, the
//! slice type [`Dablooms`](crate::Dablooms) stacks, and the backend the
//! store serves the `DELETE` opcode against.
//!
//! Cells are 4-bit nibbles, packed sixteen per `AtomicU64` and updated with
//! CAS loops, so every individual counter transition is atomic: exactly one
//! thread observes each 0 → 1 transition, which keeps the running
//! occupied-cells counter exact. Four bits is the width Fan et al. showed
//! is enough for a counting filter (and the one Dablooms uses), so the cell
//! layout is fixed at it; `counter_bits` only lowers the saturation
//! maximum. What a full cell does is the filter's [`OverflowPolicy`], fixed
//! at construction:
//!
//! * [`OverflowPolicy::Saturate`] (the default, and the only policy the
//!   store serves) freezes it: frozen cells are never incremented nor
//!   decremented again — the conservative policy, whose incomplete
//!   deletions the paper's Section 6.2 overflow attack weaponises;
//! * [`OverflowPolicy::Wrap`] wraps it to zero, silently erasing membership —
//!   the Dablooms behaviour the Section 6.2 wrap-around attack exploits.
//!
//! **Deletion is not atomic across an item's `k` cells.** `remove` reads the
//! `k` counters to decide `was_present`, then decrements them one CAS at a
//! time; two racing removals of the same singleton item can both observe it
//! present. That is the same information-loss hazard counting filters carry
//! inherently (deleting an item that was never inserted evicts bystanders —
//! the Section 4.3 deletion adversary), not a new one; callers needing
//! exactly-once delete semantics must serialise removals of equal items.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evilbloom_hashes::IndexStrategy;

use crate::backend::{BackendKind, FilterBackend};
use crate::counting::OverflowPolicy;
use crate::params::FilterParams;

/// Bits per cell: every counter is one nibble, whatever its `counter_bits`.
const CELL_BITS: u32 = 4;
/// Cells per packed word.
const CELLS_PER_WORD: u64 = 64 / CELL_BITS as u64;
/// Mask of one cell's lane.
const CELL_MASK: u64 = (1 << CELL_BITS) - 1;

/// The `(cell, value)` lanes of packed `words`, in cell order, stopping at
/// cell `m` (padding lanes past it are never yielded).
fn lanes(words: impl IntoIterator<Item = u64>, m: u64) -> impl Iterator<Item = (u64, u8)> {
    let values = words.into_iter().flat_map(|word| {
        (0..64).step_by(CELL_BITS as usize).map(move |shift| ((word >> shift) & CELL_MASK) as u8)
    });
    (0..m).zip(values)
}

/// Construction options for [`ConcurrentCountingFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountingOptions {
    /// Counter width in bits, 1..=4 (Dablooms uses 4). A cell saturates —
    /// and freezes — at `2^counter_bits - 1`. Every cell is stored in four
    /// bits whatever the width, so a narrower counter lowers the maximum
    /// but saves no memory.
    pub counter_bits: u8,
}

impl Default for CountingOptions {
    fn default() -> Self {
        CountingOptions { counter_bits: 4 }
    }
}

/// A lock-free counting Bloom filter: 4-bit cells packed sixteen per atomic
/// word, CAS increments/decrements, and an [`OverflowPolicy`] for full cells.
///
/// # Examples
///
/// ```
/// use evilbloom_filters::{ConcurrentCountingFilter, CountingOptions, FilterParams};
/// use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
/// use std::sync::Arc;
///
/// let filter = ConcurrentCountingFilter::with_shared_strategy(
///     FilterParams::optimal(1000, 0.01),
///     Arc::new(KirschMitzenmacher::new(Murmur3_128)),
///     CountingOptions::default(),
/// );
/// filter.insert(b"http://phish.example/");
/// assert!(filter.contains(b"http://phish.example/"));
/// assert!(filter.remove(b"http://phish.example/"));
/// assert!(!filter.contains(b"http://phish.example/"));
/// ```
pub struct ConcurrentCountingFilter {
    /// Sixteen 4-bit cells per word; `m.div_ceil(16)` words.
    words: Vec<AtomicU64>,
    params: FilterParams,
    strategy: Arc<dyn IndexStrategy>,
    counter_bits: u8,
    policy: OverflowPolicy,
    inserted: AtomicU64,
    deleted: AtomicU64,
    overflows: AtomicU64,
    /// Running count of non-zero cells, maintained by the thread that wins
    /// each cell's 0 → 1 (or 1 → 0) CAS.
    occupied: AtomicU64,
}

impl ConcurrentCountingFilter {
    /// Creates an empty filter with 4-bit saturating counters (the Dablooms
    /// width).
    pub fn new<S: IndexStrategy + 'static>(params: FilterParams, strategy: S) -> Self {
        Self::with_shared_strategy(params, Arc::new(strategy), CountingOptions::default())
    }

    /// Creates an empty filter with saturating counters.
    ///
    /// # Panics
    ///
    /// Panics if `options.counter_bits` is zero or larger than 4.
    pub fn with_shared_strategy(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        options: CountingOptions,
    ) -> Self {
        Self::with_overflow_policy(params, strategy, options, OverflowPolicy::Saturate)
    }

    /// Creates an empty filter whose full cells follow `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `options.counter_bits` is zero or larger than 4.
    pub fn with_overflow_policy(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        options: CountingOptions,
        policy: OverflowPolicy,
    ) -> Self {
        assert!(
            (1..=CELL_BITS).contains(&u32::from(options.counter_bits)),
            "counter width must be 1..=4 bits"
        );
        let words = (0..params.m.div_ceil(CELLS_PER_WORD)).map(|_| AtomicU64::new(0)).collect();
        ConcurrentCountingFilter {
            words,
            params,
            strategy,
            counter_bits: options.counter_bits,
            policy,
            inserted: AtomicU64::new(0),
            deleted: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
            occupied: AtomicU64::new(0),
        }
    }

    /// The filter's sizing parameters.
    pub fn params(&self) -> FilterParams {
        self.params
    }

    /// Number of cells (`m`).
    pub fn m(&self) -> u64 {
        self.params.m
    }

    /// Number of indexes per item (`k`).
    pub fn k(&self) -> u32 {
        self.params.k
    }

    /// Counter width in bits.
    pub fn counter_bits(&self) -> u8 {
        self.counter_bits
    }

    /// Maximum value a counter can hold (`2^bits - 1`).
    pub fn counter_max(&self) -> u8 {
        (1 << self.counter_bits) - 1
    }

    /// What an increment does to a cell at the maximum.
    pub fn overflow_policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Number of insert calls performed.
    pub fn inserted(&self) -> u64 {
        self.inserted.load(Ordering::Relaxed)
    }

    /// Number of remove calls performed.
    pub fn deleted(&self) -> u64 {
        self.deleted.load(Ordering::Relaxed)
    }

    /// Counter-overflow events observed (increments of a cell at the
    /// maximum, which froze it or wrapped it to zero).
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// The `k` cell indexes of `item`.
    pub fn indexes(&self, item: &[u8]) -> Vec<u64> {
        self.strategy.indexes(item, self.params.k, self.params.m)
    }

    /// The shared index strategy.
    pub fn strategy(&self) -> &Arc<dyn IndexStrategy> {
        &self.strategy
    }

    #[inline]
    fn locate(&self, index: u64) -> (usize, u32) {
        assert!(index < self.params.m, "cell index {index} out of range (m {})", self.params.m);
        ((index / CELLS_PER_WORD) as usize, (index % CELLS_PER_WORD) as u32 * CELL_BITS)
    }

    /// Value of the counter at `index` (acquire load).
    ///
    /// # Panics
    ///
    /// Panics if `index >= m`.
    pub fn counter(&self, index: u64) -> u8 {
        let (word, shift) = self.locate(index);
        ((self.words[word].load(Ordering::Acquire) >> shift) & CELL_MASK) as u8
    }

    /// Atomically moves the cell at `index` from its value `prior` to
    /// `step(prior)` and returns `prior`; a step that keeps the value writes
    /// nothing. The thread whose CAS takes a cell to or from zero keeps the
    /// occupied counter.
    #[inline]
    fn update_cell(&self, index: u64, step: impl Fn(u8) -> u8) -> u8 {
        let (word, shift) = self.locate(index);
        let slot = &self.words[word];
        let mut current = slot.load(Ordering::Relaxed);
        loop {
            let prior = ((current >> shift) & CELL_MASK) as u8;
            let next = step(prior);
            if next == prior {
                return prior;
            }
            let updated = (current & !(CELL_MASK << shift)) | (u64::from(next) << shift);
            match slot.compare_exchange_weak(current, updated, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    if prior == 0 {
                        self.occupied.fetch_add(1, Ordering::Relaxed);
                    } else if next == 0 {
                        self.occupied.fetch_sub(1, Ordering::Relaxed);
                    }
                    return prior;
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// Inserts by pre-computed indexes (the batch paths derive indexes once).
    /// Returns how many cells this call took 0 → 1.
    pub fn insert_indexes(&self, indexes: &[u64]) -> u32 {
        let (max, policy) = (self.counter_max(), self.policy);
        let mut fresh = 0;
        for &i in indexes {
            let prior = self.update_cell(i, |cell| policy.increment(cell, max));
            if prior == 0 {
                fresh += 1;
            } else if prior >= max {
                self.overflows.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inserted.fetch_add(1, Ordering::Relaxed);
        fresh
    }

    /// Inserts `item`; returns the number of cells taken 0 → 1.
    pub fn insert(&self, item: &[u8]) -> u32 {
        self.insert_indexes(&self.indexes(item))
    }

    /// Membership query by pre-computed indexes.
    pub fn contains_indexes(&self, indexes: &[u64]) -> bool {
        indexes.iter().all(|&i| self.counter(i) > 0)
    }

    /// Membership query.
    pub fn contains(&self, item: &[u8]) -> bool {
        self.contains_indexes(&self.indexes(item))
    }

    /// Removes by pre-computed indexes; returns whether the item appeared
    /// present before deletion. See the module docs for the cross-cell
    /// atomicity caveat.
    pub fn remove_indexes(&self, indexes: &[u64]) -> bool {
        let was_present = self.contains_indexes(indexes);
        let (max, policy) = (self.counter_max(), self.policy);
        for &i in indexes {
            self.update_cell(i, |cell| policy.decrement(cell, max));
        }
        self.deleted.fetch_add(1, Ordering::Relaxed);
        was_present
    }

    /// Removes `item` (decrementing its `k` counters; zero cells, and frozen
    /// cells under [`OverflowPolicy::Saturate`], are untouched). Returns
    /// whether the item appeared present before.
    pub fn remove(&self, item: &[u8]) -> bool {
        self.remove_indexes(&self.indexes(item))
    }

    /// Exact count of non-zero cells (scans every word).
    pub fn occupied_cells(&self) -> u64 {
        self.live_lanes().filter(|&(_, value)| value > 0).count() as u64
    }

    /// The `(cell, value)` lanes of the live words (acquire loads).
    fn live_lanes(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        lanes(self.words.iter().map(|w| w.load(Ordering::Acquire)), self.params.m)
    }

    /// O(1) approximate count of non-zero cells from the running counter
    /// (exact once writers are quiescent).
    pub fn occupied_cells_approx(&self) -> u64 {
        self.occupied.load(Ordering::Relaxed)
    }

    /// Number of cells currently at the maximum counter value (frozen there
    /// under [`OverflowPolicy::Saturate`]).
    pub fn saturated_cells(&self) -> u64 {
        let max = self.counter_max();
        self.live_lanes().filter(|&(_, value)| value == max).count() as u64
    }

    /// Exact fraction of non-zero cells.
    pub fn fill_ratio(&self) -> f64 {
        self.occupied_cells() as f64 / self.params.m as f64
    }

    /// Current false-positive probability `(occupied/m)^k` from the O(1)
    /// approximate fill.
    pub fn current_false_positive_probability(&self) -> f64 {
        evilbloom_analysis::false_positive::false_positive_for_fill(
            self.occupied_cells_approx() as f64 / self.params.m as f64,
            self.params.k,
        )
    }

    /// Memory footprint: four bits per cell, as Dablooms packs two 4-bit
    /// counters per byte. It matches the word allocation up to the padding
    /// lanes of the last word.
    pub fn memory_bytes(&self) -> u64 {
        (self.params.m * u64::from(CELL_BITS)).div_ceil(8)
    }

    /// Racy word-array copy of the packed cells under `&self`.
    ///
    /// Unlike the plain filter's monotone bits, counters move both ways, so
    /// a copy taken under concurrent traffic may mix before/after words of
    /// in-flight operations. The mix is still *conservative* for membership:
    /// an acknowledged insert's cells are each ≥ 1 in any later copy (cells
    /// only drop on explicit removes), so recovery never invents false
    /// negatives for acknowledged-and-not-removed items. Bit-for-bit
    /// equality with the live filter is only guaranteed under quiescence.
    pub fn snapshot_words(&self) -> Vec<u64> {
        self.words.iter().map(|w| w.load(Ordering::Acquire)).collect()
    }

    /// Rebuilds a filter from a persisted word array (the recovery inverse
    /// of [`ConcurrentCountingFilter::snapshot_words`]). Padding lanes past
    /// `m` are masked off and corrupt lanes above the counter maximum clamp
    /// to it (saturated); the occupied counter is recounted from the words.
    ///
    /// Returns `None` if `words` is not exactly `m.div_ceil(16)` words long.
    pub fn from_words(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        words: Vec<u64>,
        inserted: u64,
        options: CountingOptions,
    ) -> Option<Self> {
        if words.len() as u64 != params.m.div_ceil(CELLS_PER_WORD) {
            return None;
        }
        let mut filter = ConcurrentCountingFilter::with_shared_strategy(params, strategy, options);
        let max = filter.counter_max();
        for (cell, value) in lanes(words, params.m).filter(|&(_, value)| value > 0) {
            let (word, shift) = filter.locate(cell);
            *filter.words[word].get_mut() |= u64::from(value.min(max)) << shift;
            *filter.occupied.get_mut() += 1;
        }
        *filter.inserted.get_mut() = inserted;
        Some(filter)
    }
}

impl core::fmt::Debug for ConcurrentCountingFilter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ConcurrentCountingFilter")
            .field("m", &self.params.m)
            .field("k", &self.params.k)
            .field("counter_bits", &self.counter_bits)
            .field("inserted", &self.inserted())
            .field("deleted", &self.deleted())
            .field("occupied_approx", &self.occupied_cells_approx())
            .field("overflows", &self.overflows())
            .finish()
    }
}

impl FilterBackend for ConcurrentCountingFilter {
    const KIND: BackendKind = BackendKind::Counting;

    type Options = CountingOptions;

    fn fresh(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        options: &Self::Options,
    ) -> Self {
        ConcurrentCountingFilter::with_shared_strategy(params, strategy, *options)
    }

    fn params(&self) -> FilterParams {
        ConcurrentCountingFilter::params(self)
    }

    fn m(&self) -> u64 {
        ConcurrentCountingFilter::m(self)
    }

    fn k(&self) -> u32 {
        ConcurrentCountingFilter::k(self)
    }

    fn inserted(&self) -> u64 {
        ConcurrentCountingFilter::inserted(self)
    }

    fn insert(&self, item: &[u8]) -> u32 {
        ConcurrentCountingFilter::insert(self, item)
    }

    fn contains(&self, item: &[u8]) -> bool {
        ConcurrentCountingFilter::contains(self, item)
    }

    fn insert_batch(&self, items: &[&[u8]]) -> u64 {
        let k = self.params.k as usize;
        let mut indexes = Vec::with_capacity(items.len() * k);
        for item in items {
            self.strategy.indexes_into(item, self.params.k, self.params.m, &mut indexes);
        }
        let mut fresh = 0u64;
        for chunk in indexes.chunks_exact(k) {
            fresh += u64::from(self.insert_indexes(chunk));
        }
        fresh
    }

    fn query_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let k = self.params.k as usize;
        let mut indexes = Vec::with_capacity(items.len() * k);
        for item in items {
            self.strategy.indexes_into(item, self.params.k, self.params.m, &mut indexes);
        }
        indexes.chunks_exact(k).map(|chunk| self.contains_indexes(chunk)).collect()
    }

    fn supports_remove() -> bool {
        true
    }

    fn remove(&self, item: &[u8]) -> Option<bool> {
        Some(ConcurrentCountingFilter::remove(self, item))
    }

    fn weight(&self) -> u64 {
        self.occupied_cells()
    }

    fn weight_approx(&self) -> u64 {
        self.occupied_cells_approx()
    }

    fn memory_bytes(&self) -> u64 {
        ConcurrentCountingFilter::memory_bytes(self)
    }

    fn current_false_positive_probability(&self) -> f64 {
        ConcurrentCountingFilter::current_false_positive_probability(self)
    }

    fn is_set(&self, index: u64) -> bool {
        self.counter(index) > 0
    }

    fn persist_words_len(params: &FilterParams, _options: &Self::Options) -> Option<u64> {
        Some(params.m.div_ceil(CELLS_PER_WORD))
    }

    fn snapshot_words(&self) -> Option<Vec<u64>> {
        Some(ConcurrentCountingFilter::snapshot_words(self))
    }

    fn from_words(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        words: Vec<u64>,
        inserted: u64,
        options: &Self::Options,
    ) -> Option<Self> {
        ConcurrentCountingFilter::from_words(params, strategy, words, inserted, *options)
    }

    fn persist_aux(options: &Self::Options) -> u8 {
        options.counter_bits
    }

    fn options_from_persist_aux(aux: u8) -> Option<Self::Options> {
        (1..=CELL_BITS).contains(&u32::from(aux)).then_some(CountingOptions { counter_bits: aux })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn strategy() -> Arc<dyn IndexStrategy> {
        Arc::new(KirschMitzenmacher::new(Murmur3_128))
    }

    fn small(m: u64, k: u32, bits: u8) -> ConcurrentCountingFilter {
        ConcurrentCountingFilter::with_shared_strategy(
            FilterParams::explicit(m, k, m / 10),
            strategy(),
            CountingOptions { counter_bits: bits },
        )
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let filter = small(1024, 4, 4);
        assert!(filter.insert(b"url") > 0);
        assert!(filter.contains(b"url"));
        assert!(filter.remove(b"url"));
        assert!(!filter.contains(b"url"));
        assert!(!filter.remove(b"url"), "second remove reports absent");
        assert_eq!(filter.inserted(), 1);
        assert_eq!(filter.deleted(), 2);
    }

    /// Sequential reference model of a counting filter: one plain `u8` per
    /// cell, following the overflow rules as the paper states them rather
    /// than the filter's CAS code.
    struct CounterModel {
        cells: Vec<u8>,
        max: u8,
        wrap: bool,
        overflows: u64,
    }

    impl CounterModel {
        fn insert(&mut self, indexes: &[u64]) -> u32 {
            let mut fresh = 0;
            for &i in indexes {
                let cell = &mut self.cells[i as usize];
                if *cell == self.max {
                    self.overflows += 1;
                    if self.wrap {
                        *cell = 0;
                    }
                } else {
                    fresh += u32::from(*cell == 0);
                    *cell += 1;
                }
            }
            fresh
        }

        fn remove(&mut self, indexes: &[u64]) -> bool {
            let present = indexes.iter().all(|&i| self.cells[i as usize] > 0);
            for &i in indexes {
                let cell = &mut self.cells[i as usize];
                if *cell > 0 && (self.wrap || *cell < self.max) {
                    *cell -= 1;
                }
            }
            present
        }
    }

    #[test]
    fn matches_sequential_counting_filter_cell_for_cell() {
        // Seeded insert/remove streams over a small item pool and a small
        // filter, so cells reach the maximum, overflow and are removed from
        // again; every answer and every cell must match the model under
        // both overflow policies.
        for policy in [OverflowPolicy::Saturate, OverflowPolicy::Wrap] {
            for counter_bits in 1..=4u8 {
                for seed in 0..16u64 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let params = FilterParams::explicit(64, 3, 8);
                    let filter = ConcurrentCountingFilter::with_overflow_policy(
                        params,
                        strategy(),
                        CountingOptions { counter_bits },
                        policy,
                    );
                    let mut model = CounterModel {
                        cells: vec![0; 64],
                        max: filter.counter_max(),
                        wrap: policy == OverflowPolicy::Wrap,
                        overflows: 0,
                    };
                    let case = format!("{policy:?} bits {counter_bits} seed {seed}");
                    for op in 0..600 {
                        let item = format!("item-{}", rng.gen_range(0..24u32));
                        let indexes = filter.indexes(item.as_bytes());
                        if rng.gen_range(0..10u32) < 6 {
                            let fresh = filter.insert(item.as_bytes());
                            assert_eq!(fresh, model.insert(&indexes), "{case} op {op}");
                        } else {
                            let present = filter.remove(item.as_bytes());
                            assert_eq!(present, model.remove(&indexes), "{case} op {op}");
                        }
                    }
                    for cell in 0..params.m {
                        let expected = model.cells[cell as usize];
                        assert_eq!(filter.counter(cell), expected, "{case} cell {cell}");
                    }
                    let occupied = model.cells.iter().filter(|&&c| c > 0).count() as u64;
                    let at_max = model.cells.iter().filter(|&&c| c == model.max).count() as u64;
                    assert_eq!(filter.occupied_cells(), occupied, "{case}");
                    assert_eq!(filter.occupied_cells_approx(), occupied, "{case}");
                    assert_eq!(filter.saturated_cells(), at_max, "{case}");
                    assert_eq!(filter.overflows(), model.overflows, "{case}");
                    assert!(model.overflows > 0, "{case}: the stream must overflow cells");
                }
            }
        }
    }

    #[test]
    fn saturation_freezes_cells_like_sequential() {
        let filter = small(32, 2, 4);
        assert_eq!(filter.counter_max(), 15);
        for _ in 0..20 {
            filter.insert(b"hot");
        }
        assert!(filter.overflows() > 0);
        assert!(filter.saturated_cells() > 0);
        for _ in 0..40 {
            filter.remove(b"hot");
        }
        assert!(filter.contains(b"hot"), "frozen counters keep the item visible");
    }

    #[test]
    fn concurrent_insert_remove_keeps_occupied_counter_exact() {
        let filter = small(4096, 4, 4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let filter = &filter;
                scope.spawn(move || {
                    for i in 0..500 {
                        filter.insert(format!("t{t}-i{i}").as_bytes());
                    }
                    for i in (0..500).step_by(2) {
                        filter.remove(format!("t{t}-i{i}").as_bytes());
                    }
                });
            }
        });
        assert_eq!(filter.occupied_cells(), filter.occupied_cells_approx());
        for t in 0..4 {
            for i in (1..500).step_by(2) {
                assert!(filter.contains(format!("t{t}-i{i}").as_bytes()), "t{t}-i{i}");
            }
        }
    }

    #[test]
    fn word_snapshot_roundtrips_cell_for_cell() {
        let filter = small(1000, 4, 4); // m not a multiple of 16
        for i in 0..150 {
            filter.insert(format!("i{i}").as_bytes());
        }
        for i in (0..150).step_by(4) {
            filter.remove(format!("i{i}").as_bytes());
        }
        let words = ConcurrentCountingFilter::snapshot_words(&filter);
        let restored = ConcurrentCountingFilter::from_words(
            filter.params(),
            strategy(),
            words,
            filter.inserted(),
            CountingOptions::default(),
        )
        .expect("geometry matches");
        for cell in 0..filter.m() {
            assert_eq!(restored.counter(cell), filter.counter(cell), "cell {cell}");
        }
        assert_eq!(restored.occupied_cells_approx(), filter.occupied_cells());
        assert_eq!(restored.inserted(), filter.inserted());
    }

    #[test]
    fn snapshot_packs_sixteen_nibbles_per_word() {
        let filter = small(32, 3, 4);
        filter.insert_indexes(&[0, 15, 16]);
        assert_eq!(filter.snapshot_words(), vec![0x1000_0000_0000_0001, 0x1]);
    }

    #[test]
    fn from_words_masks_padding_and_clamps_corrupt_lanes() {
        // m = 10 fills one word and leaves 6 padding nibbles; at 3 bits a
        // corrupt 0xF lane clamps to 7.
        let params = FilterParams::explicit(10, 2, 4);
        let options = CountingOptions { counter_bits: 3 };
        let restored =
            ConcurrentCountingFilter::from_words(params, strategy(), vec![u64::MAX], 0, options)
                .expect("right word count");
        for cell in 0..10 {
            assert_eq!(restored.counter(cell), 7, "clamped to the 3-bit max");
        }
        assert_eq!(restored.snapshot_words(), vec![0x77_7777_7777], "padding lanes masked off");
        assert_eq!(restored.occupied_cells(), 10);
        assert_eq!(restored.occupied_cells_approx(), 10);
        assert_eq!(restored.saturated_cells(), 10);
        // Wrong geometry (the byte-cell word count included) is a typed
        // failure.
        for len in [0, 2] {
            let words = vec![0u64; len];
            assert!(ConcurrentCountingFilter::from_words(params, strategy(), words, 0, options)
                .is_none());
        }
    }

    #[test]
    fn backend_batch_ops_match_loops() {
        let params = FilterParams::explicit(4096, 5, 400);
        let batch = ConcurrentCountingFilter::with_shared_strategy(
            params,
            strategy(),
            CountingOptions::default(),
        );
        let looped = ConcurrentCountingFilter::with_shared_strategy(
            params,
            strategy(),
            CountingOptions::default(),
        );
        let items: Vec<String> = (0..400).map(|i| format!("item-{i}")).collect();
        let refs: Vec<&[u8]> = items.iter().map(|s| s.as_bytes()).collect();
        let fresh_batch = FilterBackend::insert_batch(&batch, &refs);
        let mut fresh_loop = 0u64;
        for item in &refs {
            fresh_loop += u64::from(looped.insert(item));
        }
        assert_eq!(fresh_batch, fresh_loop);
        for cell in 0..params.m {
            assert_eq!(batch.counter(cell), looped.counter(cell));
        }
        let probes: Vec<&[u8]> = refs.iter().copied().chain([b"absent".as_slice()]).collect();
        let answers = FilterBackend::query_batch(&batch, &probes);
        for (probe, answer) in probes.iter().zip(&answers) {
            assert_eq!(*answer, looped.contains(probe));
        }
        let removed = FilterBackend::remove_batch(&batch, &refs[..10]).expect("deletable");
        assert!(removed.iter().all(|&r| r));
    }

    #[test]
    fn backend_capability_and_aux_byte() {
        assert!(<ConcurrentCountingFilter as FilterBackend>::supports_remove());
        assert_eq!(<ConcurrentCountingFilter as FilterBackend>::KIND, BackendKind::Counting);
        let options = CountingOptions { counter_bits: 3 };
        let aux = <ConcurrentCountingFilter as FilterBackend>::persist_aux(&options);
        assert_eq!(
            <ConcurrentCountingFilter as FilterBackend>::options_from_persist_aux(aux),
            Some(options)
        );
        for aux in [0, 5, 6, 7, 8, 9] {
            assert_eq!(
                <ConcurrentCountingFilter as FilterBackend>::options_from_persist_aux(aux),
                None,
                "aux {aux}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_width_counters_rejected() {
        small(64, 2, 0);
    }

    #[test]
    fn deletion_of_overlapping_item_creates_false_negative() {
        // The Section 4.3 deletion-adversary failure mode survives the
        // concurrent formulation: removing a never-inserted item that shares
        // cells with a member can evict the member.
        let filter = small(64, 4, 4);
        filter.insert(b"victim");
        let victim_cells: std::collections::HashSet<u64> =
            filter.indexes(b"victim").into_iter().collect();
        let attacker = (0..10_000)
            .map(|i| format!("candidate-{i}"))
            .find(|c| filter.indexes(c.as_bytes()).iter().any(|i| victim_cells.contains(i)))
            .expect("small filter guarantees an overlap");
        for _ in 0..4 {
            filter.remove(attacker.as_bytes());
        }
        assert!(!filter.contains(b"victim"), "victim evicted by overlapping deletes");
    }
}
