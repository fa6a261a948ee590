//! The [`FilterBackend`] trait — one concurrent-serving contract that every
//! filter family the paper attacks can implement.
//!
//! The paper's Table 2 breaks *every* deployed Bloom-filter variant with
//! chosen inputs: plain filters by pollution, counting filters by deletion,
//! scalable filters by forced growth. The store serves whichever family a
//! deployment picks through this trait: lock-free `&self` insert/query,
//! batch operations, an optional `remove` capability (counting filters), a
//! word-array persistence contract (`snapshot_words`/`from_words`) and the
//! fill/fresh-bit statistics the drift gauge is built on. Each backend also
//! exposes its *attack surface* — the `(m, k)` region a chosen-input
//! adversary can craft against — so `AdversarialStoreView` works uniformly
//! across families.

use std::sync::Arc;

use evilbloom_hashes::IndexStrategy;

use crate::concurrent::ConcurrentBloomFilter;
use crate::params::FilterParams;

/// Which filter family a backend implements. Carried in [`FilterParams`]-level
/// configuration, surfaced in `STATS` and the metrics exposition, and written
/// into persisted snapshot headers (via [`BackendKind::code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Plain bit-vector Bloom filter (the Section 3 layout).
    #[default]
    Bloom,
    /// Counting filter with per-cell counters and deletion support
    /// (Fan et al.; the Section 4.3 deletion adversary's target).
    Counting,
    /// Scalable filter: a growing stack of slices (Almeida et al.; the
    /// forced-growth target).
    Scalable,
}

impl BackendKind {
    /// Every kind, in wire-code order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Bloom, BackendKind::Counting, BackendKind::Scalable];

    /// Stable single-byte code used on the wire and in persisted headers.
    pub fn code(self) -> u8 {
        match self {
            BackendKind::Bloom => 0,
            BackendKind::Counting => 1,
            BackendKind::Scalable => 2,
        }
    }

    /// Inverse of [`BackendKind::code`].
    pub fn from_code(code: u8) -> Option<BackendKind> {
        match code {
            0 => Some(BackendKind::Bloom),
            1 => Some(BackendKind::Counting),
            2 => Some(BackendKind::Scalable),
            _ => None,
        }
    }

    /// Human-readable name (used as a metric label value).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Bloom => "bloom",
            BackendKind::Counting => "counting",
            BackendKind::Scalable => "scalable",
        }
    }
}

impl core::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl core::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bloom" => Ok(BackendKind::Bloom),
            "counting" => Ok(BackendKind::Counting),
            "scalable" => Ok(BackendKind::Scalable),
            other => Err(format!("unknown backend '{other}' (expected bloom|counting|scalable)")),
        }
    }
}

/// A concurrently-servable filter family.
///
/// Everything takes `&self`: backends must be safe to share across the
/// store's worker threads. The contract mirrors what the serving layer
/// needs:
///
/// * **insert/query** (scalar and batch) returning fresh-cell counts — the
///   numerator of the `bits_per_insert_recent` drift gauge that fingerprints
///   the paper's chosen-insertion attack;
/// * **optional removal** — [`FilterBackend::remove`] returns `None` on
///   families without deletion (plain, scalable) and `Some(was_present)` on
///   counting filters, which the wire layer maps to a typed `Unsupported`
///   error;
/// * **persistence** — [`FilterBackend::snapshot_words`] /
///   [`FilterBackend::from_words`] move state through the snapshot/WAL
///   machinery as raw `u64` words, or opt out (`None`) for families whose
///   state cannot be captured in a fixed-geometry word array (scalable);
/// * **attack surface** — the `(m, k)` region a chosen-input adversary
///   crafts against, which for a scalable filter is the *active slice*, not
///   the whole stack.
pub trait FilterBackend: Send + Sync + Sized + 'static {
    /// The family this backend implements.
    const KIND: BackendKind;

    /// Per-backend construction options (counter width, tightening ratio…).
    type Options: Clone + Send + Sync + core::fmt::Debug + Default;

    /// Creates an empty filter with the given base parameters, shared index
    /// strategy and options. For growing families, `params` sizes the first
    /// slice and `params.capacity` is the per-slice growth threshold.
    fn fresh(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        options: &Self::Options,
    ) -> Self;

    /// The base sizing parameters this backend was created with.
    fn params(&self) -> FilterParams;

    /// Current total number of bits/cells (grows over time for scalable).
    fn m(&self) -> u64;

    /// Indexes per item in the region new inserts land in.
    fn k(&self) -> u32;

    /// Number of insert calls performed.
    fn inserted(&self) -> u64;

    /// Inserts `item`; returns how many cells this call took 0 → occupied
    /// (the drift-gauge numerator: ≈ `k` under chosen-insertion pollution,
    /// ≈ `k·(1 − fill)` under honest load).
    fn insert(&self, item: &[u8]) -> u32;

    /// Membership query.
    fn contains(&self, item: &[u8]) -> bool;

    /// Batch insert; must be cell-for-cell identical to looping
    /// [`FilterBackend::insert`] over `items`. Returns total fresh cells.
    fn insert_batch(&self, items: &[&[u8]]) -> u64;

    /// Batch query, answers in input order; must agree with per-item
    /// [`FilterBackend::contains`].
    fn query_batch(&self, items: &[&[u8]]) -> Vec<bool>;

    /// Whether this family supports removal at all (a static capability —
    /// the wire layer rejects `DELETE` before touching the filter).
    fn supports_remove() -> bool {
        false
    }

    /// Removes `item`: `Some(was_present)` on deletable families, `None`
    /// otherwise.
    fn remove(&self, _item: &[u8]) -> Option<bool> {
        None
    }

    /// Batch removal; element order matches `items`. Default loops
    /// [`FilterBackend::remove`].
    fn remove_batch(&self, items: &[&[u8]]) -> Option<Vec<bool>> {
        if !Self::supports_remove() {
            return None;
        }
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(self.remove(item)?);
        }
        Some(out)
    }

    /// Exact count of occupied cells (scans the state).
    fn weight(&self) -> u64;

    /// O(1) approximate count of occupied cells from running counters.
    fn weight_approx(&self) -> u64;

    /// O(1) approximate fill fraction.
    fn fill_ratio_approx(&self) -> f64 {
        self.weight_approx() as f64 / self.m().max(1) as f64
    }

    /// Memory footprint in bytes of the filter state.
    fn memory_bytes(&self) -> u64;

    /// False-positive probability estimated from the current fill.
    fn current_false_positive_probability(&self) -> f64;

    /// Sizing of the region a chosen-input adversary crafts against: the
    /// whole filter for fixed-geometry families, the *active slice* for
    /// scalable ones. `AdversarialStoreView` flattens these per shard.
    fn attack_params(&self) -> FilterParams {
        self.params()
    }

    /// Whether cell `index` of the attack region is occupied.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the attack region.
    fn is_set(&self, index: u64) -> bool;

    /// Exact occupied-cell count of the attack region.
    fn attack_weight(&self) -> u64 {
        self.weight()
    }

    /// Expected word-array length for persisted state with these parameters,
    /// or `None` if the family opts out of word-array persistence.
    fn persist_words_len(params: &FilterParams, options: &Self::Options) -> Option<u64>;

    /// Racy word-array copy of the state (torn reads must be *conservative*:
    /// never lose an acknowledged insert). `None` if unsupported.
    ///
    /// The store's snapshot writer calls this under one shard's write lock
    /// and holds one shard's copy at a time: it releases the lock, streams
    /// the copy to disk and drops it before it copies the next shard. The
    /// copy is therefore the snapshot's only spare memory, and the time
    /// this takes is the time the shard's writers wait.
    fn snapshot_words(&self) -> Option<Vec<u64>>;

    /// Rebuilds a filter from persisted words (the recovery inverse of
    /// [`FilterBackend::snapshot_words`]). Returns `None` if the family is
    /// not persistable or `words` has the wrong geometry.
    fn from_words(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        words: Vec<u64>,
        inserted: u64,
        options: &Self::Options,
    ) -> Option<Self>;

    /// One auxiliary byte persisted in the snapshot header (counter width
    /// for counting filters; zero elsewhere).
    fn persist_aux(_options: &Self::Options) -> u8 {
        0
    }

    /// Rebuilds [`FilterBackend::Options`] from the persisted auxiliary
    /// byte; `None` if the byte is invalid for this family.
    fn options_from_persist_aux(aux: u8) -> Option<Self::Options>;
}

impl FilterBackend for ConcurrentBloomFilter {
    const KIND: BackendKind = BackendKind::Bloom;

    type Options = ();

    fn fresh(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        _options: &Self::Options,
    ) -> Self {
        ConcurrentBloomFilter::with_shared_strategy(params, strategy)
    }

    fn params(&self) -> FilterParams {
        ConcurrentBloomFilter::params(self)
    }

    fn m(&self) -> u64 {
        ConcurrentBloomFilter::m(self)
    }

    fn k(&self) -> u32 {
        ConcurrentBloomFilter::k(self)
    }

    fn inserted(&self) -> u64 {
        ConcurrentBloomFilter::inserted(self)
    }

    fn insert(&self, item: &[u8]) -> u32 {
        ConcurrentBloomFilter::insert(self, item)
    }

    fn contains(&self, item: &[u8]) -> bool {
        ConcurrentBloomFilter::contains(self, item)
    }

    fn insert_batch(&self, items: &[&[u8]]) -> u64 {
        ConcurrentBloomFilter::insert_batch(self, items)
    }

    fn query_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        ConcurrentBloomFilter::query_batch(self, items)
    }

    fn weight(&self) -> u64 {
        self.hamming_weight()
    }

    fn weight_approx(&self) -> u64 {
        self.hamming_weight_approx()
    }

    fn memory_bytes(&self) -> u64 {
        ConcurrentBloomFilter::params(self).memory_bytes()
    }

    fn current_false_positive_probability(&self) -> f64 {
        ConcurrentBloomFilter::current_false_positive_probability(self)
    }

    fn is_set(&self, index: u64) -> bool {
        ConcurrentBloomFilter::is_set(self, index)
    }

    fn persist_words_len(params: &FilterParams, _options: &Self::Options) -> Option<u64> {
        Some(params.m.div_ceil(64))
    }

    fn snapshot_words(&self) -> Option<Vec<u64>> {
        Some(ConcurrentBloomFilter::snapshot_words(self))
    }

    fn from_words(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        words: Vec<u64>,
        inserted: u64,
        _options: &Self::Options,
    ) -> Option<Self> {
        if words.len() as u64 != params.m.div_ceil(64) {
            return None;
        }
        Some(ConcurrentBloomFilter::from_words(params, strategy, words, inserted))
    }

    fn options_from_persist_aux(aux: u8) -> Option<Self::Options> {
        (aux == 0).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};

    fn strategy() -> Arc<dyn IndexStrategy> {
        Arc::new(KirschMitzenmacher::new(Murmur3_128))
    }

    #[test]
    fn kind_codes_roundtrip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_code(kind.code()), Some(kind));
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert_eq!(BackendKind::from_code(0xFF), None);
        assert!("dablooms".parse::<BackendKind>().is_err());
    }

    #[test]
    fn bloom_backend_has_no_remove() {
        let filter = <ConcurrentBloomFilter as FilterBackend>::fresh(
            FilterParams::explicit(512, 3, 40),
            strategy(),
            &(),
        );
        assert!(!<ConcurrentBloomFilter as FilterBackend>::supports_remove());
        assert_eq!(FilterBackend::remove(&filter, b"x"), None);
        assert_eq!(FilterBackend::remove_batch(&filter, &[b"x".as_slice()]), None);
    }

    #[test]
    fn bloom_backend_trait_matches_inherent_api() {
        let params = FilterParams::explicit(2048, 4, 100);
        let via_trait = <ConcurrentBloomFilter as FilterBackend>::fresh(params, strategy(), &());
        let direct = ConcurrentBloomFilter::with_shared_strategy(params, strategy());
        let items: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
        let refs: Vec<&[u8]> = items.iter().map(|s| s.as_bytes()).collect();
        let fresh_trait = FilterBackend::insert_batch(&via_trait, &refs);
        let mut fresh_direct = 0u64;
        for item in &refs {
            fresh_direct += u64::from(direct.insert(item));
        }
        assert_eq!(fresh_trait, fresh_direct);
        assert_eq!(via_trait.snapshot_words(), direct.snapshot_words());
        assert_eq!(FilterBackend::weight(&via_trait), direct.hamming_weight());
        assert_eq!(FilterBackend::attack_params(&via_trait), params);
    }

    #[test]
    fn bloom_backend_word_persistence_roundtrip() {
        let params = FilterParams::explicit(1000, 4, 100);
        let filter = <ConcurrentBloomFilter as FilterBackend>::fresh(params, strategy(), &());
        for i in 0..100 {
            FilterBackend::insert(&filter, format!("i{i}").as_bytes());
        }
        let words = FilterBackend::snapshot_words(&filter).expect("bloom persists");
        assert_eq!(
            words.len() as u64,
            <ConcurrentBloomFilter as FilterBackend>::persist_words_len(&params, &()).unwrap()
        );
        let restored = <ConcurrentBloomFilter as FilterBackend>::from_words(
            params,
            strategy(),
            words,
            FilterBackend::inserted(&filter),
            &(),
        )
        .expect("geometry matches");
        assert_eq!(restored.snapshot_words(), filter.snapshot_words());
        // Wrong geometry is an error, not a panic.
        assert!(<ConcurrentBloomFilter as FilterBackend>::from_words(
            params,
            strategy(),
            vec![0u64; 3],
            0,
            &(),
        )
        .is_none());
    }
}
