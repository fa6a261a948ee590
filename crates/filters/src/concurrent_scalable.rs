//! The scalable Bloom filter (Almeida, Baquero, Preguiça & Hutchison) with
//! `&self` insert/query — the forced-growth backend: honest load grows it
//! slice by slice, and a chosen-insertion adversary can both pollute the
//! active slice and force premature growth.
//!
//! The filter is a stack of slices behind an `RwLock`, generic over the
//! slice type: [`ConcurrentBloomFilter`] slices make the served scalable
//! family, and [`ConcurrentCountingFilter`](crate::ConcurrentCountingFilter)
//! slices make Bitly's Dablooms ([`Dablooms`](crate::Dablooms), Section 6).
//! The lock only guards the *stack* (growth pushes a slice); the slices
//! themselves stay lock-free, so the hot path costs one uncontended
//! read-lock acquisition on top of the slice. Slice 0 uses exactly the base
//! [`FilterParams`] handed to the constructor — so the store's shard
//! geometry statistics stay meaningful — and slice `i` is sized for
//! `f_i = f_0 · r^i`. Queries consult every slice, so the compound
//! probability `F = 1 - Π(1 - f_i)` is what a client sees.
//!
//! A slice is full once it has taken `capacity` insert calls. Removals
//! never lower a slice's insert count, which is the counter the Section 6.2
//! overflow attack fools: insert-then-delete churn fills a slice that holds
//! nothing. Growth is checked before each insert with a double-checked
//! write lock; racing inserts that slip past the check may overfill a slice
//! by the number of in-flight writers, which only *tightens* the compound
//! false-positive bound (the slice they spill into was sized for them).

use std::sync::{Arc, RwLock, RwLockReadGuard};

use evilbloom_hashes::IndexStrategy;

use crate::backend::{BackendKind, FilterBackend};
use crate::concurrent::ConcurrentBloomFilter;
use crate::params::FilterParams;

/// Construction options for [`ConcurrentScalableFilter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalableOptions {
    /// Tightening ratio `r` in `(0, 1]`: slice `i` targets `f_0 · r^i`
    /// (Dablooms uses 0.9).
    pub tightening_ratio: f64,
}

impl Default for ScalableOptions {
    fn default() -> Self {
        ScalableOptions { tightening_ratio: 0.9 }
    }
}

/// A concurrently-servable scalable Bloom filter: a growing stack of
/// lock-free `S` slices, grown when the active slice has taken the
/// per-slice capacity `params.capacity` of insert calls.
///
/// # Examples
///
/// ```
/// use evilbloom_filters::{ConcurrentScalableFilter, FilterParams, ScalableOptions};
/// use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
/// use std::sync::Arc;
///
/// let filter: ConcurrentScalableFilter = ConcurrentScalableFilter::with_shared_strategy(
///     FilterParams::optimal(100, 0.01),
///     Arc::new(KirschMitzenmacher::new(Murmur3_128)),
///     ScalableOptions::default(),
/// );
/// for i in 0..250 {
///     filter.insert(format!("item-{i}").as_bytes());
/// }
/// assert!(filter.slice_count() >= 3);
/// assert!(filter.contains(b"item-0"));
/// ```
pub struct ConcurrentScalableFilter<S: FilterBackend = ConcurrentBloomFilter> {
    /// Slice stack, most recent (active) last. Never shrinks.
    slices: RwLock<Vec<Arc<S>>>,
    base: FilterParams,
    base_fpp: f64,
    strategy: Arc<dyn IndexStrategy>,
    tightening_ratio: f64,
}

impl<S: FilterBackend> ConcurrentScalableFilter<S> {
    /// Creates an empty filter whose first slice uses exactly `params` and
    /// whose later slices tighten its expected false-positive probability;
    /// every slice holds `params.capacity` insert calls before growth.
    ///
    /// # Panics
    ///
    /// Panics if `options.tightening_ratio` is outside `(0, 1]`.
    pub fn with_shared_strategy(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        options: ScalableOptions,
    ) -> Self {
        Self::with_base_fpp(params, params.expected_fpp(), strategy, options.tightening_ratio)
    }

    /// Creates an empty filter whose slice 0 is `base` and whose slice `i`
    /// targets `base_fpp · tightening_ratio^i`.
    ///
    /// # Panics
    ///
    /// Panics if `tightening_ratio` is outside `(0, 1]`.
    pub(crate) fn with_base_fpp(
        base: FilterParams,
        base_fpp: f64,
        strategy: Arc<dyn IndexStrategy>,
        tightening_ratio: f64,
    ) -> Self {
        assert!(
            tightening_ratio > 0.0 && tightening_ratio <= 1.0,
            "tightening ratio must be in (0, 1]"
        );
        let mut filter = ConcurrentScalableFilter {
            slices: RwLock::new(Vec::new()),
            base,
            base_fpp,
            strategy,
            tightening_ratio,
        };
        let first = filter.new_slice(0);
        filter.slices.get_mut().expect("scalable slice lock poisoned").push(first);
        filter
    }

    /// The base (slice-0) sizing parameters.
    pub fn params(&self) -> FilterParams {
        self.base
    }

    /// Parameters slice `index` uses: the base parameters for slice 0,
    /// average-case optimal sizing at the tightened target `f_0 · r^i` after
    /// (kept inside `(0, 1)`, the range [`FilterParams::optimal`] accepts).
    pub fn slice_params(&self, index: usize) -> FilterParams {
        if index == 0 {
            return self.base;
        }
        let fpp = self.base_fpp * self.tightening_ratio.powi(index as i32);
        FilterParams::optimal(
            self.base.capacity.max(1),
            fpp.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON),
        )
    }

    /// A fresh, empty slice `index`.
    fn new_slice(&self, index: usize) -> Arc<S> {
        let params = self.slice_params(index);
        Arc::new(S::fresh(params, Arc::clone(&self.strategy), &S::Options::default()))
    }

    /// Number of slices currently allocated.
    pub fn slice_count(&self) -> usize {
        self.read_slices().len()
    }

    /// Handles to the slices, oldest first. Slices take `&self` inserts, so
    /// the pollution experiments write into a slice directly.
    pub fn slices(&self) -> Vec<Arc<S>> {
        self.read_slices().clone()
    }

    /// Total insert calls across all slices.
    pub fn inserted(&self) -> u64 {
        self.read_slices().iter().map(|s| s.inserted()).sum()
    }

    /// The shared index strategy.
    pub fn strategy(&self) -> &Arc<dyn IndexStrategy> {
        &self.strategy
    }

    fn read_slices(&self) -> RwLockReadGuard<'_, Vec<Arc<S>>> {
        self.slices.read().expect("scalable slice lock poisoned")
    }

    /// The active (most recent) slice, growing the stack first if it has
    /// reached the per-slice capacity.
    fn active_slice_for_insert(&self) -> Arc<S> {
        {
            let slices = self.read_slices();
            let last = slices.last().expect("at least one slice always exists");
            if last.inserted() < last.params().capacity {
                return Arc::clone(last);
            }
        }
        let mut slices = self.slices.write().expect("scalable slice lock poisoned");
        let last = slices.last().expect("at least one slice always exists");
        // Double-check under the write lock: a racing grower may have
        // already pushed the next slice.
        if last.inserted() >= last.params().capacity {
            let next = self.new_slice(slices.len());
            slices.push(next);
        }
        Arc::clone(slices.last().expect("slice just ensured"))
    }

    /// A clone of the active slice handle (what the adversarial view and the
    /// stats pass inspect — growth does not invalidate the returned slice,
    /// it just stops being the active one).
    pub fn active_slice(&self) -> Arc<S> {
        Arc::clone(self.read_slices().last().expect("at least one slice always exists"))
    }

    /// Inserts `item` into the active slice (growing first if full);
    /// returns the number of cells this call took 0 → occupied.
    pub fn insert(&self, item: &[u8]) -> u32 {
        self.active_slice_for_insert().insert(item)
    }

    /// Membership query: present if *any* slice reports the item.
    pub fn contains(&self, item: &[u8]) -> bool {
        self.read_slices().iter().rev().any(|slice| slice.contains(item))
    }

    /// Total cells across all slices.
    pub fn total_bits(&self) -> u64 {
        self.read_slices().iter().map(|s| s.m()).sum()
    }

    /// Exact occupied-cell count across all slices.
    pub fn weight(&self) -> u64 {
        self.read_slices().iter().map(|s| s.weight()).sum()
    }

    /// O(1)-per-slice approximate occupied-cell count across all slices.
    pub fn weight_approx(&self) -> u64 {
        self.read_slices().iter().map(|s| s.weight_approx()).sum()
    }

    /// Compound false-positive probability `1 - Π (1 - fill_i^k_i)` from
    /// each slice's approximate fill — the forced-growth drift observable.
    pub fn current_false_positive_probability(&self) -> f64 {
        let per: Vec<f64> =
            self.read_slices().iter().map(|s| s.current_false_positive_probability()).collect();
        evilbloom_analysis::scalable::compound_false_positive(&per)
    }

    /// Total memory footprint of all slices in bytes, as each slice type
    /// reports it.
    pub fn memory_bytes(&self) -> u64 {
        self.read_slices().iter().map(|s| s.memory_bytes()).sum()
    }
}

impl<S: FilterBackend> core::fmt::Debug for ConcurrentScalableFilter<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ConcurrentScalableFilter")
            .field("slices", &self.slice_count())
            .field("inserted", &self.inserted())
            .field("compound_fpp", &self.current_false_positive_probability())
            .finish()
    }
}

impl FilterBackend for ConcurrentScalableFilter {
    const KIND: BackendKind = BackendKind::Scalable;

    type Options = ScalableOptions;

    fn fresh(
        params: FilterParams,
        strategy: Arc<dyn IndexStrategy>,
        options: &Self::Options,
    ) -> Self {
        ConcurrentScalableFilter::with_shared_strategy(params, strategy, *options)
    }

    fn params(&self) -> FilterParams {
        self.base
    }

    fn m(&self) -> u64 {
        self.total_bits()
    }

    fn k(&self) -> u32 {
        self.active_slice().k()
    }

    fn inserted(&self) -> u64 {
        ConcurrentScalableFilter::inserted(self)
    }

    fn insert(&self, item: &[u8]) -> u32 {
        ConcurrentScalableFilter::insert(self, item)
    }

    fn contains(&self, item: &[u8]) -> bool {
        ConcurrentScalableFilter::contains(self, item)
    }

    fn insert_batch(&self, items: &[&[u8]]) -> u64 {
        // Growth can strike mid-batch, so insert item-by-item; the slice
        // handle is re-checked per item exactly like the scalar path.
        let mut fresh = 0u64;
        for item in items {
            fresh += u64::from(ConcurrentScalableFilter::insert(self, item));
        }
        fresh
    }

    fn query_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let slices = self.read_slices();
        items.iter().map(|item| slices.iter().rev().any(|slice| slice.contains(item))).collect()
    }

    fn weight(&self) -> u64 {
        ConcurrentScalableFilter::weight(self)
    }

    fn weight_approx(&self) -> u64 {
        ConcurrentScalableFilter::weight_approx(self)
    }

    fn memory_bytes(&self) -> u64 {
        ConcurrentScalableFilter::memory_bytes(self)
    }

    fn current_false_positive_probability(&self) -> f64 {
        ConcurrentScalableFilter::current_false_positive_probability(self)
    }

    fn attack_params(&self) -> FilterParams {
        // The craftable region is the *active slice*: that is where chosen
        // insertions land and where pollution concentrates.
        self.active_slice().params()
    }

    fn is_set(&self, index: u64) -> bool {
        self.active_slice().is_set(index)
    }

    fn attack_weight(&self) -> u64 {
        self.active_slice().hamming_weight()
    }

    fn persist_words_len(_params: &FilterParams, _options: &Self::Options) -> Option<u64> {
        // A scalable filter's geometry is load-dependent; it opts out of the
        // fixed-word-array persistence contract.
        None
    }

    fn snapshot_words(&self) -> Option<Vec<u64>> {
        None
    }

    fn from_words(
        _params: FilterParams,
        _strategy: Arc<dyn IndexStrategy>,
        _words: Vec<u64>,
        _inserted: u64,
        _options: &Self::Options,
    ) -> Option<Self> {
        None
    }

    fn options_from_persist_aux(_aux: u8) -> Option<Self::Options> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};

    fn strategy() -> Arc<dyn IndexStrategy> {
        Arc::new(KirschMitzenmacher::new(Murmur3_128))
    }

    fn small() -> ConcurrentScalableFilter {
        ConcurrentScalableFilter::with_shared_strategy(
            FilterParams::optimal(100, 0.01),
            strategy(),
            ScalableOptions::default(),
        )
    }

    #[test]
    fn grows_every_capacity_insertions() {
        let filter = small();
        assert_eq!(filter.slice_count(), 1);
        for i in 0..550u32 {
            filter.insert(format!("item-{i}").as_bytes());
        }
        assert_eq!(filter.slice_count(), 6);
        assert_eq!(filter.inserted(), 550);
    }

    #[test]
    fn no_false_negatives_across_slices() {
        let filter = small();
        let items: Vec<String> = (0..450).map(|i| format!("url-{i}")).collect();
        for item in &items {
            filter.insert(item.as_bytes());
        }
        for item in &items {
            assert!(filter.contains(item.as_bytes()), "false negative for {item}");
        }
    }

    #[test]
    fn concurrent_inserts_have_no_false_negatives() {
        let filter = small();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let filter = &filter;
                scope.spawn(move || {
                    for i in 0..300 {
                        filter.insert(format!("t{t}-i{i}").as_bytes());
                    }
                });
            }
        });
        assert_eq!(filter.inserted(), 1200);
        // Racing growers may overfill a slice slightly but never lose items.
        for t in 0..4 {
            for i in 0..300 {
                assert!(filter.contains(format!("t{t}-i{i}").as_bytes()), "t{t}-i{i}");
            }
        }
        assert!(filter.slice_count() >= 12, "slices: {}", filter.slice_count());
    }

    #[test]
    fn later_slices_tighten_their_targets() {
        let filter = small();
        let p0 = filter.slice_params(0);
        let p3 = filter.slice_params(3);
        assert_eq!(p0, filter.params());
        assert!(p3.expected_fpp() < p0.expected_fpp());
        assert!(p3.m >= p0.m, "tighter target needs at least as many bits");
    }

    #[test]
    fn compound_fpp_stays_bounded_under_honest_load() {
        let filter = small();
        for i in 0..1000u32 {
            filter.insert(format!("honest-{i}").as_bytes());
        }
        let compound = filter.current_false_positive_probability();
        assert!(compound < 0.12, "compound fpp {compound}");
    }

    #[test]
    fn attack_surface_is_the_active_slice() {
        let filter = small();
        for i in 0..150u32 {
            filter.insert(format!("x{i}").as_bytes());
        }
        assert_eq!(filter.slice_count(), 2);
        let active = filter.active_slice();
        assert_eq!(FilterBackend::attack_params(&filter), active.params());
        assert_eq!(FilterBackend::attack_weight(&filter), active.hamming_weight());
        let total: u64 = FilterBackend::m(&filter);
        assert!(total > active.m(), "m() spans the whole stack");
    }

    #[test]
    fn persistence_is_refused() {
        let filter = small();
        assert!(FilterBackend::snapshot_words(&filter).is_none());
        assert!(<ConcurrentScalableFilter as FilterBackend>::persist_words_len(
            &FilterParams::optimal(100, 0.01),
            &ScalableOptions::default(),
        )
        .is_none());
        assert!(<ConcurrentScalableFilter as FilterBackend>::options_from_persist_aux(0).is_none());
        assert!(!<ConcurrentScalableFilter as FilterBackend>::supports_remove());
        assert_eq!(FilterBackend::remove(&filter, b"x"), None);
    }

    #[test]
    fn batch_ops_agree_with_scalar_ops() {
        let batch = small();
        let scalar = small();
        let items: Vec<String> = (0..250).map(|i| format!("item-{i}")).collect();
        let refs: Vec<&[u8]> = items.iter().map(|s| s.as_bytes()).collect();
        let fresh_batch = FilterBackend::insert_batch(&batch, &refs);
        let mut fresh_scalar = 0u64;
        for item in &refs {
            fresh_scalar += u64::from(scalar.insert(item));
        }
        assert_eq!(fresh_batch, fresh_scalar);
        assert_eq!(batch.slice_count(), scalar.slice_count());
        let probes: Vec<&[u8]> = refs.iter().copied().chain([b"absent-1".as_slice()]).collect();
        let answers = FilterBackend::query_batch(&batch, &probes);
        for (probe, answer) in probes.iter().zip(&answers) {
            assert_eq!(*answer, scalar.contains(probe), "{probe:?}");
        }
    }

    #[test]
    #[should_panic(expected = "tightening ratio")]
    fn invalid_ratio_rejected() {
        ConcurrentScalableFilter::<ConcurrentBloomFilter>::with_shared_strategy(
            FilterParams::optimal(10, 0.01),
            strategy(),
            ScalableOptions { tightening_ratio: 0.0 },
        );
    }
}
