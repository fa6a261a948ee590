//! The sharded concurrent filter store, generic over the
//! [`FilterBackend`] family its shards hold.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use evilbloom_filters::{
    hardened_params, hardened_parts, BackendKind, ConcurrentBloomFilter, ConcurrentCountingFilter,
    ConcurrentScalableFilter, CountingOptions, FilterBackend, FilterKey, FilterParams,
    HardeningLevel, ScalableOptions,
};
use evilbloom_hashes::{
    Hasher64, IndexStrategy, KeyedHash64, KirschMitzenmacher, Murmur3_128, SipHash24, SipKey,
};

use crate::metrics::StoreMetrics;
use crate::persist::{
    self, ItemOp, PersistConfig, PersistError, RecoveryReport, SnapshotInfo, StorePersistence,
    WalRecord,
};
use crate::shard::{Generation, Shard};
use crate::stats::{pollution_alarm, ShardStats, StoreStats};

/// Domain-separation tweak for the shard-routing PRF, far outside the
/// `0..k` tweak range the per-shard index derivation uses.
const ROUTING_TWEAK: u64 = 0x5AAD_2017_0DD5_EED5;

/// Whether (and how) the store's shards are hardened against the paper's
/// adversaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreHardening {
    /// Predictable everything: unkeyed Murmur-based shard routing and
    /// Kirsch–Mitzenmacher index derivation, average-case parameters — the
    /// deployment style of the attacked systems (Scrapy, Dablooms, Squid).
    Unhardened,
    /// Keyed shard routing (SipHash under a secret routing key, so an
    /// adversary cannot target one shard) plus per-shard hardening at the
    /// given [`HardeningLevel`].
    Hardened(HardeningLevel),
}

/// Configuration of a [`BloomStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Number of shards; must be a power of two so routing is a mask.
    pub shards: usize,
    /// Total item capacity, split evenly across shards.
    pub capacity: u64,
    /// Target false-positive probability per shard.
    pub target_fpp: f64,
    /// Hardening posture.
    pub hardening: StoreHardening,
    /// Filter family the shards hold. Informational on input (the store's
    /// type parameter is authoritative, and construction overwrites this
    /// field with [`FilterBackend::KIND`]); authoritative on output
    /// ([`BloomStore::config`] always reports the served family).
    pub backend: BackendKind,
}

impl StoreConfig {
    /// A hardened store (keyed SipHash shards and routing) — the posture the
    /// paper recommends for anything serving untrusted traffic.
    pub fn hardened(shards: usize, capacity: u64, target_fpp: f64) -> Self {
        StoreConfig {
            shards,
            capacity,
            target_fpp,
            hardening: StoreHardening::Hardened(HardeningLevel::KeyedSipHash),
            backend: BackendKind::Bloom,
        }
    }

    /// An unhardened store mirroring the attacked deployments (useful as the
    /// baseline in the adversarial load harness).
    pub fn unhardened(shards: usize, capacity: u64, target_fpp: f64) -> Self {
        StoreConfig {
            shards,
            capacity,
            target_fpp,
            hardening: StoreHardening::Unhardened,
            backend: BackendKind::Bloom,
        }
    }
}

/// Outcome of a batch insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Items inserted.
    pub items: usize,
    /// Cells flipped empty → occupied across all shards by this batch.
    pub fresh_bits: u64,
}

/// A typed refusal: the operation exists on the wire and in the API, but the
/// store's filter family cannot perform it (e.g. `DELETE` against a plain
/// Bloom backend, which has no way to unset a shared bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedOp {
    /// The family that refused.
    pub backend: BackendKind,
    /// The operation it refused.
    pub op: &'static str,
}

impl core::fmt::Display for UnsupportedOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "the {} backend does not support {}", self.backend, self.op)
    }
}

impl std::error::Error for UnsupportedOp {}

enum Router {
    /// Secret-keyed routing: the adversary cannot predict (or choose) which
    /// shard an item lands on.
    Keyed(SipHash24),
    /// Public routing, computable offline by anyone with the source code.
    Public(Murmur3_128),
}

impl Router {
    fn route(&self, item: &[u8], mask: u64) -> usize {
        let hash = match self {
            Router::Keyed(prf) => prf.mac_with_tweak(item, ROUTING_TWEAK),
            Router::Public(hasher) => hasher.hash_with_seed(item, ROUTING_TWEAK),
        };
        (hash & mask) as usize
    }
}

/// One shard's share of a batch: its items, and where each sat in the
/// input.
#[derive(Default)]
struct Bucket<'a> {
    items: Vec<&'a [u8]>,
    positions: Vec<usize>,
}

/// A sharded, lock-free concurrent filter store.
///
/// Items are routed to one of `N` power-of-two shards by a routing hash
/// (secret-keyed unless the store is [`StoreHardening::Unhardened`]); each
/// shard holds a [`FilterBackend`] built by the Section 8 hardened
/// constructors and wrapped in a generation pair so its key can be rotated
/// without downtime (see [`crate::shard::Shard`]).
///
/// The backend type parameter picks the filter family — the default
/// [`ConcurrentBloomFilter`], a deletable [`ConcurrentCountingFilter`], or a
/// growing [`ConcurrentScalableFilter`] — via [`BloomStore::builder`]:
///
/// ```
/// use evilbloom_store::BloomStore;
///
/// let counting = BloomStore::builder().shards(4).capacity(4_000).counting(4).build();
/// assert_eq!(counting.remove(b"never inserted"), Ok(false));
/// ```
///
/// All serving operations take `&self`: share the store across worker
/// threads by reference (`std::thread::scope`) or in an [`Arc`].
pub struct BloomStore<B: FilterBackend = ConcurrentBloomFilter> {
    shards: Vec<Shard<B>>,
    router: Router,
    config: StoreConfig,
    shard_capacity: u64,
    shard_params: FilterParams,
    /// Backend-family construction options (counter width, tightening ratio).
    options: B::Options,
    /// The shared predictable strategy of an unhardened store (what the
    /// adversarial view uses to compute indexes offline); `None` when keyed.
    public_strategy: Option<Arc<dyn IndexStrategy>>,
    /// Attached durability (snapshots + WAL); `None` unless
    /// [`BloomStore::enable_persistence`] or [`BloomStore::recover`] set it.
    persistence: Option<StorePersistence>,
    /// Runtime telemetry, always present (shared with the persistence layer
    /// so WAL and snapshot probes record into the same registry).
    metrics: Arc<StoreMetrics>,
}

/// Fluent constructor for [`BloomStore`], including backend selection.
///
/// Defaults: 8 shards, 8 000-item capacity, 1% target false positives,
/// hardened with [`HardeningLevel::KeyedSipHash`], RNG seed 0. The seed
/// drives all secret key material — production deployments of a *hardened*
/// store must either set [`StoreBuilder::seed`] from real entropy or use
/// [`StoreBuilder::build_with_rng`] with an entropy-seeded RNG.
#[derive(Debug)]
pub struct StoreBuilder<B: FilterBackend = ConcurrentBloomFilter> {
    shards: usize,
    capacity: u64,
    target_fpp: f64,
    hardening: StoreHardening,
    seed: u64,
    options: B::Options,
}

impl StoreBuilder {
    fn new() -> Self {
        StoreBuilder {
            shards: 8,
            capacity: 8_000,
            target_fpp: 0.01,
            hardening: StoreHardening::Hardened(HardeningLevel::KeyedSipHash),
            seed: 0,
            options: (),
        }
    }
}

impl<B: FilterBackend> StoreBuilder<B> {
    /// Number of shards (must be a power of two).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Total item capacity, split evenly across shards.
    pub fn capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }

    /// Target false-positive probability per shard.
    pub fn target_fpp(mut self, target_fpp: f64) -> Self {
        self.target_fpp = target_fpp;
        self
    }

    /// Explicit hardening posture.
    pub fn hardening(mut self, hardening: StoreHardening) -> Self {
        self.hardening = hardening;
        self
    }

    /// Keyed-SipHash hardening (the recommended serving posture).
    pub fn hardened(self) -> Self {
        self.hardening(StoreHardening::Hardened(HardeningLevel::KeyedSipHash))
    }

    /// No hardening: public routing and index derivation, the posture of the
    /// attacked deployments.
    pub fn unhardened(self) -> Self {
        self.hardening(StoreHardening::Unhardened)
    }

    /// Copies sizing and hardening from an existing [`StoreConfig`] (its
    /// `backend` field is ignored — the builder's type parameter decides).
    pub fn config(mut self, config: StoreConfig) -> Self {
        self.shards = config.shards;
        self.capacity = config.capacity;
        self.target_fpp = config.target_fpp;
        self.hardening = config.hardening;
        self
    }

    /// Seed of the RNG that [`StoreBuilder::build`] draws secret key
    /// material from. Deterministic by design for tests and reproducible
    /// experiments; hardened production stores need real entropy here.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches the builder to an arbitrary backend family with explicit
    /// options; [`StoreBuilder::counting`] and [`StoreBuilder::scalable`]
    /// are shorthands for the built-in families.
    pub fn backend<B2: FilterBackend>(self, options: B2::Options) -> StoreBuilder<B2> {
        StoreBuilder {
            shards: self.shards,
            capacity: self.capacity,
            target_fpp: self.target_fpp,
            hardening: self.hardening,
            seed: self.seed,
            options,
        }
    }

    /// Counting-filter shards with `counter_bits`-bit saturating cells
    /// (1..=4; every cell is stored in four bits) — the deletable family
    /// (and the deletion adversary's target).
    pub fn counting(self, counter_bits: u8) -> StoreBuilder<ConcurrentCountingFilter> {
        self.backend(CountingOptions { counter_bits })
    }

    /// Scalable shards growing by `tightening_ratio` — the forced-growth
    /// target. Refuses persistence (slice stacks have no fixed geometry).
    pub fn scalable(self, tightening_ratio: f64) -> StoreBuilder<ConcurrentScalableFilter> {
        self.backend(ScalableOptions { tightening_ratio })
    }

    /// Builds the store, drawing key material from a [`StdRng`] seeded with
    /// [`StoreBuilder::seed`].
    pub fn build(self) -> BloomStore<B> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.build_with_rng(&mut rng)
    }

    /// Builds the store with an explicit RNG (overrides the seed).
    ///
    /// # Panics
    ///
    /// Panics if the shard count is zero or not a power of two, if the
    /// per-shard capacity would be zero, or if the backend options are
    /// invalid (zero counter width, tightening ratio outside `(0, 1]`).
    pub fn build_with_rng<R: RngCore + ?Sized>(self, rng: &mut R) -> BloomStore<B> {
        let config = StoreConfig {
            shards: self.shards,
            capacity: self.capacity,
            target_fpp: self.target_fpp,
            hardening: self.hardening,
            backend: B::KIND,
        };
        BloomStore::build_with(config, self.options, rng)
    }
}

impl BloomStore {
    /// Starts a fluent [`StoreBuilder`] (plain Bloom shards unless
    /// [`StoreBuilder::counting`] / [`StoreBuilder::scalable`] switch the
    /// family).
    pub fn builder() -> StoreBuilder {
        StoreBuilder::new()
    }
}

impl<B: FilterBackend> BloomStore<B> {
    /// The shared constructor behind the builder and recovery. Overwrites `config.backend` with the type
    /// parameter's [`FilterBackend::KIND`] so the two can never disagree.
    fn build_with<R: RngCore + ?Sized>(
        mut config: StoreConfig,
        options: B::Options,
        rng: &mut R,
    ) -> Self {
        config.backend = B::KIND;
        assert!(
            config.shards > 0 && config.shards.is_power_of_two(),
            "shard count must be a power of two"
        );
        let shard_capacity = config.capacity.div_ceil(config.shards as u64);
        assert!(shard_capacity > 0, "per-shard capacity must be positive");
        let shard_params = match config.hardening {
            StoreHardening::Hardened(level) => {
                hardened_params(shard_capacity, config.target_fpp, level)
            }
            StoreHardening::Unhardened => FilterParams::optimal(shard_capacity, config.target_fpp),
        };

        let public_strategy: Option<Arc<dyn IndexStrategy>> = match config.hardening {
            StoreHardening::Unhardened => Some(Arc::new(KirschMitzenmacher::new(Murmur3_128))),
            StoreHardening::Hardened(_) => None,
        };
        let router = match config.hardening {
            StoreHardening::Unhardened => Router::Public(Murmur3_128),
            StoreHardening::Hardened(_) => {
                Router::Keyed(SipHash24::new(SipKey::new(rng.next_u64(), rng.next_u64())))
            }
        };

        let mut store = BloomStore {
            shards: Vec::with_capacity(config.shards),
            router,
            config,
            shard_capacity,
            shard_params,
            options,
            public_strategy,
            persistence: None,
            metrics: Arc::new(StoreMetrics::new(config.shards, B::KIND)),
        };
        // Reborrow so the possibly-unsized `R` is driven through the Sized
        // `&mut R`, which implements `RngCore` via the blanket impl.
        let mut rng = rng;
        for _ in 0..config.shards {
            let filter = store.build_shard_filter(&FilterKey::generate(&mut rng));
            store.shards.push(Shard::new(filter));
        }
        store
    }

    /// Builds a fresh (empty) per-shard filter for construction or rotation.
    fn build_shard_filter(&self, key: &FilterKey) -> B {
        match self.config.hardening {
            StoreHardening::Hardened(level) => {
                let (params, strategy) =
                    hardened_parts(self.shard_capacity, self.config.target_fpp, level, key);
                B::fresh(params, strategy.into(), &self.options)
            }
            StoreHardening::Unhardened => B::fresh(
                self.shard_params,
                Arc::clone(self.public_strategy.as_ref().expect("unhardened strategy")),
                &self.options,
            ),
        }
    }

    /// The store's configuration (its `backend` field always reports the
    /// served [`BackendKind`]).
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The filter family the shards hold.
    pub fn backend_kind(&self) -> BackendKind {
        B::KIND
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The sizing parameters every shard uses (the base slice, for growing
    /// families).
    pub fn shard_params(&self) -> FilterParams {
        self.shard_params
    }

    /// Whether the store is hardened (keyed routing and indexes).
    pub fn is_hardened(&self) -> bool {
        matches!(self.config.hardening, StoreHardening::Hardened(_))
    }

    /// Shard an item routes to.
    pub fn route(&self, item: &[u8]) -> usize {
        self.router.route(item, self.shards.len() as u64 - 1)
    }

    pub(crate) fn shard(&self, index: usize) -> &Shard<B> {
        &self.shards[index]
    }

    pub(crate) fn options(&self) -> &B::Options {
        &self.options
    }

    /// The shared predictable index strategy of an unhardened store (`None`
    /// when hardened — that is the defence).
    pub(crate) fn public_strategy(&self) -> Option<&Arc<dyn IndexStrategy>> {
        self.public_strategy.as_ref()
    }

    /// Inserts one item; returns the number of fresh cells it set. A
    /// one-item [`BloomStore::insert_batch`]: same routing, WAL record and
    /// metrics.
    ///
    /// A broken WAL never fails an insert *through this method* — appends
    /// become no-ops — but the store is then degraded
    /// ([`BloomStore::degraded`]) and the serving layer refuses writes
    /// until a snapshot repairs the log.
    pub fn insert(&self, item: &[u8]) -> u32 {
        self.insert_batch(&[item]).fresh_bits as u32
    }

    /// Membership query (positives may be false positives; during a shard
    /// rotation the draining generation still answers).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.metrics.queries.inc();
        self.shards[self.route(item)].contains(item)
    }

    /// Removes one item, when the backend family supports deletion
    /// (counting filters). Returns whether the item read as present before
    /// the removal. A one-item [`BloomStore::remove_batch`].
    ///
    /// Deleting items that were never inserted is exactly the paper's
    /// deletion adversary (Section 4.3): each such call can evict *other*
    /// items' cells. The store intentionally does not police this — the
    /// defence is hardening, which makes the required cell indexes
    /// uncomputable — but `was_present == false` returns are the audit
    /// trail.
    ///
    /// # Errors
    ///
    /// [`UnsupportedOp`] on families without deletion (plain, scalable).
    pub fn remove(&self, item: &[u8]) -> Result<bool, UnsupportedOp> {
        Ok(self.remove_batch(&[item])?[0])
    }

    /// Batch removal; answers (`was_present` per item) are in input order.
    /// Each shard is visited once, and each shard's bucket is logged as one
    /// WAL record, exactly as in [`BloomStore::insert_batch`].
    ///
    /// # Errors
    ///
    /// [`UnsupportedOp`] on families without deletion.
    pub fn remove_batch<I: AsRef<[u8]>>(&self, items: &[I]) -> Result<Vec<bool>, UnsupportedOp> {
        if !B::supports_remove() {
            return Err(UnsupportedOp { backend: B::KIND, op: "remove" });
        }
        let mut answers = vec![false; items.len()];
        self.write_buckets(ItemOp::Remove, &self.route_buckets(items), |filter, bucket| {
            let removed =
                filter.remove_batch(&bucket.items).expect("supports_remove() checked above");
            for (&position, was_present) in bucket.positions.iter().zip(removed) {
                answers[position] = was_present;
            }
        });
        self.metrics.deletes.add(items.len() as u64);
        Ok(answers)
    }

    /// Inserts a batch: routes every item first, then visits each shard
    /// exactly once and hands its whole bucket to the filter's
    /// hash-precomputing [`FilterBackend::insert_batch`] — amortising
    /// routing hashes, shard-lock acquisitions *and* per-item index-buffer
    /// allocations over the batch.
    ///
    /// With persistence attached each shard's bucket is appended to the
    /// write-ahead log as one record *after* it is applied, while the shard
    /// read lock is still held (log order matches generation order); the
    /// durability wait then happens once, outside every lock, via group
    /// commit.
    pub fn insert_batch<I: AsRef<[u8]>>(&self, items: &[I]) -> BatchOutcome {
        let mut fresh_bits = 0u64;
        self.write_buckets(ItemOp::Insert, &self.route_buckets(items), |filter, bucket| {
            fresh_bits += filter.insert_batch(&bucket.items);
        });
        self.metrics.inserts.add(items.len() as u64);
        self.metrics.fresh_bits.add(fresh_bits);
        BatchOutcome { items: items.len(), fresh_bits }
    }

    /// Batch membership query; answers are in input order. Like
    /// [`BloomStore::insert_batch`], each shard lock is taken once and the
    /// active generation is probed through the filter's batch path; only
    /// active-generation misses fall back to a draining generation (which
    /// may use a different key, so its indexes cannot be shared).
    pub fn query_batch<I: AsRef<[u8]>>(&self, items: &[I]) -> Vec<bool> {
        self.metrics.queries.add(items.len() as u64);
        let mut answers = vec![false; items.len()];
        for (shard, bucket) in self.shards.iter().zip(&self.route_buckets(items)) {
            if bucket.items.is_empty() {
                continue;
            }
            shard.with_generations(|active, draining| {
                let found = active.filter.query_batch(&bucket.items);
                for ((&position, item), hit) in
                    bucket.positions.iter().zip(&bucket.items).zip(found)
                {
                    answers[position] = hit || draining.is_some_and(|g| g.filter.contains(item));
                }
            });
        }
        answers
    }

    /// Routes `items` into one bucket per shard, each remembering the input
    /// positions of its items.
    fn route_buckets<'a, I: AsRef<[u8]>>(&self, items: &'a [I]) -> Vec<Bucket<'a>> {
        let mut buckets: Vec<Bucket<'a>> =
            (0..self.shards.len()).map(|_| Bucket::default()).collect();
        for (position, item) in items.iter().enumerate() {
            let item = item.as_ref();
            let bucket = &mut buckets[self.route(item)];
            bucket.items.push(item);
            bucket.positions.push(position);
        }
        buckets
    }

    /// The one write path: applies `apply` to each non-empty bucket in its
    /// shard's active generation under the shard read lock, logs the bucket
    /// as one `op` record while still holding it, then waits outside every
    /// lock for the last record to commit (LSNs are monotonic, so that
    /// covers the whole batch).
    fn write_buckets(
        &self,
        op: ItemOp,
        buckets: &[Bucket<'_>],
        mut apply: impl FnMut(&B, &Bucket<'_>),
    ) {
        let mut last_lsn = None;
        for (index, (shard, bucket)) in self.shards.iter().zip(buckets).enumerate() {
            if bucket.items.is_empty() {
                continue;
            }
            shard.with_generations(|active, _| {
                apply(&active.filter, bucket);
                if let Some(p) = &self.persistence {
                    last_lsn = p.log_items(op, index, active.id, &bucket.items).or(last_lsn);
                }
            });
        }
        if let (Some(p), Some(lsn)) = (self.persistence.as_ref(), last_lsn) {
            p.commit(lsn);
        }
    }

    /// Starts a rotation on one shard: installs a fresh filter while the old
    /// generation keeps answering queries. On a hardened store the fresh
    /// filter is built under a new secret key drawn from `rng` (a true
    /// re-key). On an unhardened store there is no key to rotate — the fresh
    /// generation only clears accumulated (possibly polluted) bits, and an
    /// adversary can re-craft pollution against the unchanged public
    /// derivation at will; the durable defence is hardening, not rotation.
    /// Returns the new generation id, or `None` if a rotation is already
    /// draining on that shard.
    pub fn begin_rotation<R: RngCore>(&self, shard: usize, rng: &mut R) -> Option<u64> {
        let fresh = match self.config.hardening {
            StoreHardening::Hardened(_) => self.build_shard_filter(&FilterKey::generate(rng)),
            // No key material to draw: the public strategy is reused.
            StoreHardening::Unhardened => self.build_shard_filter(&FilterKey::from_bytes([0; 32])),
        };
        let mut lsn = None;
        let id = self.shards[shard].begin_rotation(fresh, |new_id| {
            lsn = self.persistence.as_ref().and_then(|p| p.log_rotation(shard, new_id, true));
        });
        if let (Some(p), Some(lsn)) = (self.persistence.as_ref(), lsn) {
            p.commit(lsn);
        }
        if id.is_some() {
            self.metrics.rotations_begun.inc();
        }
        id
    }

    /// Completes a rotation, dropping the drained generation (call after the
    /// application has replayed its items into the new generation). Returns
    /// `false` if no rotation was in flight.
    pub fn complete_rotation(&self, shard: usize) -> bool {
        let mut lsn = None;
        let completed = self.shards[shard].complete_rotation(|dropped| {
            lsn = self.persistence.as_ref().and_then(|p| p.log_rotation(shard, dropped, false));
        });
        if let (Some(p), Some(lsn)) = (self.persistence.as_ref(), lsn) {
            p.commit(lsn);
        }
        if completed {
            self.metrics.rotations_completed.inc();
        }
        completed
    }

    /// Active generation id of a shard.
    pub fn generation_id(&self, shard: usize) -> u64 {
        self.shards[shard].generation_id()
    }

    /// Attaches durability (snapshots plus an optional write-ahead log) and
    /// writes an initial snapshot so the directory is always recoverable.
    /// If the directory already holds snapshots or WAL segments, sequence
    /// numbers continue after them (nothing is clobbered) — but the current
    /// in-memory store is what gets persisted; use [`BloomStore::recover`]
    /// to *load* a directory.
    ///
    /// # Errors
    ///
    /// [`PersistError::HardenedStore`] — hardened bits are derived under
    /// secret keys that are never written to disk, so a restored hardened
    /// store could not answer queries.
    /// [`PersistError::UnsupportedBackend`] — the family opts out of
    /// word-array persistence (a scalable filter's slice stack has no fixed
    /// geometry to snapshot). [`PersistError::AlreadyPersistent`] if called
    /// twice, or [`PersistError::Io`] on filesystem failure.
    pub fn enable_persistence(
        &mut self,
        config: &PersistConfig,
    ) -> Result<SnapshotInfo, PersistError> {
        if self.is_hardened() {
            return Err(PersistError::HardenedStore);
        }
        if B::persist_words_len(&self.shard_params, &self.options).is_none() {
            return Err(PersistError::UnsupportedBackend(B::KIND));
        }
        if self.persistence.is_some() {
            return Err(PersistError::AlreadyPersistent);
        }
        std::fs::create_dir_all(&config.dir)?;
        let (newest_snapshot, wal_seqs) = persist::scan_dir(&config.dir)?;
        let wal_seq = wal_seqs.last().map_or(1, |s| s + 1);
        let next_snapshot_seq = newest_snapshot.map_or(1, |s| s + 1);
        self.persistence = Some(StorePersistence::create(
            config,
            wal_seq,
            next_snapshot_seq,
            Arc::clone(&self.metrics),
        )?);
        self.snapshot_to_disk()
    }

    /// The attached persistence layer, if any.
    pub fn persistence(&self) -> Option<&StorePersistence> {
        self.persistence.as_ref()
    }

    /// Writes a snapshot of the current store state while serving continues
    /// (shard words are copied racily under the shard read locks; see
    /// [`crate::persist`] for the safety argument) and prunes superseded
    /// snapshot and WAL files.
    ///
    /// On a store in degraded read-only mode (broken WAL) a successful
    /// snapshot doubles as the **repair path**: the WAL switches to a fresh
    /// segment, the snapshot captures every applied-but-unlogged effect,
    /// and degraded mode exits.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotPersistent`] without an attached persistence
    /// layer, or [`PersistError::Io`] on filesystem failure (after which a
    /// degraded store stays degraded).
    pub fn snapshot_to_disk(&self) -> Result<SnapshotInfo, PersistError> {
        let persistence = self.persistence.as_ref().ok_or(PersistError::NotPersistent)?;
        persistence.snapshot(self)
    }

    /// Why the store is in degraded read-only mode, if it is: the original
    /// WAL write error. A degraded store still answers queries, but the
    /// serving layer refuses writes (see
    /// [`crate::serve::ServeStore::insert_batch`]) until a successful
    /// [`BloomStore::snapshot_to_disk`] repairs the log.
    pub fn degraded(&self) -> Option<String> {
        self.persistence.as_ref().and_then(|p| p.wal_error())
    }

    /// Rebuilds a store from a persistence directory: loads the newest
    /// valid snapshot, replays the write-ahead log on top (discarding
    /// records from rotated-out generations), re-attaches persistence with
    /// a fresh WAL segment and writes a post-recovery snapshot so boot cost
    /// stays bounded by the WAL tail.
    ///
    /// The recovered store answers queries identically to the crashed one
    /// for every acknowledged insert and removal (plus any operation that
    /// was mid-flight and logged), each applied exactly once.
    ///
    /// # Errors
    ///
    /// [`PersistError::NoSnapshot`] if the directory holds no valid
    /// snapshot, [`PersistError::Corrupt`] / [`PersistError::BadVersion`]
    /// on a damaged snapshot file (damaged WAL *tails* are tolerated as a
    /// clean cut instead), [`PersistError::ConfigMismatch`] if the snapshot
    /// geometry or filter family no longer matches this store type, or
    /// [`PersistError::Io`].
    pub fn recover(
        config: &PersistConfig,
    ) -> Result<(BloomStore<B>, RecoveryReport), PersistError> {
        let (newest_snapshot, wal_seqs) = persist::scan_dir(&config.dir)?;
        let snapshot_seq = newest_snapshot.ok_or(PersistError::NoSnapshot)?;
        let path = persist::snapshot_path(&config.dir, snapshot_seq);
        let mut snapshot = persist::SnapshotReader::open(&path)?;
        let corrupt = |what| PersistError::Corrupt { file: path.display().to_string(), what };
        let header = snapshot.header();
        if header.seq != snapshot_seq {
            return Err(corrupt("snapshot seq does not match its file name"));
        }
        if header.backend_kind() != Some(B::KIND) {
            return Err(PersistError::ConfigMismatch(
                "snapshot was written by a different filter backend",
            ));
        }
        let Some(options) = B::options_from_persist_aux(header.backend_aux) else {
            return Err(corrupt("backend options byte is invalid for this filter family"));
        };

        // Validate geometry before handing it to constructors that assert.
        if header.shards == 0 || !(header.shards as usize).is_power_of_two() {
            return Err(corrupt("shard count is not a positive power of two"));
        }
        if header.capacity == 0
            || !header.target_fpp.is_finite()
            || !(0.0..1.0).contains(&header.target_fpp)
        {
            return Err(corrupt("capacity or target fpp out of range"));
        }
        let store_config =
            StoreConfig::unhardened(header.shards as usize, header.capacity, header.target_fpp);
        // Unhardened stores draw no secret material; the seed is irrelevant.
        let mut store =
            BloomStore::<B>::build_with(store_config, options, &mut StdRng::seed_from_u64(0));
        if store.shard_params.m != header.m || store.shard_params.k != header.k {
            return Err(PersistError::ConfigMismatch(
                "persisted m/k disagree with what the snapshot's capacity and fpp derive",
            ));
        }

        // Install the persisted generations as they stream in (occupancy
        // counters recounted from the words inside `from_words`; see the
        // persist module docs).
        let strategy = Arc::clone(store.public_strategy.as_ref().expect("unhardened strategy"));
        let shards = header.shards as usize;
        let mut actives: Vec<Option<Generation<B>>> = (0..shards).map(|_| None).collect();
        let mut drainings: Vec<Option<Generation<B>>> = (0..shards).map(|_| None).collect();
        while let Some(generation) = snapshot.next_generation()? {
            let Some(filter) = B::from_words(
                store.shard_params,
                Arc::clone(&strategy),
                generation.words,
                generation.inserted,
                &store.options,
            ) else {
                return Err(corrupt("generation geometry mismatch"));
            };
            let slot = if generation.role == 0 {
                &mut actives[generation.shard as usize]
            } else {
                &mut drainings[generation.shard as usize]
            };
            if slot.replace(Generation { filter, id: generation.id }).is_some() {
                return Err(corrupt("duplicate generation record for a shard"));
            }
        }
        for (index, (active, draining)) in actives.into_iter().zip(drainings).enumerate() {
            let Some(active) = active else {
                return Err(corrupt("shard missing its active generation record"));
            };
            store.shards[index] = Shard::restore(active, draining);
        }
        let fences = snapshot.into_fences();

        let mut report = RecoveryReport { snapshot_seq, ..RecoveryReport::default() };

        // Replay the WAL tail. `wal_seq == 0` marks a snapshot written
        // without a log (nothing to replay).
        if header.wal_seq > 0 {
            for &seq in wal_seqs.iter().filter(|&&s| s >= header.wal_seq) {
                let fences = if seq == header.wal_seq { &fences[..] } else { &[] };
                store.replay_segment(&config.dir, seq, fences, &mut report)?;
                report.wal_segments += 1;
            }
        }

        // Re-attach with fresh sequence numbers (never append to a segment
        // that may have a torn tail), then fold the replayed tail into a
        // new snapshot — which also prunes everything it supersedes.
        let wal_seq = wal_seqs.last().copied().unwrap_or(header.wal_seq).max(snapshot_seq) + 1;
        store.persistence = Some(StorePersistence::create(
            config,
            wal_seq,
            snapshot_seq + 1,
            Arc::clone(&store.metrics),
        )?);
        store.snapshot_to_disk()?;
        Ok((store, report))
    }

    /// Replays one WAL segment during recovery (persistence is not attached
    /// yet, so nothing here is re-logged). A shard's records at positions
    /// below its entry in `fences` are already in the snapshot and skipped.
    fn replay_segment(
        &self,
        dir: &std::path::Path,
        seq: u64,
        fences: &[u64],
        report: &mut RecoveryReport,
    ) -> Result<(), PersistError> {
        let mut wal = persist::WalReader::open(&persist::wal_path(dir, seq), seq)?;
        let mut rng = StdRng::seed_from_u64(0);
        let mut position = 0u64;
        while let Some(record) = wal.next()? {
            let in_snapshot =
                fences.get(record.shard() as usize).is_some_and(|&fence| position < fence);
            position += 1;
            if in_snapshot {
                report.skipped_in_snapshot += 1;
                continue;
            }
            match record {
                WalRecord::Items { op, shard, generation, items } => {
                    let Some(target) = self.shards.get(shard as usize) else {
                        report.anomalies += 1;
                        continue;
                    };
                    // A generation *ahead* of the shard means the log knows
                    // of rotations the snapshot predates the record for —
                    // cannot happen with logs this module wrote (rotations
                    // log under the write lock), but tolerated: roll the
                    // shard forward, then apply, so no logged write is lost.
                    // A shard mid-rotation completes it first, as the log's
                    // missing records must have.
                    while target.generation_id() < generation {
                        if self.begin_rotation(shard as usize, &mut rng).is_none() {
                            self.complete_rotation(shard as usize);
                        }
                        report.anomalies += 1;
                    }
                    let count = items.len() as u64;
                    target.with_generations(|active, draining| {
                        let filter = if generation == active.id {
                            &active.filter
                        } else if let Some(d) = draining.filter(|d| d.id == generation) {
                            &d.filter
                        } else {
                            if generation < active.id {
                                // Rotated out: replaying would resurrect
                                // exactly the pollution the completed
                                // rotation dropped.
                                report.discarded_stale += count;
                            } else {
                                report.anomalies += 1;
                            }
                            return;
                        };
                        match op {
                            ItemOp::Insert => {
                                filter.insert_batch(&items);
                                report.replayed_inserts += count;
                            }
                            ItemOp::Remove => {
                                if filter.remove_batch(&items).is_some() {
                                    report.replayed_removes += count;
                                } else {
                                    // A remove record against a family
                                    // with no deletion: a log this module
                                    // never writes.
                                    report.anomalies += count;
                                }
                            }
                        }
                    });
                }
                WalRecord::RotateBegin { shard, generation } => {
                    let Some(target) = self.shards.get(shard as usize) else {
                        report.anomalies += 1;
                        continue;
                    };
                    if target.generation_id() >= generation {
                        // The snapshot's shard copy happened after this
                        // rotation applied: already reflected, idempotently
                        // skipped.
                    } else if target.generation_id() + 1 == generation
                        && self.begin_rotation(shard as usize, &mut rng).is_some()
                    {
                        report.replayed_rotations += 1;
                    } else {
                        report.anomalies += 1;
                    }
                }
                WalRecord::RotateComplete { shard, generation } => {
                    let Some(target) = self.shards.get(shard as usize) else {
                        report.anomalies += 1;
                        continue;
                    };
                    let draining_id = target.with_generations(|_, draining| draining.map(|g| g.id));
                    match draining_id {
                        // Completed before the snapshot's shard copy:
                        // already reflected.
                        None => {}
                        Some(id) if id == generation => {
                            self.complete_rotation(shard as usize);
                            report.replayed_rotations += 1;
                        }
                        Some(_) => report.anomalies += 1,
                    }
                }
            }
        }
        report.torn_tail |= wal.torn();
        Ok(())
    }

    /// Memory footprint in bytes of all active shard filter states.
    pub fn memory_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.with_generations(|active, _| active.filter.memory_bytes()))
            .sum()
    }

    /// Health snapshot: per-shard fill, false-positive estimates and
    /// pollution alarms (see [`crate::stats`]).
    pub fn stats(&self) -> StoreStats {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                shard.with_generations(|active, draining| {
                    let filter = &active.filter;
                    let weight = filter.weight_approx();
                    let fill = weight as f64 / filter.m().max(1) as f64;
                    ShardStats {
                        shard: index,
                        generation: active.id,
                        rotating: draining.is_some(),
                        m: filter.m(),
                        k: filter.k(),
                        inserted: filter.inserted(),
                        weight,
                        fill,
                        estimated_fpp: evilbloom_analysis::false_positive::false_positive_for_fill(
                            fill,
                            filter.k(),
                        ),
                        pollution_alarm: pollution_alarm(
                            filter.m(),
                            filter.k(),
                            filter.inserted(),
                            weight,
                        ),
                    }
                })
            })
            .collect();
        StoreStats::from_shards(B::KIND, shards)
    }

    /// The store's runtime telemetry (see [`crate::metrics`]).
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Runs a full stats pass *and* refreshes the sampled metrics derived
    /// from it (per-shard fill gauges, active-alarm gauge, alarm-transition
    /// edges, and the bits-per-insert drift series). The server's `METRICS`
    /// opcode calls this before rendering, so every scrape advances the
    /// drift window.
    pub fn sample_metrics(&self) -> StoreStats {
        let stats = self.stats();
        self.metrics.sample(&stats);
        stats
    }
}

impl<B: FilterBackend> core::fmt::Debug for BloomStore<B> {
    /// Deliberately redacted: no routing-key or filter-key material reaches
    /// logs through this impl.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BloomStore")
            .field("backend", &B::KIND)
            .field("shards", &self.shards.len())
            .field("shard_params", &self.shard_params)
            .field("hardening", &self.config.hardening)
            .field("keys", &"<redacted>")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hardened_store(shards: usize) -> BloomStore {
        BloomStore::builder().shards(shards).capacity(4_000).target_fpp(0.01).seed(42).build()
    }

    #[test]
    fn insert_query_roundtrip() {
        let store = hardened_store(8);
        for i in 0..1000 {
            store.insert(format!("item-{i}").as_bytes());
        }
        for i in 0..1000 {
            assert!(store.contains(format!("item-{i}").as_bytes()));
        }
        assert_eq!(store.stats().total_inserted, 1000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        BloomStore::builder().shards(3).capacity(100).build();
    }

    #[test]
    fn builder_config_setter_copies_sizing_and_hardening() {
        let config = StoreConfig::unhardened(4, 2_000, 0.02);
        let store = BloomStore::builder().config(config).seed(7).build();
        assert_eq!(store.config(), config);
        assert!(!store.is_hardened());
    }

    #[test]
    fn routing_spreads_items_across_shards() {
        let store = hardened_store(8);
        let mut seen = [false; 8];
        for i in 0..200 {
            seen[store.route(format!("item-{i}").as_bytes())] = true;
        }
        assert!(seen.iter().all(|&s| s), "200 items must touch all 8 shards");
    }

    #[test]
    fn routing_key_changes_routing() {
        let a = BloomStore::builder().shards(16).capacity(1000).seed(1).build();
        let b = BloomStore::builder().shards(16).capacity(1000).seed(2).build();
        let differing = (0..100)
            .filter(|i| {
                let item = format!("item-{i}");
                a.route(item.as_bytes()) != b.route(item.as_bytes())
            })
            .count();
        assert!(differing > 50, "only {differing}/100 items routed differently");
    }

    #[test]
    fn unhardened_routing_is_public_and_key_free() {
        let a = BloomStore::builder().shards(8).capacity(1000).unhardened().seed(1).build();
        let b = BloomStore::builder().shards(8).capacity(1000).unhardened().seed(2).build();
        for i in 0..100 {
            let item = format!("item-{i}");
            assert_eq!(a.route(item.as_bytes()), b.route(item.as_bytes()));
        }
    }

    #[test]
    fn batch_and_scalar_apis_agree() {
        let scalar = hardened_store(4);
        let batch = BloomStore::builder().shards(4).capacity(4_000).seed(42).build();
        let items: Vec<String> = (0..500).map(|i| format!("item-{i}")).collect();
        let mut scalar_fresh = 0u64;
        for item in &items {
            scalar_fresh += u64::from(scalar.insert(item.as_bytes()));
        }
        let outcome = batch.insert_batch(&items);
        assert_eq!(outcome.items, 500);
        assert_eq!(outcome.fresh_bits, scalar_fresh);

        let probes: Vec<String> = (0..500)
            .map(|i| format!("item-{i}"))
            .chain((0..100).map(|i| format!("absent-{i}")))
            .collect();
        let batch_answers = batch.query_batch(&probes);
        for (probe, answer) in probes.iter().zip(&batch_answers) {
            assert_eq!(*answer, scalar.contains(probe.as_bytes()), "{probe}");
        }
        assert!(batch_answers[..500].iter().all(|&a| a), "no false negatives in batch");
    }

    #[test]
    fn concurrent_writers_share_the_store_by_reference() {
        let store = hardened_store(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..500 {
                        store.insert(format!("t{t}-i{i}").as_bytes());
                    }
                });
            }
        });
        for t in 0..4 {
            for i in 0..500 {
                assert!(store.contains(format!("t{t}-i{i}").as_bytes()));
            }
        }
        assert_eq!(store.stats().total_inserted, 2000);
    }

    #[test]
    fn rotation_keeps_old_generation_answering() {
        let store = hardened_store(4);
        let items: Vec<String> = (0..400).map(|i| format!("item-{i}")).collect();
        store.insert_batch(&items);
        let mut rng = StdRng::seed_from_u64(7);
        for shard in 0..4 {
            assert_eq!(store.begin_rotation(shard, &mut rng), Some(1));
        }
        // Mid-rotation: every pre-rotation item still answers.
        assert!(store.query_batch(&items).iter().all(|&a| a));
        // Rebuild (replay), then complete.
        store.insert_batch(&items);
        for shard in 0..4 {
            assert!(store.complete_rotation(shard));
            assert_eq!(store.generation_id(shard), 1);
        }
        assert!(store.query_batch(&items).iter().all(|&a| a));
    }

    #[test]
    fn stats_report_shard_geometry() {
        let store = hardened_store(4);
        let stats = store.stats();
        assert_eq!(stats.shards.len(), 4);
        assert_eq!(stats.alarms, 0);
        assert_eq!(stats.backend, BackendKind::Bloom);
        for shard in &stats.shards {
            assert_eq!(shard.m, store.shard_params().m);
            assert_eq!(shard.k, store.shard_params().k);
            assert!(!shard.rotating);
        }
    }

    #[test]
    fn debug_output_redacts_keys() {
        let store = hardened_store(2);
        let text = format!("{store:?}");
        assert!(text.contains("<redacted>"), "{text}");
        assert!(text.contains("KeyedSipHash"));
        // No 32-byte key rendering can hide in there.
        assert!(!text.contains("SipKey"), "{text}");
    }

    #[test]
    fn bloom_backend_refuses_remove_with_a_typed_error() {
        let store = hardened_store(2);
        let err = store.remove(b"anything").unwrap_err();
        assert_eq!(err.backend, BackendKind::Bloom);
        assert!(err.to_string().contains("bloom backend does not support"));
        assert!(store.remove_batch(&[b"a".as_slice(), b"b"]).is_err());
    }

    #[test]
    fn counting_store_inserts_removes_and_reports_backend() {
        let store = BloomStore::builder().shards(4).capacity(4_000).counting(4).seed(9).build();
        assert_eq!(store.backend_kind(), BackendKind::Counting);
        assert_eq!(store.config().backend, BackendKind::Counting);
        let items: Vec<String> = (0..300).map(|i| format!("item-{i}")).collect();
        store.insert_batch(&items);
        assert!(store.query_batch(&items).iter().all(|&a| a));
        // Remove half; the removed half must stop answering (no saturation
        // at this load), the rest must keep answering.
        let (gone, kept) = items.split_at(150);
        let answers = store.remove_batch(gone).expect("counting supports removal");
        assert!(answers.iter().all(|&was_present| was_present));
        assert!(store.query_batch(kept).iter().all(|&a| a), "kept items still answer");
        let still: usize = store.query_batch(gone).iter().filter(|&&a| a).count();
        assert!(still < 10, "{still}/150 removed items still answer (fp-level residue only)");
        assert_eq!(store.stats().backend, BackendKind::Counting);
    }

    #[test]
    fn counting_remove_of_absent_item_reports_not_present() {
        let store = BloomStore::builder().shards(2).capacity(1_000).counting(4).build();
        assert_eq!(store.remove(b"never inserted"), Ok(false));
    }

    #[test]
    fn scalable_store_grows_past_capacity_without_false_negatives() {
        let store = BloomStore::builder()
            .shards(2)
            .capacity(200)
            .unhardened()
            .scalable(0.9)
            .seed(3)
            .build();
        assert_eq!(store.backend_kind(), BackendKind::Scalable);
        let items: Vec<String> = (0..2_000).map(|i| format!("item-{i}")).collect();
        store.insert_batch(&items);
        assert!(store.query_batch(&items).iter().all(|&a| a), "growth never loses items");
        let stats = store.stats();
        assert_eq!(stats.backend, BackendKind::Scalable);
        // The per-shard bit count must have grown past the base slice.
        assert!(stats.shards.iter().all(|s| s.m > store.shard_params().m));
        assert!(store.remove(b"x").is_err(), "scalable has no deletion");
    }

    /// A logged write whose generation runs ahead of its shard rolls the
    /// shard forward and is applied, for inserts and removes alike, also
    /// when the shard is mid-rotation; each forced rotation step counts as
    /// an anomaly.
    #[test]
    fn item_records_ahead_of_their_shard_roll_it_forward_and_apply() {
        for (op, mid_rotation) in [
            (ItemOp::Insert, false),
            (ItemOp::Remove, false),
            (ItemOp::Insert, true),
            (ItemOp::Remove, true),
        ] {
            let case = format!("{op:?}, mid-rotation {mid_rotation}");
            let dir = std::env::temp_dir().join(format!(
                "evilbloom-store-ahead-{op:?}-{mid_rotation}-{}",
                std::process::id()
            ));
            drop(std::fs::remove_dir_all(&dir));
            let config = PersistConfig::new(&dir);
            let mut store =
                BloomStore::builder().shards(2).capacity(1_000).unhardened().counting(4).build();
            store.enable_persistence(&config).expect("enable");
            if mid_rotation {
                store.begin_rotation(0, &mut StdRng::seed_from_u64(1)).expect("begin");
            }
            let ahead = store.generation_id(0) + 1;
            let item = (0..)
                .map(|i| format!("ahead-{i}").into_bytes())
                .find(|item| store.route(item) == 0)
                .expect("some item routes to shard 0");
            let persistence = store.persistence().expect("attached");
            let lsn = persistence.log_items(op, 0, ahead, &[&item]).expect("logged");
            persistence.commit(lsn);
            drop(store);

            let (recovered, report) =
                BloomStore::<ConcurrentCountingFilter>::recover(&config).expect("recover");
            assert_eq!(recovered.generation_id(0), ahead, "{case}: shard 0 rolled forward");
            let steps = if mid_rotation { 2 } else { 1 };
            assert_eq!(report.anomalies, steps, "{case}: each forced step is counted");
            let applied = match op {
                ItemOp::Insert => report.replayed_inserts,
                ItemOp::Remove => report.replayed_removes,
            };
            assert_eq!(applied, 1, "{case}: the record is applied, not dropped");
            assert_eq!(recovered.contains(&item), op == ItemOp::Insert, "{case}");
            std::fs::remove_dir_all(&dir).expect("remove temp dir");
        }
    }

    #[test]
    fn rotation_works_on_counting_and_scalable_backends() {
        let counting = BloomStore::builder().shards(2).capacity(1_000).counting(4).build();
        counting.insert(b"old");
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(counting.begin_rotation(0, &mut rng), Some(1));
        assert_eq!(counting.begin_rotation(1, &mut rng), Some(1));
        assert!(counting.contains(b"old"), "draining generation answers");
        assert!(counting.complete_rotation(0));
        assert!(counting.complete_rotation(1));
        assert!(!counting.contains(b"old"));

        let scalable = BloomStore::builder().shards(2).capacity(1_000).scalable(0.8).build();
        scalable.insert(b"old");
        assert_eq!(scalable.begin_rotation(0, &mut rng), Some(1));
        assert_eq!(scalable.begin_rotation(1, &mut rng), Some(1));
        assert!(scalable.contains(b"old"));
        assert!(scalable.complete_rotation(0) && scalable.complete_rotation(1));
        assert!(!scalable.contains(b"old"));
    }
}
