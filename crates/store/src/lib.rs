//! # evilbloom-store
//!
//! A sharded, lock-free concurrent Bloom-filter store: the serving layer
//! that keeps the hardened guarantees of `evilbloom-core` under
//! multi-threaded — including adversarial — load.
//!
//! The paper's defences (worst-case parameters, keyed SipHash/HMAC indexes,
//! Section 8) matter precisely in deployments that serve real traffic:
//! Squid digests, Bitly's dablooms and Scrapy's dupe filter are all
//! concurrent services. This crate provides:
//!
//! * [`BloomStore`] — `N` power-of-two shards, generic over the
//!   [`FilterBackend`] family they hold (plain
//!   [`evilbloom_filters::ConcurrentBloomFilter`], deletable
//!   [`evilbloom_filters::ConcurrentCountingFilter`], growing
//!   [`evilbloom_filters::ConcurrentScalableFilter`]), routed by a keyed
//!   shard hash so an adversary cannot target one shard, with batch
//!   [`BloomStore::insert_batch`] / [`BloomStore::query_batch`] APIs that
//!   amortise routing and locking — built fluently via
//!   [`BloomStore::builder`];
//! * deletion ([`BloomStore::remove`] / [`BloomStore::remove_batch`]) on
//!   counting backends, refused with a typed [`UnsupportedOp`] elsewhere —
//!   the substrate of the paper's deletion adversary;
//! * [`ServeStore`] — the object-safe facade a wire server holds so the
//!   backend family can be a runtime choice ([`serve`]);
//! * generation-based key rotation ([`BloomStore::begin_rotation`] /
//!   [`BloomStore::complete_rotation`]): a shard re-keys and rebuilds in the
//!   background while its old generation keeps answering queries;
//! * durability ([`BloomStore::enable_persistence`] /
//!   [`BloomStore::recover`]): fenced per-shard snapshots plus a group-commit
//!   write-ahead log, so a restarted store comes back with its exact bit
//!   state — accumulated pollution included (see [`persist`]);
//! * [`StoreStats`] — per-shard fill, false-positive estimates, and
//!   pollution alarms tied to the chosen-insertion analysis in
//!   `evilbloom-analysis`;
//! * [`StoreMetrics`] — lock-free runtime telemetry ([`metrics`]): insert
//!   and query counters, per-shard fill gauges, WAL/snapshot latency
//!   histograms, and the bits-per-insert drift series that makes
//!   chosen-insertion pollution visible as an anomalous slope;
//! * [`AdversarialStoreView`] — the flattened [`TargetFilter`] view of an
//!   *unhardened* store that lets the existing `evilbloom-attacks` engines
//!   (pollution, saturation, forgery) attack the store unchanged — and that
//!   a hardened store refuses to produce;
//! * [`ConcurrentDedup`] — the small adapter that puts real applications
//!   (the `evilbloom-webspider` crawler) on the concurrent path.
//!
//! ## Example
//!
//! ```
//! use evilbloom_store::BloomStore;
//!
//! // 8 keyed shards sized for 8000 items at 1% false positives.
//! let store = BloomStore::builder().shards(8).capacity(8_000).target_fpp(0.01).seed(42).build();
//!
//! // Serve inserts from four workers sharing the store by reference.
//! std::thread::scope(|scope| {
//!     for worker in 0..4 {
//!         let store = &store;
//!         scope.spawn(move || {
//!             for i in 0..100 {
//!                 store.insert(format!("http://w{worker}.example/{i}").as_bytes());
//!             }
//!         });
//!     }
//! });
//!
//! assert!(store.contains(b"http://w0.example/0"));
//! let stats = store.stats();
//! assert_eq!(stats.total_inserted, 400);
//! assert_eq!(stats.alarms, 0, "honest traffic raises no pollution alarm");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod dedup;
pub mod harness;
pub mod metrics;
pub mod persist;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod store;

pub use adversary::{
    craft_store_pollution, forge_store_ghosts, plan_store_deletion, AdversarialStoreView,
};
pub use dedup::ConcurrentDedup;
pub use metrics::StoreMetrics;
pub use persist::{
    PersistConfig, PersistError, RecoveryReport, SnapshotInfo, StorePersistence, SyncPolicy,
};
pub use serve::{ServeStore, WriteRefusal};
pub use shard::{Generation, Shard};
pub use stats::{pollution_alarm, ShardStats, StoreStats, ALARM_MIN_INSERTIONS};
pub use store::{
    BatchOutcome, BloomStore, StoreBuilder, StoreConfig, StoreHardening, UnsupportedOp,
};

// Re-exported so the doc examples and downstream callers can name the trait
// the adversarial view implements without importing `evilbloom-attacks`, and
// the backend vocabulary without importing `evilbloom-filters`.
pub use evilbloom_attacks::TargetFilter;
pub use evilbloom_filters::{
    BackendKind, ConcurrentBloomFilter, ConcurrentCountingFilter, ConcurrentScalableFilter,
    FilterBackend,
};
