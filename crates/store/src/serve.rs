//! [`ServeStore`]: the object-safe facade a wire server holds.
//!
//! [`crate::BloomStore`] is generic over its [`FilterBackend`] — the right
//! shape for callers that know their filter family at compile time, and the
//! wrong shape for a TCP server that picks the family from a CLI flag at
//! runtime. `ServeStore` erases the type parameter: every serving operation
//! the wire protocol needs, expressed with object-safe signatures, so the
//! server stores an `Arc<dyn ServeStore>` and serves plain, counting and
//! scalable stores through one code path.
//!
//! The trait has two writes, [`ServeStore::insert_batch`] and
//! [`ServeStore::remove_batch`]. A single-item wire write (`INSERT`,
//! `DELETE`) is a one-item batch, so every write reaches the shards and the
//! WAL through the same path.
//!
//! Deletion is part of the trait (the wire has `DELETE` opcodes) but not
//! every family honours it: non-deletable backends answer with the same
//! typed [`UnsupportedOp`] the generic store raises, which the server maps
//! to its `Unsupported` response rather than a connection error.
//!
//! ## Degraded read-only mode
//!
//! Writes through this trait are **durability-checked** by one guard: when
//! the store's WAL has broken ([`BloomStore::degraded`]) they are refused
//! with [`WriteRefusal::Degraded`] *before* touching the shards, and a
//! write whose own commit broke the WAL is refused *after* applying — the
//! items may be in memory, but the caller must not acknowledge them as
//! durable (at-least-once, never silent loss). Queries are unaffected.
//! Degraded mode exits on the next successful
//! [`ServeStore::snapshot_to_disk`].

use rand::RngCore;

use evilbloom_filters::FilterBackend;

use crate::metrics::StoreMetrics;
use crate::persist::{PersistError, SnapshotInfo};
use crate::stats::StoreStats;
use crate::store::{BatchOutcome, BloomStore, UnsupportedOp};

/// A typed write refusal from the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteRefusal {
    /// The store is in degraded read-only mode (its WAL broke); carries the
    /// original write error. Queries still serve; a successful snapshot
    /// repairs the log and lifts the refusal.
    Degraded(String),
    /// The filter family cannot perform the operation (e.g. deletion on a
    /// plain Bloom backend).
    Unsupported(UnsupportedOp),
}

impl core::fmt::Display for WriteRefusal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WriteRefusal::Degraded(e) => {
                write!(f, "store is in degraded read-only mode: {e}")
            }
            WriteRefusal::Unsupported(op) => op.fmt(f),
        }
    }
}

impl std::error::Error for WriteRefusal {}

impl From<UnsupportedOp> for WriteRefusal {
    fn from(op: UnsupportedOp) -> Self {
        WriteRefusal::Unsupported(op)
    }
}

/// Every operation a wire server performs on a store, object-safe so the
/// backend family can be chosen at runtime.
///
/// Implemented by [`BloomStore`] for every backend; the trait methods
/// delegate to the inherent ones, so behaviour (WAL logging, metrics,
/// rotation semantics) is identical through either interface.
pub trait ServeStore: Send + Sync {
    /// Membership query.
    fn contains(&self, item: &[u8]) -> bool;

    /// Batch insert; each shard is visited once.
    ///
    /// # Errors
    ///
    /// [`WriteRefusal::Degraded`] while the store is in degraded read-only
    /// mode, or if this very write broke the WAL (applied in memory but not
    /// durably logged — do not acknowledge it).
    fn insert_batch(&self, items: &[&[u8]]) -> Result<BatchOutcome, WriteRefusal>;

    /// Batch membership query; answers in input order.
    fn query_batch(&self, items: &[&[u8]]) -> Vec<bool>;

    /// Batch removal (deletable backends); `was_present` answers in input
    /// order.
    ///
    /// # Errors
    ///
    /// [`WriteRefusal::Unsupported`] on families without deletion,
    /// [`WriteRefusal::Degraded`] while degraded.
    fn remove_batch(&self, items: &[&[u8]]) -> Result<Vec<bool>, WriteRefusal>;

    /// Health snapshot (per-shard fill, fpp estimates, pollution alarms).
    fn stats(&self) -> StoreStats;

    /// Stats pass that also refreshes the sampled gauges and the drift
    /// series (what a metrics scrape calls).
    fn sample_metrics(&self) -> StoreStats;

    /// The store's telemetry registry handle.
    fn metrics(&self) -> &StoreMetrics;

    /// Number of shards.
    fn shard_count(&self) -> usize;

    /// Starts a rotation on `shard`, drawing any fresh key material from
    /// `rng`. Returns the new generation id, or `None` if a rotation is
    /// already draining there.
    fn begin_rotation_dyn(&self, shard: usize, rng: &mut dyn RngCore) -> Option<u64>;

    /// Completes a draining rotation on `shard`.
    fn complete_rotation(&self, shard: usize) -> bool;

    /// Writes a snapshot, if persistence is attached.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotPersistent`] without persistence, or any snapshot
    /// failure.
    fn snapshot_to_disk(&self) -> Result<SnapshotInfo, PersistError>;
}

/// The degraded-mode guard around every write: checked before `write` is
/// applied (the common refusal) and again after it committed (this very
/// write may have broken the WAL — applied in memory, but never
/// acknowledge it as durable).
fn guarded<B: FilterBackend, T>(
    store: &BloomStore<B>,
    write: impl FnOnce() -> Result<T, UnsupportedOp>,
) -> Result<T, WriteRefusal> {
    let healthy = || store.degraded().map_or(Ok(()), |reason| Err(WriteRefusal::Degraded(reason)));
    healthy()?;
    let done = write()?;
    healthy()?;
    Ok(done)
}

impl<B: FilterBackend> ServeStore for BloomStore<B> {
    fn contains(&self, item: &[u8]) -> bool {
        BloomStore::contains(self, item)
    }

    fn insert_batch(&self, items: &[&[u8]]) -> Result<BatchOutcome, WriteRefusal> {
        guarded(self, || Ok(BloomStore::insert_batch(self, items)))
    }

    fn query_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        BloomStore::query_batch(self, items)
    }

    fn remove_batch(&self, items: &[&[u8]]) -> Result<Vec<bool>, WriteRefusal> {
        guarded(self, || BloomStore::remove_batch(self, items))
    }

    fn stats(&self) -> StoreStats {
        BloomStore::stats(self)
    }

    fn sample_metrics(&self) -> StoreStats {
        BloomStore::sample_metrics(self)
    }

    fn metrics(&self) -> &StoreMetrics {
        BloomStore::metrics(self)
    }

    fn shard_count(&self) -> usize {
        BloomStore::shard_count(self)
    }

    fn begin_rotation_dyn(&self, shard: usize, rng: &mut dyn RngCore) -> Option<u64> {
        // Reborrow: `&mut dyn RngCore` itself implements `RngCore` via the
        // blanket impl, satisfying the inherent method's `R: RngCore`.
        let mut rng = rng;
        BloomStore::begin_rotation(self, shard, &mut rng)
    }

    fn complete_rotation(&self, shard: usize) -> bool {
        BloomStore::complete_rotation(self, shard)
    }

    fn snapshot_to_disk(&self) -> Result<SnapshotInfo, PersistError> {
        BloomStore::snapshot_to_disk(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_filters::BackendKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Builds each backend family behind the same trait object, the way the
    /// server will.
    fn all_backends() -> Vec<(&'static str, Arc<dyn ServeStore>)> {
        vec![
            ("bloom", Arc::new(BloomStore::builder().shards(4).capacity(4_000).seed(1).build())),
            (
                "counting",
                Arc::new(BloomStore::builder().shards(4).capacity(4_000).counting(4).build()),
            ),
            (
                "scalable",
                Arc::new(BloomStore::builder().shards(4).capacity(4_000).scalable(0.9).build()),
            ),
        ]
    }

    #[test]
    fn every_family_serves_through_the_trait_object() {
        for (name, store) in all_backends() {
            assert!(!store.stats().degraded, "{name}");
            let outcome =
                store.insert_batch(&[b"one".as_slice()]).expect("healthy store accepts writes");
            assert_eq!(outcome.fresh_bits, u64::from(store.stats().shards[0].k.max(1)), "{name}");
            assert!(store.contains(b"one"), "{name}");
            let outcome =
                store.insert_batch(&[b"two".as_slice(), b"three"]).expect("healthy store");
            assert_eq!(outcome.items, 2, "{name}");
            assert_eq!(
                store.query_batch(&[b"one".as_slice(), b"two", b"absent-xyz"])[..2],
                [true, true],
                "{name}"
            );
            assert_eq!(store.shard_count(), 4, "{name}");
        }
    }

    #[test]
    fn remove_capability_matches_the_family() {
        for (name, store) in all_backends() {
            let result = store.remove_batch(&[b"one".as_slice()]);
            match store.stats().backend {
                BackendKind::Counting => assert!(result.is_ok(), "{name}"),
                kind => match result.unwrap_err() {
                    WriteRefusal::Unsupported(err) => assert_eq!(err.backend, kind, "{name}"),
                    refusal => panic!("{name}: expected Unsupported, got {refusal:?}"),
                },
            }
        }
    }

    #[test]
    fn rotation_through_the_trait_object() {
        for (name, store) in all_backends() {
            store.insert_batch(&[b"old".as_slice()]).expect("healthy store");
            let mut rng = StdRng::seed_from_u64(5);
            for shard in 0..store.shard_count() {
                assert_eq!(store.begin_rotation_dyn(shard, &mut rng), Some(1), "{name}");
            }
            assert!(store.contains(b"old"), "{name}: draining generation answers");
            for shard in 0..store.shard_count() {
                assert!(store.complete_rotation(shard), "{name}");
                assert_eq!(store.stats().shards[shard].generation, 1, "{name}");
            }
            assert!(!store.contains(b"old"), "{name}: rotation dropped the old bits");
        }
    }

    #[test]
    fn snapshot_without_persistence_is_a_typed_error() {
        for (name, store) in all_backends() {
            assert!(matches!(store.snapshot_to_disk(), Err(PersistError::NotPersistent)), "{name}");
        }
    }
}
