//! A single store shard: a concurrent filter backend wrapped in a generation
//! pair so its secret key can be rotated without a service interruption.
//!
//! Rotation model: a Bloom filter cannot enumerate its items, so rotation is
//! a two-phase hand-off driven by the application (which owns the source of
//! truth):
//!
//! 1. [`Shard::begin_rotation`] installs a fresh (re-keyed) *active*
//!    generation and demotes the old one to *draining*. Queries consult both
//!    generations, so everything inserted before the rotation keeps
//!    answering; new inserts go only to the active generation.
//! 2. The application replays its item set into the store in the background
//!    (the rebuild), then calls [`Shard::complete_rotation`] to drop the
//!    drained generation — and with it every bit the adversary polluted
//!    under the old key.
//!
//! The shard is generic over the [`FilterBackend`] family it holds (plain,
//! counting, scalable); the default keeps existing `Shard` mentions meaning
//! what they always did.

use std::sync::RwLock;

use evilbloom_filters::{ConcurrentBloomFilter, FilterBackend};

/// One filter generation: the filter plus a monotonically increasing id.
#[derive(Debug)]
pub struct Generation<B = ConcurrentBloomFilter> {
    /// The concurrent filter answering for this generation.
    pub filter: B,
    /// Generation number (0 at shard creation, +1 per rotation).
    pub id: u64,
}

#[derive(Debug)]
struct GenerationPair<B> {
    active: Generation<B>,
    draining: Option<Generation<B>>,
}

/// A store shard: an active filter generation, plus an optional draining
/// generation while a key rotation's rebuild is in flight.
///
/// The `RwLock` guards the *installation* of generations and the snapshot
/// copy; inserts and queries take the read lock (shared, uncontended in
/// steady state) and then operate lock-free on the [`FilterBackend`] inside.
#[derive(Debug)]
pub struct Shard<B = ConcurrentBloomFilter> {
    generations: RwLock<GenerationPair<B>>,
}

impl<B: FilterBackend> Shard<B> {
    /// Creates a shard serving `filter` as generation 0.
    pub fn new(filter: B) -> Self {
        Shard {
            generations: RwLock::new(GenerationPair {
                active: Generation { filter, id: 0 },
                draining: None,
            }),
        }
    }

    /// Rebuilds a shard with explicit generation state — the recovery
    /// constructor (generation ids restored from a snapshot are usually
    /// non-zero, and a shard persisted mid-rotation restores both
    /// generations).
    pub(crate) fn restore(active: Generation<B>, draining: Option<Generation<B>>) -> Self {
        Shard { generations: RwLock::new(GenerationPair { active, draining }) }
    }

    /// Runs `f` with the active generation and (if a rotation is draining)
    /// the previous one. This is the primitive the store's batch APIs use to
    /// amortise lock acquisition over many items.
    pub fn with_generations<R>(
        &self,
        f: impl FnOnce(&Generation<B>, Option<&Generation<B>>) -> R,
    ) -> R {
        let pair = self.generations.read().expect("shard lock poisoned");
        f(&pair.active, pair.draining.as_ref())
    }

    /// [`Shard::with_generations`] under the *write* lock: no insert or
    /// removal is in flight on this shard while `f` runs, so every write
    /// applied so far has also been logged and none is half-applied. The
    /// snapshot's exact copy point.
    pub(crate) fn with_generations_exclusive<R>(
        &self,
        f: impl FnOnce(&Generation<B>, Option<&Generation<B>>) -> R,
    ) -> R {
        let pair = self.generations.write().expect("shard lock poisoned");
        f(&pair.active, pair.draining.as_ref())
    }

    /// Membership query against the active generation, falling back to the
    /// draining generation during a rotation (old data keeps answering until
    /// the rebuild completes).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.with_generations(|active, draining| {
            active.filter.contains(item) || draining.is_some_and(|g| g.filter.contains(item))
        })
    }

    /// Starts a rotation: `fresh` (typically re-keyed and empty) becomes the
    /// active generation and the current one drains. Returns the new
    /// generation id, or `None` if a rotation is already in flight (finish
    /// it first — dropping a draining generation early would lose answers).
    ///
    /// `log` runs with the new id *while the write lock is still held* — the
    /// store's WAL append point. Holding the lock keeps log order consistent
    /// with apply order: no insert (read lock) can log between the
    /// generation switch and its log record.
    pub fn begin_rotation(&self, fresh: B, log: impl FnOnce(u64)) -> Option<u64> {
        let mut pair = self.generations.write().expect("shard lock poisoned");
        if pair.draining.is_some() {
            return None;
        }
        let next_id = pair.active.id + 1;
        let old = std::mem::replace(&mut pair.active, Generation { filter: fresh, id: next_id });
        pair.draining = Some(old);
        log(next_id);
        Some(next_id)
    }

    /// Finishes a rotation by dropping the draining generation. Returns
    /// `false` if no rotation was in flight. `log` runs under the write
    /// lock with the dropped generation's id.
    pub fn complete_rotation(&self, log: impl FnOnce(u64)) -> bool {
        let mut pair = self.generations.write().expect("shard lock poisoned");
        match pair.draining.take() {
            Some(dropped) => {
                log(dropped.id);
                true
            }
            None => false,
        }
    }

    /// Current active generation id.
    pub fn generation_id(&self) -> u64 {
        self.generations.read().expect("shard lock poisoned").active.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_filters::{ConcurrentCountingFilter, CountingOptions, FilterParams};
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
    use std::sync::Arc;

    fn fresh_filter() -> ConcurrentBloomFilter {
        ConcurrentBloomFilter::new(
            FilterParams::optimal(200, 0.01),
            KirschMitzenmacher::new(Murmur3_128),
        )
    }

    fn insert<B: FilterBackend>(shard: &Shard<B>, item: &[u8]) {
        shard.with_generations(|active, _| active.filter.insert(item));
    }

    fn is_rotating<B: FilterBackend>(shard: &Shard<B>) -> bool {
        shard.with_generations(|_, draining| draining.is_some())
    }

    /// Begins a rotation, checking the hook sees exactly the installed id.
    fn begin(shard: &Shard) -> Option<u64> {
        let mut logged = None;
        let id = shard.begin_rotation(fresh_filter(), |id| logged = Some(id));
        assert_eq!(logged, id, "the hook runs once, with the new generation id");
        id
    }

    /// Completes a rotation, checking the hook sees the dropped id.
    fn complete(shard: &Shard) -> bool {
        let (mut logged, draining) = (None, shard.generation_id().checked_sub(1));
        let completed = shard.complete_rotation(|dropped| logged = Some(dropped));
        assert_eq!(logged, draining.filter(|_| completed), "the hook sees the dropped id");
        completed
    }

    #[test]
    fn insert_then_contains() {
        let shard = Shard::new(fresh_filter());
        insert(&shard, b"item");
        assert!(shard.contains(b"item"));
        assert!(!shard.contains(b"other"));
        assert_eq!(shard.generation_id(), 0);
        assert!(!is_rotating(&shard));
    }

    #[test]
    fn draining_generation_keeps_answering() {
        let shard = Shard::new(fresh_filter());
        for i in 0..100 {
            insert(&shard, format!("old-{i}").as_bytes());
        }
        assert_eq!(begin(&shard), Some(1));
        assert!(is_rotating(&shard));
        // Old items still answer via the draining generation…
        for i in 0..100 {
            assert!(shard.contains(format!("old-{i}").as_bytes()));
        }
        // …and new inserts land in the re-keyed active generation.
        insert(&shard, b"new-item");
        assert!(shard.contains(b"new-item"));

        // Rebuild: the application replays its items, then completes.
        for i in 0..100 {
            insert(&shard, format!("old-{i}").as_bytes());
        }
        assert!(complete(&shard));
        for i in 0..100 {
            assert!(shard.contains(format!("old-{i}").as_bytes()));
        }
        assert!(shard.contains(b"new-item"));
        assert!(!is_rotating(&shard));
    }

    #[test]
    fn second_rotation_refused_while_draining() {
        let shard = Shard::new(fresh_filter());
        assert_eq!(begin(&shard), Some(1));
        assert_eq!(begin(&shard), None);
        assert!(complete(&shard));
        assert!(!complete(&shard), "nothing left to complete");
        assert_eq!(begin(&shard), Some(2));
        assert_eq!(shard.generation_id(), 2);
    }

    #[test]
    fn dropping_the_drained_generation_forgets_unreplayed_items() {
        let shard = Shard::new(fresh_filter());
        insert(&shard, b"pollution");
        begin(&shard);
        complete(&shard);
        // The polluted bits lived only in the dropped generation.
        assert!(!shard.contains(b"pollution"));
    }

    #[test]
    fn counting_backend_shards_support_removal_through_the_generation_pair() {
        let shard = Shard::new(ConcurrentCountingFilter::fresh(
            FilterParams::optimal(200, 0.01),
            Arc::new(KirschMitzenmacher::new(Murmur3_128)),
            &CountingOptions::default(),
        ));
        insert(&shard, b"victim");
        assert!(shard.contains(b"victim"));
        let removed = shard.with_generations(|active, _| active.filter.remove(b"victim"));
        assert!(removed);
        assert!(!shard.contains(b"victim"));
    }
}
