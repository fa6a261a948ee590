//! Pooled read/write buffers shared by every reactor shard.
//!
//! Every connection needs a receive accumulator and a response buffer. On a
//! churning server that is two heap allocations (plus regrowth) per accepted
//! socket; with thousands of concurrent connections it is also unbounded
//! retained capacity once a single large batch frame has inflated a buffer.
//! The pool recycles buffers across connections (a free list) and bounds
//! what recycling can retain (high-water trimming): a buffer grown past the
//! per-buffer high-water mark is shrunk back on check-in, and the free list
//! itself is capped.

use std::sync::{Arc, Mutex};

use evilbloom_metrics::Counter;

/// Default capacity a pooled buffer starts with — enough for typical
/// single-op traffic without regrowth.
pub(crate) const DEFAULT_BUFFER_CAPACITY: usize = 16 * 1024;
/// Default per-buffer high-water mark: a buffer inflated past this by a
/// large batch frame is trimmed back on check-in instead of pinning the
/// capacity forever.
pub(crate) const DEFAULT_TRIM_CAPACITY: usize = 256 * 1024;
/// Default cap on buffers the free list retains.
pub(crate) const DEFAULT_MAX_IDLE: usize = 64;

/// A free list of recycled `Vec<u8>` buffers with high-water trimming.
#[derive(Debug)]
pub(crate) struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    max_idle: usize,
    trim_capacity: usize,
    /// Checkouts served from the free list / by fresh allocation, and
    /// check-ins that trimmed. Unregistered no-op counters by default;
    /// `Server::spawn` wires the registered handles in.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    trims: Arc<Counter>,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new(DEFAULT_MAX_IDLE, DEFAULT_TRIM_CAPACITY)
    }
}

impl BufferPool {
    /// A pool retaining at most `max_idle` buffers, each trimmed back to
    /// `trim_capacity` when a workload inflated it further.
    pub(crate) fn new(max_idle: usize, trim_capacity: usize) -> Self {
        BufferPool {
            free: Mutex::new(Vec::new()),
            max_idle,
            trim_capacity,
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            trims: Arc::new(Counter::new()),
        }
    }

    /// The default-sized pool reporting into the given registered counters.
    pub(crate) fn instrumented(
        hits: Arc<Counter>,
        misses: Arc<Counter>,
        trims: Arc<Counter>,
    ) -> Self {
        BufferPool { hits, misses, trims, ..BufferPool::default() }
    }

    /// Checks a cleared buffer out of the pool (or allocates a fresh one on
    /// a cold pool).
    pub(crate) fn checkout(&self) -> Vec<u8> {
        let recycled = self.free.lock().expect("buffer pool poisoned").pop();
        match recycled {
            Some(buf) => {
                self.hits.inc();
                buf
            }
            None => {
                self.misses.inc();
                Vec::with_capacity(DEFAULT_BUFFER_CAPACITY)
            }
        }
    }

    /// Returns a buffer to the free list: cleared, trimmed back to the
    /// high-water mark if a large frame inflated it, dropped outright when
    /// the free list is full.
    pub(crate) fn checkin(&self, mut buf: Vec<u8>) {
        buf.clear();
        if buf.capacity() > self.trim_capacity {
            buf.shrink_to(self.trim_capacity);
            self.trims.inc();
        }
        let mut free = self.free.lock().expect("buffer pool poisoned");
        if free.len() < self.max_idle {
            free.push(buf);
        }
    }

    /// Buffers currently idle in the pool (test introspection).
    #[cfg(test)]
    pub(crate) fn idle(&self) -> usize {
        self.free.lock().expect("buffer pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_checked_in_buffers() {
        let pool = BufferPool::new(4, DEFAULT_TRIM_CAPACITY);
        let mut buf = pool.checkout();
        buf.extend_from_slice(b"stale bytes");
        let capacity = buf.capacity();
        pool.checkin(buf);
        assert_eq!(pool.idle(), 1);

        let buf = pool.checkout();
        assert!(buf.is_empty(), "recycled buffers come back cleared");
        assert_eq!(buf.capacity(), capacity, "the allocation was recycled");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn high_water_trimming_bounds_retained_capacity() {
        let pool = BufferPool::new(4, 1024);
        let mut buf = pool.checkout();
        buf.resize(64 * 1024, 0); // a large batch frame inflated the buffer
        pool.checkin(buf);
        let buf = pool.checkout();
        assert!(
            buf.capacity() <= 2 * 1024,
            "capacity {} was not trimmed back to the high-water mark",
            buf.capacity()
        );
    }

    #[test]
    fn instrumented_pool_counts_hits_misses_and_trims() {
        let (hits, misses, trims) =
            (Arc::new(Counter::new()), Arc::new(Counter::new()), Arc::new(Counter::new()));
        let pool =
            BufferPool::instrumented(Arc::clone(&hits), Arc::clone(&misses), Arc::clone(&trims));
        let mut buf = pool.checkout(); // cold pool: miss
        buf.resize(DEFAULT_TRIM_CAPACITY * 2, 0);
        pool.checkin(buf); // inflated past the high-water mark: trim
        drop(pool.checkout()); // recycled: hit
        assert_eq!((hits.get(), misses.get(), trims.get()), (1, 1, 1));
    }

    #[test]
    fn free_list_is_capped() {
        let pool = BufferPool::new(2, 1024);
        for _ in 0..5 {
            pool.checkin(Vec::new());
        }
        assert_eq!(pool.idle(), 2, "buffers past the cap are dropped, not retained");
    }
}
