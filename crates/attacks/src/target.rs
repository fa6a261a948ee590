//! The adversary's view of a filter.
//!
//! The paper assumes the filter implementation is public and its state is
//! known (fully or partially) to the adversary. [`TargetFilter`] captures
//! exactly the information every attack needs: the geometry `(m, k)`, the
//! index derivation, and which bits/cells are currently set.

use evilbloom_filters::{CacheDigest, ConcurrentBloomFilter, ConcurrentCountingFilter};

/// Read-only adversarial view of a Bloom-filter-like structure.
pub trait TargetFilter {
    /// Number of bits / cells in the filter.
    fn m(&self) -> u64;

    /// Number of indexes per item.
    fn k(&self) -> u32;

    /// The indexes an item maps to — the adversary can compute this offline
    /// because the index derivation is public and unkeyed.
    fn indexes_of(&self, item: &[u8]) -> Vec<u64>;

    /// Whether the bit / cell at `index` is currently set (non-zero).
    fn is_set(&self, index: u64) -> bool;

    /// Hamming weight (number of set bits / non-zero cells).
    fn weight(&self) -> u64 {
        (0..self.m()).filter(|&i| self.is_set(i)).count() as u64
    }

    /// Fill ratio `weight / m`.
    fn fill_ratio(&self) -> f64 {
        self.weight() as f64 / self.m() as f64
    }
}

/// Covers every index strategy, the cache-line blocked layout
/// ([`evilbloom_hashes::BlockedKm`]) included: with a predictable pair source
/// the adversary computes block and in-block offsets offline and every engine
/// in this crate applies unchanged — confinement to one block is a
/// performance trade, not a defence.
impl TargetFilter for ConcurrentBloomFilter {
    fn m(&self) -> u64 {
        ConcurrentBloomFilter::m(self)
    }

    fn k(&self) -> u32 {
        ConcurrentBloomFilter::k(self)
    }

    fn indexes_of(&self, item: &[u8]) -> Vec<u64> {
        self.indexes(item)
    }

    fn is_set(&self, index: u64) -> bool {
        ConcurrentBloomFilter::is_set(self, index)
    }

    fn weight(&self) -> u64 {
        self.hamming_weight()
    }
}

impl TargetFilter for ConcurrentCountingFilter {
    fn m(&self) -> u64 {
        ConcurrentCountingFilter::m(self)
    }

    fn k(&self) -> u32 {
        ConcurrentCountingFilter::k(self)
    }

    fn indexes_of(&self, item: &[u8]) -> Vec<u64> {
        self.indexes(item)
    }

    fn is_set(&self, index: u64) -> bool {
        self.counter(index) > 0
    }

    fn weight(&self) -> u64 {
        self.occupied_cells()
    }
}

impl TargetFilter for CacheDigest {
    fn m(&self) -> u64 {
        self.size_bits()
    }

    fn k(&self) -> u32 {
        evilbloom_filters::cache_digest::SQUID_HASH_COUNT
    }

    fn indexes_of(&self, item: &[u8]) -> Vec<u64> {
        // Cache-digest keys are "METHOD URL"; the adversary controls the URL
        // part and issues GET requests, so raw items here are full keys.
        use evilbloom_hashes::IndexStrategy;
        evilbloom_hashes::Md5Split.indexes(item, self.k(), self.m())
    }

    fn is_set(&self, index: u64) -> bool {
        self.filter().is_set(index)
    }

    fn weight(&self) -> u64 {
        self.filter().hamming_weight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_filters::FilterParams;
    use evilbloom_hashes::{BlockedKm, KirschMitzenmacher, Murmur128Pair, Murmur3_128, BLOCK_BITS};

    /// A plain filter on the cache-line blocked layout.
    fn blocked_filter(params: FilterParams) -> ConcurrentBloomFilter {
        ConcurrentBloomFilter::new(params.rounded_to_blocks(), BlockedKm::new(Murmur128Pair))
    }

    #[test]
    fn bloom_filter_view_is_consistent() {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::explicit(256, 3, 20),
            KirschMitzenmacher::new(Murmur3_128),
        );
        filter.insert(b"item");
        let view: &dyn TargetFilter = &filter;
        assert_eq!(view.m(), 256);
        assert_eq!(view.k(), 3);
        assert_eq!(view.weight(), filter.hamming_weight());
        assert_eq!(view.indexes_of(b"item"), filter.indexes(b"item"));
        assert!(view.indexes_of(b"item").iter().all(|&i| view.is_set(i)));
        assert!(view.fill_ratio() > 0.0);
    }

    #[test]
    fn blocked_filter_view_is_consistent_and_attackable() {
        let filter = blocked_filter(FilterParams::explicit(2048, 4, 100));
        filter.insert(b"item");
        let view: &dyn TargetFilter = &filter;
        assert_eq!(view.m(), 2048);
        assert_eq!(view.k(), 4);
        assert_eq!(view.weight(), filter.hamming_weight());
        assert_eq!(view.indexes_of(b"item"), filter.indexes(b"item"));
        let block = view.indexes_of(b"item")[0] / BLOCK_BITS;
        assert!(view.indexes_of(b"item").iter().all(|&i| i / BLOCK_BITS == block));
        assert!(view.indexes_of(b"item").iter().all(|&i| view.is_set(i)));
    }

    #[test]
    fn pollution_engine_attacks_blocked_filter_unchanged() {
        use evilbloom_urlgen::UrlGenerator;

        let filter = blocked_filter(FilterParams::explicit(4096, 4, 800));
        let plan = crate::pollution::craft_polluting_items(
            &filter,
            &UrlGenerator::new("blocked-pollution"),
            100,
            5_000_000,
        );
        assert_eq!(plan.items.len(), 100);
        for item in &plan.items {
            let fresh = filter.insert(item.as_bytes());
            assert_eq!(fresh, 4, "every crafted item must set exactly k new bits");
        }
        assert_eq!(filter.hamming_weight(), 400);
    }

    #[test]
    fn counting_filter_view_reports_occupied_cells() {
        let filter = ConcurrentCountingFilter::new(
            FilterParams::explicit(128, 4, 10),
            KirschMitzenmacher::new(Murmur3_128),
        );
        filter.insert(b"x");
        let view: &dyn TargetFilter = &filter;
        assert_eq!(view.weight(), filter.occupied_cells());
        assert!(view.indexes_of(b"x").iter().all(|&i| view.is_set(i)));
    }

    #[test]
    fn cache_digest_view_matches_squid_indexing() {
        let digest = CacheDigest::build(["http://a.example/", "http://b.example/"]);
        let view: &dyn TargetFilter = &digest;
        assert_eq!(view.k(), 4);
        assert_eq!(view.m(), digest.size_bits());
        let key = evilbloom_filters::cache_digest::digest_key("GET", "http://a.example/");
        assert_eq!(view.indexes_of(&key), digest.indexes_of("GET", "http://a.example/"));
        assert!(view.indexes_of(&key).iter().all(|&i| view.is_set(i)));
    }
}
