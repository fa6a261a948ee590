//! # evilbloom-filters
//!
//! The Bloom-filter family attacked and defended in *"The Power of Evil
//! Choices in Bloom Filters"* (Gerbet, Kumar & Lauradoux, DSN 2015),
//! implemented from scratch on top of `evilbloom-hashes`:
//!
//! * [`ConcurrentBloomFilter`] — the classic filter of Section 3, with a
//!   pluggable [`evilbloom_hashes::IndexStrategy`], full state introspection
//!   and lock-free `&self` insert/query over an [`AtomicBitVec`] (the
//!   experiments drive it from one thread, the `evilbloom-store` serving
//!   layer from many);
//! * [`BlockedBloomFilter`] — the cache-line blocked fast path: one hash
//!   pair, one 512-bit block per operation, with the corrected
//!   (block-load-aware) false-positive accounting from
//!   `evilbloom-analysis::blocked`;
//! * [`ConcurrentCountingFilter`] — the deletable variant (Fan et al.) with
//!   4-bit counters by default, complete with the overflow semantics
//!   ([`counting::OverflowPolicy`]) the deletion and overflow attacks abuse;
//! * [`ConcurrentScalableFilter`] — growing stack of filters (Almeida et
//!   al.), generic over its slice type;
//! * [`Dablooms`] — Bitly's scaling *and* counting combination (Section 6):
//!   the scalable stack with [`ConcurrentCountingFilter`] slices, built from
//!   a [`ScalableConfig`];
//! * [`cache_digest::CacheDigest`] — Squid's `5n + 7`-bit, `k = 4`, MD5-split
//!   digest (Section 7);
//! * [`hardened`] — the Section 8 countermeasures (worst-case parameters,
//!   keyed SipHash / HMAC indexes) as ready-made constructors;
//! * [`FilterParams`] — parameter derivation in the average case, the worst
//!   case, and "as deployed by Squid";
//! * [`stats`] — empirical false-positive measurement and fill trajectories
//!   used by the figure-reproduction experiments.
//!
//! ## Example
//!
//! ```
//! use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
//! use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
//!
//! let params = FilterParams::optimal(10_000, 0.01);
//! let seen = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
//! seen.insert(b"http://example.org/");
//! assert!(seen.contains(b"http://example.org/"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic_bitvec;
pub mod backend;
pub mod blocked;
#[cfg(test)]
mod bloom;
pub mod cache_digest;
pub mod concurrent;
pub mod concurrent_counting;
pub mod concurrent_scalable;
pub mod counting;
pub mod dablooms;
pub mod hardened;
pub mod params;
#[cfg(test)]
mod scalable;
pub mod stats;

pub use atomic_bitvec::AtomicBitVec;
pub use backend::{BackendKind, FilterBackend};
pub use blocked::{BlockedBloomFilter, BLOCK_BITS, BLOCK_WORDS};
pub use cache_digest::CacheDigest;
pub use concurrent::ConcurrentBloomFilter;
pub use concurrent_counting::{ConcurrentCountingFilter, CountingOptions};
pub use concurrent_scalable::{ConcurrentScalableFilter, ScalableOptions};
pub use dablooms::{Dablooms, ScalableConfig};
pub use hardened::{
    audit, hardened_filter, hardened_params, hardened_parts, FilterKey, HardeningAudit,
    HardeningLevel,
};
pub use params::{FilterParams, ParamDerivation};
pub use stats::{fill_trajectory, measure_false_positive_rate, FalsePositiveMeasurement};

#[cfg(test)]
mod proptests {
    //! Randomized property tests. The environment has no network access, so
    //! instead of `proptest` these drive the same properties from a seeded
    //! [`rand::rngs::StdRng`]: every case is deterministic and reproducible
    //! from the seed printed in the assertion message.

    use super::*;
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128, SaltedCrypto, Sha256};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CASES: u64 = 64;

    /// Draws a batch of random byte-string items: `count` in `1..max_items`,
    /// item length in `min_len..max_len`.
    fn random_items(
        rng: &mut StdRng,
        max_items: usize,
        min_len: usize,
        max_len: usize,
    ) -> Vec<Vec<u8>> {
        let count = rng.gen_range(1..max_items);
        (0..count)
            .map(|_| {
                let len = rng.gen_range(min_len..max_len);
                let mut item = vec![0u8; len];
                rng.fill(&mut item[..]);
                item
            })
            .collect()
    }

    /// A Bloom filter never reports a false negative, whatever is inserted.
    #[test]
    fn bloom_no_false_negatives() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let items = random_items(&mut rng, 200, 0, 64);
            let filter = ConcurrentBloomFilter::new(
                FilterParams::optimal(items.len().max(1) as u64, 0.01),
                KirschMitzenmacher::new(Murmur3_128),
            );
            for item in &items {
                filter.insert(item);
            }
            for item in &items {
                assert!(filter.contains(item), "seed {seed}: false negative");
            }
        }
    }

    /// The Hamming weight never exceeds k bits per insertion and never
    /// exceeds m.
    #[test]
    fn bloom_weight_bounds() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let items = random_items(&mut rng, 100, 1, 32);
            let params = FilterParams::explicit(512, 3, 64);
            let filter = ConcurrentBloomFilter::new(params, SaltedCrypto::new(Box::new(Sha256)));
            for item in &items {
                filter.insert(item);
            }
            assert!(filter.hamming_weight() <= (items.len() as u64) * 3, "seed {seed}");
            assert!(filter.hamming_weight() <= 512, "seed {seed}");
        }
    }

    /// Counting filters delete cleanly: inserting a batch and removing it in
    /// reverse order leaves an empty filter (absent counter overflow).
    #[test]
    fn counting_insert_delete_symmetry() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let items = random_items(&mut rng, 50, 1, 32);
            let params = FilterParams::optimal(128, 0.01);
            let filter =
                ConcurrentCountingFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
            for item in &items {
                filter.insert(item);
            }
            // Counters frozen at their maximum can never be decremented, so
            // the symmetry only holds when no cell saturated.
            if filter.saturated_cells() == 0 {
                for item in items.iter().rev() {
                    filter.remove(item);
                }
                assert_eq!(filter.occupied_cells(), 0, "seed {seed}");
            }
        }
    }

    /// Scalable filters never report false negatives either, no matter how
    /// many slices the load spreads over, whichever slice type they stack.
    #[test]
    fn scalable_no_false_negatives() {
        fn check<S: FilterBackend>(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let count = rng.gen_range(1usize..400);
            let filter = ConcurrentScalableFilter::<S>::with_shared_strategy(
                FilterParams::optimal(50, 0.02),
                std::sync::Arc::new(KirschMitzenmacher::new(Murmur3_128)),
                ScalableOptions { tightening_ratio: 0.9 },
            );
            let items: Vec<String> = (0..count).map(|i| format!("item-{seed}-{i}")).collect();
            for item in &items {
                filter.insert(item.as_bytes());
            }
            for item in &items {
                assert!(filter.contains(item.as_bytes()), "{} seed {seed}: {item}", S::KIND);
            }
        }
        for seed in 0..CASES {
            check::<ConcurrentBloomFilter>(seed);
            check::<ConcurrentCountingFilter>(seed);
        }
    }

    /// The parameter solver always meets (or beats) the requested
    /// false-positive target.
    #[test]
    fn params_meet_target() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(1u64..100_000);
            let exponent = rng.gen_range(2u32..24);
            let target = 2f64.powi(-(exponent as i32));
            let params = FilterParams::optimal(capacity, target);
            assert!(
                params.expected_fpp() <= target * 1.1,
                "seed {seed}: capacity {capacity} target {target}"
            );
            assert!(params.k >= 1, "seed {seed}");
        }
    }
}
