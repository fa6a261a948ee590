//! # evilbloom-filters
//!
//! The Bloom-filter family attacked and defended in *"The Power of Evil
//! Choices in Bloom Filters"* (Gerbet, Kumar & Lauradoux, DSN 2015),
//! implemented from scratch on top of `evilbloom-hashes`:
//!
//! * [`ConcurrentBloomFilter`] — the one plain filter: the classic filter of
//!   Section 3, with a pluggable [`evilbloom_hashes::IndexStrategy`], full
//!   state introspection and lock-free `&self` insert/query over an
//!   [`AtomicBitVec`] (the experiments drive it from one thread, the
//!   `evilbloom-store` serving layer from many). The cache-line blocked
//!   layout is an index strategy over it, not a second filter type:
//!   [`evilbloom_hashes::BlockedKm`] confines an item's `k` bits to one
//!   512-bit block, [`FilterParams::rounded_to_blocks`] sizes the filter,
//!   and `evilbloom-analysis::blocked` gives its corrected
//!   (block-load-aware) false-positive rate;
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

/// The cache-line blocked layout: a [`ConcurrentBloomFilter`] over
/// [`evilbloom_hashes::BlockedKm`], sized by
/// [`FilterParams::rounded_to_blocks`].
#[cfg(test)]
mod blocked {
    mod tests {
        use crate::{ConcurrentBloomFilter, FilterParams};
        use evilbloom_analysis::blocked::blocked_false_positive;
        use evilbloom_hashes::{
            BlockedKm, HashStrategy, KeyedPair, Murmur128Pair, Murmur3_128, SipHash24, SipKey,
            BLOCK_BITS,
        };

        fn blocked<S: HashStrategy + 'static>(
            params: FilterParams,
            pair: S,
        ) -> ConcurrentBloomFilter {
            ConcurrentBloomFilter::new(params.rounded_to_blocks(), BlockedKm::new(pair))
        }

        fn filter(m: u64, k: u32, capacity: u64) -> ConcurrentBloomFilter {
            blocked(FilterParams::explicit(m, k, capacity), Murmur128Pair)
        }

        #[test]
        fn rounds_m_up_to_whole_blocks() {
            let f = filter(1000, 4, 100);
            assert_eq!(f.m(), 1024);
            assert_eq!(f.m() / BLOCK_BITS, 2);
            let exact = filter(2048, 4, 100);
            assert_eq!(exact.m(), 2048);
            assert_eq!(exact.m() / BLOCK_BITS, 4);
            assert_eq!(FilterParams::explicit(3200, 4, 100).rounded_to_blocks().m, 3584);
            assert_eq!(FilterParams::explicit(2, 1, 1).rounded_to_blocks().m, BLOCK_BITS);
        }

        #[test]
        fn no_false_negatives() {
            let f = blocked(FilterParams::optimal(2000, 0.01), Murmur128Pair);
            let items: Vec<String> =
                (0..2000).map(|i| format!("http://site{i}.example/")).collect();
            for item in &items {
                f.insert(item.as_bytes());
            }
            for item in &items {
                assert!(f.contains(item.as_bytes()), "false negative for {item}");
            }
        }

        #[test]
        fn insert_sets_exactly_k_distinct_bits_in_one_block() {
            let f = filter(1 << 16, 8, 1000);
            for i in 0..200 {
                let item = format!("item-{i}");
                let before = f.hamming_weight();
                let positions = f.indexes(item.as_bytes());
                let fresh = f.insert(item.as_bytes());
                // k pairwise-distinct positions, all in one block.
                let mut unique = positions.clone();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(unique.len(), 8, "offsets must be pairwise distinct");
                let block = positions[0] / BLOCK_BITS;
                assert!(positions.iter().all(|&p| p / BLOCK_BITS == block));
                assert_eq!(f.hamming_weight(), before + u64::from(fresh));
                assert!(positions.iter().all(|&p| f.is_set(p)));
            }
        }

        #[test]
        fn bit_positions_match_probed_bits() {
            let f = filter(1 << 14, 5, 100);
            f.insert(b"only-item");
            // Exactly the bits named by the indexes are set.
            let expected: std::collections::HashSet<u64> =
                f.indexes(b"only-item").into_iter().collect();
            for bit in 0..f.m() {
                assert_eq!(f.is_set(bit), expected.contains(&bit), "bit {bit}");
            }
        }

        #[test]
        fn batch_is_bit_identical_to_per_item_calls() {
            let items: Vec<String> = (0..500).map(|i| format!("item-{i}")).collect();
            let one_by_one = filter(1 << 14, 6, 500);
            let mut fresh_loop = 0u64;
            for item in &items {
                fresh_loop += u64::from(one_by_one.insert(item.as_bytes()));
            }
            let batched = filter(1 << 14, 6, 500);
            let fresh_batch = batched.insert_batch(&items);
            assert_eq!(fresh_batch, fresh_loop);
            assert_eq!(batched.snapshot_words(), one_by_one.snapshot_words());
            assert_eq!(batched.inserted(), one_by_one.inserted());

            let probes: Vec<String> =
                items.iter().cloned().chain((0..200).map(|i| format!("absent-{i}"))).collect();
            let batch_answers = batched.query_batch(&probes);
            for (probe, answer) in probes.iter().zip(&batch_answers) {
                assert_eq!(*answer, one_by_one.contains(probe.as_bytes()), "{probe}");
            }
        }

        #[test]
        fn corrected_fpp_tracks_observed_rate() {
            let f = filter(1 << 15, 5, 4000);
            for i in 0..4000 {
                f.insert(format!("member-{i}").as_bytes());
            }
            let predicted = blocked_false_positive(f.m(), f.inserted(), f.k(), BLOCK_BITS);
            let probes = 100_000;
            let fp =
                (0..probes).filter(|i| f.contains(format!("non-member-{i}").as_bytes())).count();
            let observed = fp as f64 / probes as f64;
            assert!(observed < predicted * 2.0, "observed {observed} predicted {predicted}");
            assert!(observed > predicted / 2.0, "observed {observed} predicted {predicted}");
            // And the corrected prediction exceeds the naive unblocked formula.
            let naive = evilbloom_analysis::false_positive::false_positive_exact(f.m(), 4000, 5);
            assert!(predicted > naive);
        }

        #[test]
        fn seeded_and_keyed_sources_work() {
            let params = FilterParams::optimal(500, 0.01);
            let plain = blocked(params, Murmur3_128);
            let keyed =
                blocked(params, KeyedPair::new(Box::new(SipHash24::new(SipKey::new(7, 9)))));
            for i in 0..500 {
                let item = format!("x{i}");
                plain.insert(item.as_bytes());
                keyed.insert(item.as_bytes());
            }
            for i in 0..500 {
                let item = format!("x{i}");
                assert!(plain.contains(item.as_bytes()));
                assert!(keyed.contains(item.as_bytes()));
            }
            // Different pair sources place items differently.
            assert_ne!(plain.indexes(b"x0"), keyed.indexes(b"x0"));
        }

        #[test]
        #[should_panic(expected = "exceeds the 512-bit block")]
        fn oversized_k_rejected() {
            filter(1 << 14, 513, 10).insert(b"x");
        }
    }
}
