//! Seeded multi-threaded property tests for the concurrent filter and the
//! sharded store.
//!
//! The environment has no network access, so instead of `proptest` these
//! drive the properties from a seeded `StdRng`: every case is deterministic
//! and reproducible from the seed printed in the assertion message.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
use evilbloom_hashes::{IndexStrategy, KirschMitzenmacher, Murmur3_128};
use evilbloom_store::{BloomStore, StoreConfig};

const CASES: u64 = 24;
const WORKERS: usize = 4;

/// Draws a batch of random byte-string items.
fn random_items(rng: &mut StdRng, max_items: usize, max_len: usize) -> Vec<Vec<u8>> {
    let count = rng.gen_range(1..max_items);
    (0..count)
        .map(|_| {
            let len = rng.gen_range(1..max_len);
            let mut item = vec![0u8; len];
            rng.fill(&mut item[..]);
            item
        })
        .collect()
}

/// After the same insert set, a concurrently filled filter holds exactly the
/// union of the items' indexes — the state a sequential fill reaches (Bloom
/// insertion is a commutative monotone OR — thread interleaving cannot
/// change the final state) — and it never reports a false negative. Every
/// set bit is credited to exactly one insert call: the per-call fresh-bit
/// returns sum to the final weight.
#[test]
fn concurrent_filter_equals_sequential_after_parallel_inserts() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = random_items(&mut rng, 400, 48);
        let params = FilterParams::optimal(items.len() as u64, 0.01);
        let strategy: Arc<dyn IndexStrategy> = Arc::new(KirschMitzenmacher::new(Murmur3_128));

        let concurrent = ConcurrentBloomFilter::with_shared_strategy(params, Arc::clone(&strategy));
        let fresh = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let (concurrent, items, fresh) = (&concurrent, &items, &fresh);
                scope.spawn(move || {
                    // Interleaved striping: workers contend on neighbouring
                    // items' bits.
                    for item in items.iter().skip(worker).step_by(WORKERS) {
                        fresh.fetch_add(u64::from(concurrent.insert(item)), Ordering::Relaxed);
                    }
                });
            }
        });

        let model: BTreeSet<u64> =
            items.iter().flat_map(|item| strategy.indexes(item, params.k, params.m)).collect();
        let support: BTreeSet<u64> = (0..params.m).filter(|&i| concurrent.is_set(i)).collect();
        assert_eq!(support, model, "seed {seed}: concurrent filter diverged from the model");
        assert_eq!(concurrent.inserted(), items.len() as u64, "seed {seed}");
        assert_eq!(
            fresh.load(Ordering::Relaxed),
            model.len() as u64,
            "seed {seed}: a bit was credited to no insert, or to two"
        );
        assert_eq!(
            concurrent.hamming_weight_approx(),
            model.len() as u64,
            "seed {seed}: running ones-counter drifted"
        );
        for item in &items {
            assert!(concurrent.contains(item), "seed {seed}: false negative");
        }
    }
}

/// The store never reports a false negative, under any shard count, any
/// hardening posture and concurrent insertion.
#[test]
fn store_has_no_false_negatives_under_concurrent_load() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let shards = 1usize << rng.gen_range(0u32..4);
        let items = random_items(&mut rng, 600, 40);
        let config = if rng.gen_range(0..2) == 0 {
            StoreConfig::hardened(shards, items.len().max(8) as u64, 0.01)
        } else {
            StoreConfig::unhardened(shards, items.len().max(8) as u64, 0.01)
        };
        let store = BloomStore::builder().config(config).build_with_rng(&mut rng);

        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let store = &store;
                let items = &items;
                scope.spawn(move || {
                    for item in items.iter().skip(worker).step_by(WORKERS) {
                        store.insert(item);
                    }
                });
            }
        });

        for item in &items {
            assert!(store.contains(item), "seed {seed} shards {shards}: false negative");
        }
        let answers = store.query_batch(&items);
        assert!(answers.iter().all(|&a| a), "seed {seed} shards {shards}: batch false negative");
        assert_eq!(store.stats().total_inserted, items.len() as u64, "seed {seed}");
    }
}

/// A single-shard store over the same key and parameters is bit-for-bit the
/// hardened filter: sharding adds routing, not semantics.
#[test]
fn single_shard_store_matches_hardened_filter() {
    use evilbloom_filters::{hardened_filter, FilterKey, HardeningLevel};

    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let items = random_items(&mut rng, 300, 32);
        let capacity = items.len() as u64;

        // Drive the store's internal key generation with a cloned RNG so we
        // can reconstruct the shard key for the reference filter. new()
        // draws the routing SipKey (two u64s) first, then the shard key.
        let mut store_rng = StdRng::seed_from_u64(3000 + seed);
        let store = BloomStore::builder()
            .shards(1)
            .capacity(capacity)
            .target_fpp(0.01)
            .hardened()
            .build_with_rng(&mut store_rng);

        let mut key_rng = StdRng::seed_from_u64(3000 + seed);
        let _routing = (key_rng.next_u64(), key_rng.next_u64());
        let key = FilterKey::generate(&mut key_rng);
        let reference = hardened_filter(capacity, 0.01, HardeningLevel::KeyedSipHash, &key);

        for item in &items {
            store.insert(item);
            reference.insert(item);
        }
        let snapshot = store.query_batch(&items).iter().all(|&a| a);
        assert!(snapshot, "seed {seed}: store lost an item");
        for item in &items {
            assert_eq!(store.contains(item), reference.contains(item), "seed {seed}");
        }
        // Every probe (member or not) gets the same answer: same key, same
        // params, same strategy — the store is the filter.
        for probe in 0..200u64 {
            let probe = format!("probe-{probe}");
            assert_eq!(
                store.contains(probe.as_bytes()),
                reference.contains(probe.as_bytes()),
                "seed {seed}: {probe}"
            );
        }
    }
}

/// Key rotation: while a shard rebuilds under a new key, queries for
/// pre-rotation items keep answering out of the draining generation, new
/// inserts land in the re-keyed generation, and completing the rotation
/// after a replay loses nothing.
#[test]
fn rotation_keeps_answering_during_rebuild() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let store = BloomStore::builder()
            .shards(4)
            .capacity(2_000)
            .target_fpp(0.01)
            .hardened()
            .build_with_rng(&mut rng);
        let old_items: Vec<String> = (0..500).map(|i| format!("old-{seed}-{i}")).collect();
        store.insert_batch(&old_items);

        for shard in 0..store.shard_count() {
            assert_eq!(store.begin_rotation(shard, &mut rng), Some(1), "seed {seed}");
        }

        // Rebuild runs in a background thread (replaying the source of
        // truth) while a foreground reader keeps querying the old items.
        std::thread::scope(|scope| {
            let store = &store;
            let old_items = &old_items;
            let rebuild = scope.spawn(move || {
                store.insert_batch(old_items);
            });
            for item in old_items {
                assert!(
                    store.contains(item.as_bytes()),
                    "seed {seed}: old generation stopped answering during rebuild"
                );
            }
            rebuild.join().expect("rebuild thread");
        });

        // New traffic during/after rotation lands in the new generation.
        store.insert(format!("new-{seed}").as_bytes());

        for shard in 0..store.shard_count() {
            assert!(store.complete_rotation(shard), "seed {seed}");
            assert_eq!(store.generation_id(shard), 1);
        }
        for item in &old_items {
            assert!(store.contains(item.as_bytes()), "seed {seed}: lost after completion");
        }
        assert!(store.contains(format!("new-{seed}").as_bytes()), "seed {seed}");
    }
}
