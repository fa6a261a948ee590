//! Randomized property tests for the blocked filter, the double-hashing
//! strategy and the batch APIs. The environment has no network access, so
//! instead of `proptest` these drive the properties from a seeded
//! `StdRng` — every case is reproducible from the seed in the message.

use evilbloom_filters::{BlockedBloomFilter, ConcurrentBloomFilter, FilterParams};
use evilbloom_hashes::double::km_indexes_from_pair;
use evilbloom_hashes::{
    Hasher64, IndexStrategy, KeyedPair, KirschMitzenmacher, Murmur128Pair, Murmur3_128, SipHash24,
    SipKey,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

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

/// A blocked filter never reports a false negative, whatever pair source
/// drives it.
#[test]
fn blocked_no_false_negatives() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = random_items(&mut rng, 300, 64);
        let params = FilterParams::optimal(items.len().max(1) as u64, 0.01);
        let mut plain = BlockedBloomFilter::new(params, Murmur128Pair);
        let mut keyed = BlockedBloomFilter::new(
            params,
            KeyedPair::new(Box::new(SipHash24::new(SipKey::new(seed, !seed)))),
        );
        for item in &items {
            plain.insert(item);
            keyed.insert(item);
        }
        for item in &items {
            assert!(plain.contains(item), "seed {seed}: false negative (plain)");
            assert!(keyed.contains(item), "seed {seed}: false negative (keyed)");
        }
    }
}

/// Batch results are bit-identical to per-item calls — inserts and queries,
/// blocked and concurrent alike.
#[test]
fn batch_calls_are_bit_identical_to_loops() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = random_items(&mut rng, 200, 48);
        let probes = random_items(&mut rng, 100, 48);
        let params = FilterParams::explicit(1 << 13, rng.gen_range(1..9), items.len() as u64);

        let mut blocked_loop = BlockedBloomFilter::new(params, Murmur128Pair);
        let mut blocked_batch = BlockedBloomFilter::new(params, Murmur128Pair);
        let mut fresh_loop = 0u64;
        for item in &items {
            fresh_loop += u64::from(blocked_loop.insert(item));
        }
        assert_eq!(blocked_batch.insert_batch(&items), fresh_loop, "seed {seed}");
        assert_eq!(blocked_batch.hamming_weight(), blocked_loop.hamming_weight(), "seed {seed}");
        let answers = blocked_batch.query_batch(&probes);
        for (probe, answer) in probes.iter().zip(&answers) {
            assert_eq!(*answer, blocked_loop.contains(probe), "seed {seed}");
        }

        let concurrent_loop =
            ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        let concurrent_batch =
            ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        let mut fresh_loop = 0u64;
        for item in &items {
            fresh_loop += u64::from(concurrent_loop.insert(item));
        }
        assert_eq!(concurrent_batch.insert_batch(&items), fresh_loop, "seed {seed}");
        assert_eq!(
            concurrent_batch.snapshot_words(),
            concurrent_loop.snapshot_words(),
            "seed {seed}"
        );
        assert_eq!(concurrent_batch.inserted(), concurrent_loop.inserted(), "seed {seed}");
        let answers = concurrent_batch.query_batch(&probes);
        for (probe, answer) in probes.iter().zip(&answers) {
            assert_eq!(*answer, concurrent_loop.contains(probe), "seed {seed}");
        }
    }
}

/// The classic strategy is the one Kirsch–Mitzenmacher loop over the
/// seed-0/seed-1 pair of its base hash, for every geometry.
#[test]
fn km_pair_strategy_matches_classic_over_random_geometries() {
    let classic = KirschMitzenmacher::new(Murmur3_128);
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(2u64..1 << 22);
        let k = rng.gen_range(1u32..12);
        let item = random_items(&mut rng, 2, 64).remove(0);
        let pair = (Murmur3_128.hash_with_seed(&item, 0), Murmur3_128.hash_with_seed(&item, 1));
        let expect: Vec<u64> = km_indexes_from_pair(pair, k, m).collect();
        assert_eq!(classic.indexes(&item, k, m), expect, "seed {seed} m={m} k={k}");
        // And the buffered path agrees with the allocating path.
        let mut buffered = Vec::new();
        classic.indexes_into(&item, k, m, &mut buffered);
        assert_eq!(buffered, expect, "seed {seed}");
    }
}

/// Observed false-positive rate of a loaded blocked filter stays within 2x
/// of the corrected (Poisson-mixture) analysis bound — and the corrected
/// bound is what's accurate: the naive unblocked formula undershoots.
#[test]
fn blocked_observed_fpp_within_2x_of_corrected_bound() {
    for seed in 0..4u64 {
        let k = 4 + (seed as u32 % 3); // k in 4..=6
        let m = 1u64 << 15;
        let n = 3_500 + 500 * seed;
        let mut filter = BlockedBloomFilter::new(FilterParams::explicit(m, k, n), Murmur128Pair);
        for i in 0..n {
            filter.insert(format!("member-{seed}-{i}").as_bytes());
        }
        let corrected = evilbloom_analysis::blocked::blocked_false_positive(
            filter.m(),
            n,
            k,
            evilbloom_filters::BLOCK_BITS,
        );
        let probes = 150_000u64;
        let false_positives = (0..probes)
            .filter(|i| filter.contains(format!("absent-{seed}-{i}").as_bytes()))
            .count() as f64;
        let observed = false_positives / probes as f64;
        assert!(
            observed <= corrected * 2.0,
            "seed {seed}: observed {observed} above 2x corrected bound {corrected}"
        );
        assert!(
            observed >= corrected / 2.0,
            "seed {seed}: observed {observed} below half the corrected bound {corrected} — \
             the bound is not tight"
        );
    }
}

/// Keyed pair sources place items unpredictably: two keys agree on almost
/// nothing, and an unkeyed observer cannot reproduce the layout.
#[test]
fn keyed_blocked_filters_disagree_across_keys() {
    let params = FilterParams::explicit(1 << 14, 4, 200);
    let a = BlockedBloomFilter::new(
        params,
        KeyedPair::new(Box::new(SipHash24::new(SipKey::new(1, 2)))),
    );
    let b = BlockedBloomFilter::new(
        params,
        KeyedPair::new(Box::new(SipHash24::new(SipKey::new(3, 4)))),
    );
    let differing = (0..200)
        .filter(|i| {
            let item = format!("item-{i}");
            a.bit_positions(item.as_bytes()) != b.bit_positions(item.as_bytes())
        })
        .count();
    assert!(differing > 190, "only {differing}/200 items placed differently");
}
