//! Randomized property tests for the blocked layout (a
//! `ConcurrentBloomFilter` over `BlockedKm`), the double-hashing strategy
//! and the batch APIs. The environment has no network access, so
//! instead of `proptest` these drive the properties from a seeded
//! `StdRng` — every case is reproducible from the seed in the message.

use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
use evilbloom_hashes::double::km_indexes_from_pair;
use evilbloom_hashes::{
    BlockedKm, HashStrategy, Hasher64, IndexStrategy, KeyedPair, KirschMitzenmacher, Murmur128Pair,
    Murmur3_128, SipHash24, SipKey, BLOCK_BITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// A filter on the blocked layout: `params` rounded up to whole blocks.
fn blocked<S: HashStrategy + 'static>(params: FilterParams, pair: S) -> ConcurrentBloomFilter {
    ConcurrentBloomFilter::new(params.rounded_to_blocks(), BlockedKm::new(pair))
}

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
        let plain = blocked(params, Murmur128Pair);
        let keyed =
            blocked(params, KeyedPair::new(Box::new(SipHash24::new(SipKey::new(seed, !seed)))));
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
/// on the blocked and the classic layout alike.
#[test]
fn batch_calls_are_bit_identical_to_loops() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = random_items(&mut rng, 200, 48);
        let probes = random_items(&mut rng, 100, 48);
        let params = FilterParams::explicit(1 << 13, rng.gen_range(1..9), items.len() as u64);
        let layouts: [fn(FilterParams) -> ConcurrentBloomFilter; 2] = [
            |params| blocked(params, Murmur128Pair),
            |params| ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128)),
        ];
        for layout in layouts {
            let (one_by_one, batched) = (layout(params), layout(params));
            let mut fresh_loop = 0u64;
            for item in &items {
                fresh_loop += u64::from(one_by_one.insert(item));
            }
            let name = one_by_one.strategy_name();
            assert_eq!(batched.insert_batch(&items), fresh_loop, "{name} seed {seed}");
            assert_eq!(batched.snapshot_words(), one_by_one.snapshot_words(), "{name} seed {seed}");
            assert_eq!(batched.inserted(), one_by_one.inserted(), "{name} seed {seed}");
            let answers = batched.query_batch(&probes);
            for (probe, answer) in probes.iter().zip(&answers) {
                assert_eq!(*answer, one_by_one.contains(probe), "{name} seed {seed}");
            }
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
        let filter = blocked(FilterParams::explicit(m, k, n), Murmur128Pair);
        for i in 0..n {
            filter.insert(format!("member-{seed}-{i}").as_bytes());
        }
        let corrected =
            evilbloom_analysis::blocked::blocked_false_positive(filter.m(), n, k, BLOCK_BITS);
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
    let a = blocked(params, KeyedPair::new(Box::new(SipHash24::new(SipKey::new(1, 2)))));
    let b = blocked(params, KeyedPair::new(Box::new(SipHash24::new(SipKey::new(3, 4)))));
    let differing = (0..200)
        .filter(|i| {
            let item = format!("item-{i}");
            a.indexes(item.as_bytes()) != b.indexes(item.as_bytes())
        })
        .count();
    assert!(differing > 190, "only {differing}/200 items placed differently");
}
