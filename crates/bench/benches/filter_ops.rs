//! Baseline filter operation cost: insert and query across the filter
//! variants and index strategies (supports the countermeasure trade-off
//! discussion of Section 8).

use criterion::{criterion_group, criterion_main, Criterion};
use evilbloom_bench::ITEM_32B;
use evilbloom_filters::{
    hardened_filter, ConcurrentBloomFilter, ConcurrentCountingFilter, FilterKey, FilterParams,
    HardeningLevel,
};
use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128, SaltedCrypto, Sha256};
use std::hint::black_box;

fn bench_filter_ops(c: &mut Criterion) {
    let params = FilterParams::optimal(100_000, 0.01);
    let mut group = c.benchmark_group("filter_ops");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(700));
    group.warm_up_time(std::time::Duration::from_millis(200));

    group.bench_function("bloom_murmur_km/query", |b| {
        let filter = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        filter.insert(&ITEM_32B);
        b.iter(|| filter.contains(black_box(&ITEM_32B)))
    });
    group.bench_function("bloom_salted_sha256/query", |b| {
        let filter = ConcurrentBloomFilter::new(params, SaltedCrypto::new(Box::new(Sha256)));
        filter.insert(&ITEM_32B);
        b.iter(|| filter.contains(black_box(&ITEM_32B)))
    });
    group.bench_function("bloom_keyed_siphash/query", |b| {
        let filter = hardened_filter(
            100_000,
            0.01,
            HardeningLevel::KeyedSipHash,
            &FilterKey::from_bytes([1; 32]),
        );
        b.iter(|| filter.contains(black_box(&ITEM_32B)))
    });
    group.bench_function("bloom_keyed_hmac/query", |b| {
        let filter = hardened_filter(
            100_000,
            0.01,
            HardeningLevel::KeyedHmac,
            &FilterKey::from_bytes([1; 32]),
        );
        b.iter(|| filter.contains(black_box(&ITEM_32B)))
    });
    group.bench_function("counting_murmur_km/insert_delete", |b| {
        let filter = ConcurrentCountingFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        b.iter(|| {
            filter.insert(black_box(&ITEM_32B));
            filter.remove(black_box(&ITEM_32B));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_filter_ops);
criterion_main!(benches);
