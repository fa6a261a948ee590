//! Raw digest throughput of every hash primitive (supporting data for
//! Table 2 and the countermeasure discussion).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use evilbloom_hashes::{
    all_crypto_hashes, siphash24, Hasher64, Murmur2_32, Murmur3_128, Murmur3_32, SipKey,
};
use std::hint::black_box;

fn bench_hashes(c: &mut Criterion) {
    let data = vec![0x5au8; 64];
    let mut group = c.benchmark_group("hash_throughput_64B");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.throughput(Throughput::Bytes(data.len() as u64));

    let fast: [&dyn Hasher64; 3] = [&Murmur2_32, &Murmur3_32, &Murmur3_128];
    for hasher in fast {
        group.bench_function(hasher.name(), |b| b.iter(|| hasher.hash(black_box(&data))));
    }
    for hash in all_crypto_hashes() {
        group.bench_function(hash.name(), |b| b.iter(|| hash.digest(black_box(&data))));
    }
    group.bench_function("SipHash-2-4", |b| {
        let key = SipKey::new(1, 2);
        b.iter(|| siphash24(key, black_box(&data)))
    });
    group.finish();
}

criterion_group!(benches, bench_hashes);
criterion_main!(benches);
