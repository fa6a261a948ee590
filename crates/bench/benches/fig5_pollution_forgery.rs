//! Figure 5 — cost of forging polluting URLs, as forged URLs per second for
//! filters tuned to the paper's four target false-positive probabilities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use evilbloom_attacks::craft_polluting_items;
use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
use evilbloom_hashes::{SaltedCrypto, Sha512};
use evilbloom_urlgen::UrlGenerator;
use std::hint::black_box;

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_polluting_urls");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(200));

    for exponent in [5i32, 10, 15, 20] {
        let params = FilterParams::optimal(20_000, 2f64.powi(-exponent));
        let filter = ConcurrentBloomFilter::new(params, SaltedCrypto::new(Box::new(Sha512)));
        let generator = UrlGenerator::new("fig5-bench");
        group.bench_with_input(
            BenchmarkId::new("forge_100_urls", format!("f=2^-{exponent}")),
            &exponent,
            |b, _| b.iter(|| black_box(craft_polluting_items(&filter, &generator, 100, u64::MAX))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
