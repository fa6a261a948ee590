//! Figure 3 — cost of mounting the chosen-insertion attack on the paper's
//! m=3200, k=4 filter: crafting and inserting the full 600-item pollution
//! plan versus inserting 600 honest items.

use criterion::{criterion_group, criterion_main, Criterion};
use evilbloom_attacks::craft_polluting_items;
use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
use evilbloom_urlgen::UrlGenerator;
use std::hint::black_box;

fn figure3_filter() -> ConcurrentBloomFilter {
    ConcurrentBloomFilter::new(
        FilterParams::explicit(3200, 4, 600),
        KirschMitzenmacher::new(Murmur3_128),
    )
}

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_chosen_insertion");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));

    group.bench_function("honest_600_insertions", |b| {
        b.iter(|| {
            let filter = figure3_filter();
            for i in 0..600u32 {
                filter.insert(format!("honest-{i}").as_bytes());
            }
            black_box(filter.current_false_positive_probability())
        })
    });

    group.bench_function("adversarial_422_insertions", |b| {
        b.iter(|| {
            let filter = figure3_filter();
            let generator = UrlGenerator::new("fig3-bench");
            let plan = craft_polluting_items(&filter, &generator, 422, u64::MAX);
            for item in &plan.items {
                filter.insert(item.as_bytes());
            }
            black_box(filter.current_false_positive_probability())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
