//! Figure 8 — Dablooms under pollution: inserting a slice worth of crafted
//! URLs versus honest URLs into a scaling-counting filter.

use criterion::{criterion_group, criterion_main, Criterion};
use evilbloom_attacks::craft_polluting_items;
use evilbloom_filters::{Dablooms, ScalableConfig};
use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
use evilbloom_urlgen::UrlGenerator;
use std::hint::black_box;

fn small_dablooms() -> Dablooms {
    Dablooms::new(
        ScalableConfig { slice_capacity: 500, base_fpp: 0.01, tightening_ratio: 0.9 },
        KirschMitzenmacher::new(Murmur3_128),
    )
}

fn bench_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_dablooms_pollution");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));

    group.bench_function("honest_slice_load", |b| {
        b.iter(|| {
            let filter = small_dablooms();
            for i in 0..500u32 {
                filter.insert(format!("honest-{i}").as_bytes());
            }
            black_box(filter.current_false_positive_probability())
        })
    });

    group.bench_function("polluted_slice_load", |b| {
        b.iter(|| {
            let filter = small_dablooms();
            let slice = filter.active_slice();
            let plan =
                craft_polluting_items(&*slice, &UrlGenerator::new("fig8-bench"), 500, u64::MAX);
            for url in &plan.items {
                filter.insert(url.as_bytes());
            }
            black_box(filter.current_false_positive_probability())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
