//! The cache-line blocked layout, end to end: the speed/accuracy trade
//! against the classic layout, the corrected false-positive analysis, and —
//! the paper's point — the pollution attack carrying over unchanged.
//!
//! Both layouts are the one plain filter, `ConcurrentBloomFilter`; only the
//! index strategy differs (`KirschMitzenmacher` over two Murmur3 calls, or
//! `BlockedKm` over one Murmur3 x64-128 pair), so the speed lines compare
//! layouts, not implementations.
//!
//! ```text
//! cargo run --release --example blocked_filter
//! ```

use std::time::{Duration, Instant};

use evilbloom::analysis::blocked::blocked_false_positive;
use evilbloom::attacks::pollution::craft_polluting_items;
use evilbloom::filters::{ConcurrentBloomFilter, FilterParams};
use evilbloom::hashes::{BlockedKm, KirschMitzenmacher, Murmur128Pair, Murmur3_128, BLOCK_BITS};
use evilbloom::urlgen::UrlGenerator;

/// Times a batch insert of `members`, then a batch query of `probes`;
/// returns both timings and the observed false-positive rate of the probes.
fn run(
    filter: &ConcurrentBloomFilter,
    members: &[String],
    probes: &[String],
) -> (Duration, Duration, f64) {
    let start = Instant::now();
    filter.insert_batch(members);
    let insert = start.elapsed();
    let start = Instant::now();
    let positives = filter.query_batch(probes).iter().filter(|&&hit| hit).count();
    (insert, start.elapsed(), positives as f64 / probes.len() as f64)
}

fn main() {
    let n = 200_000u64;
    let params = FilterParams::optimal(n, 0.01);
    println!("budget: {params}\n");

    // Same (m, k) budget, two layouts (the blocked one rounded up to whole
    // 512-bit blocks).
    let standard = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
    let blocked =
        ConcurrentBloomFilter::new(params.rounded_to_blocks(), BlockedKm::new(Murmur128Pair));
    let members: Vec<String> = (0..n).map(|i| format!("https://host{i}.example/{i}")).collect();
    let probes: Vec<String> = (0..n).map(|i| format!("https://absent{i}.example/{i}")).collect();

    let (standard_insert, standard_query, standard_fpp) = run(&standard, &members, &probes);
    let (blocked_insert, blocked_query, blocked_fpp) = run(&blocked, &members, &probes);
    println!("== speed (single thread, {n} batched ops) ==");
    for (op, standard, blocked) in
        [("insert", standard_insert, blocked_insert), ("query", standard_query, blocked_query)]
    {
        println!(
            "{op:<8} standard {standard:>8.0?}   blocked {blocked:>8.0?}   ({:.2}x)",
            standard.as_secs_f64() / blocked.as_secs_f64()
        );
    }

    println!("\n== accuracy: the corrected analysis ==");
    let naive = params.expected_fpp();
    let corrected = blocked_false_positive(blocked.m(), n, blocked.k(), BLOCK_BITS);
    println!("standard observed fpp  {standard_fpp:.5}  (designed {naive:.5})");
    println!(
        "blocked  observed fpp  {blocked_fpp:.5}  (naive formula {naive:.5}, corrected {corrected:.5})"
    );
    println!(
        "block-load variance costs a factor {:.2} in fpp — the price of one",
        corrected / naive
    );
    println!("cache line per op; the measured speedup above is what it buys.");

    // The blocked layout is not a hardened one: the pollution engine drives
    // it through the same TargetFilter view it uses everywhere.
    println!("\n== the attacks carry over (Section 4.1 on the blocked layout) ==");
    let victim = ConcurrentBloomFilter::new(
        FilterParams::explicit(3200, 4, 600).rounded_to_blocks(),
        BlockedKm::new(Murmur128Pair),
    );
    for i in 0..300 {
        victim.insert(format!("honest-{i}").as_bytes());
    }
    let before = victim.fill_ratio();
    let plan = craft_polluting_items(&victim, &UrlGenerator::new("evil"), 150, 10_000_000);
    for item in &plan.items {
        let fresh = victim.insert(item.as_bytes());
        assert_eq!(fresh, 4, "every crafted item sets exactly k fresh bits");
    }
    println!(
        "150 crafted insertions: fill {before:.3} -> {:.3}, predicted fpp {:.3} \
         (search cost: {:.1} candidates/item)",
        victim.fill_ratio(),
        plan.predicted_false_positive,
        plan.stats.attempts_per_accepted()
    );
    println!("hardening is the same as ever: a keyed pair source (evilbloom_hashes::KeyedPair).");
}
