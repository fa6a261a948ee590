//! The cache-line blocked fast path, end to end: the speed/accuracy trade
//! against the classic filter, the corrected false-positive analysis, and —
//! the paper's point — the pollution attack carrying over unchanged.
//!
//! ```text
//! cargo run --release --example blocked_filter
//! ```

use std::time::Instant;

use evilbloom::analysis::blocked::blocked_false_positive;
use evilbloom::attacks::pollution::craft_polluting_items;
use evilbloom::filters::{BlockedBloomFilter, ConcurrentBloomFilter, FilterParams, BLOCK_BITS};
use evilbloom::hashes::{KirschMitzenmacher, Murmur128Pair, Murmur3_128};
use evilbloom::urlgen::UrlGenerator;

fn main() {
    let n = 200_000u64;
    let params = FilterParams::optimal(n, 0.01);
    println!("budget: {params}\n");

    // Same (m, k) budget, two layouts.
    let standard = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
    let mut blocked = BlockedBloomFilter::new(params, Murmur128Pair);
    let members: Vec<String> = (0..n).map(|i| format!("https://host{i}.example/{i}")).collect();

    let start = Instant::now();
    for item in &members {
        standard.insert(item.as_bytes());
    }
    let standard_insert = start.elapsed();
    let start = Instant::now();
    blocked.insert_batch(&members);
    let blocked_insert = start.elapsed();

    let probes: Vec<String> = (0..n).map(|i| format!("https://absent{i}.example/{i}")).collect();
    let start = Instant::now();
    let mut standard_fp = 0u64;
    for probe in &probes {
        standard_fp += u64::from(standard.contains(probe.as_bytes()));
    }
    let standard_query = start.elapsed();
    let start = Instant::now();
    let blocked_fp = blocked.query_batch(&probes).iter().filter(|&&hit| hit).count() as u64;
    let blocked_query = start.elapsed();

    println!("== speed (single thread, {n} ops) ==");
    println!(
        "insert   standard {:>8.0?}   blocked(batch) {:>8.0?}   ({:.2}x)",
        standard_insert,
        blocked_insert,
        standard_insert.as_secs_f64() / blocked_insert.as_secs_f64()
    );
    println!(
        "query    standard {:>8.0?}   blocked(batch) {:>8.0?}   ({:.2}x)",
        standard_query,
        blocked_query,
        standard_query.as_secs_f64() / blocked_query.as_secs_f64()
    );

    println!("\n== accuracy: the corrected analysis ==");
    let naive = params.expected_fpp();
    let corrected = blocked_false_positive(blocked.m(), n, blocked.k(), BLOCK_BITS);
    println!("standard observed fpp  {:.5}  (designed {naive:.5})", standard_fp as f64 / n as f64);
    println!(
        "blocked  observed fpp  {:.5}  (naive formula {naive:.5}, corrected {corrected:.5})",
        blocked_fp as f64 / n as f64
    );
    println!(
        "block-load variance costs a factor {:.2} in fpp — the price of one",
        corrected / naive
    );
    println!("cache line per op; the measured speedup above is what it buys.");

    // The fast path is not a hardened path: the pollution engine drives the
    // blocked filter through the same TargetFilter view it uses everywhere.
    println!("\n== the attacks carry over (Section 4.1 on the blocked layout) ==");
    let mut victim = BlockedBloomFilter::new(FilterParams::explicit(3200, 4, 600), Murmur128Pair);
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
