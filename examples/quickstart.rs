//! Quickstart: build a Bloom filter the way an application developer would,
//! assess its adversarial exposure, and harden it.
//!
//! Run with: `cargo run --example quickstart`

use evilbloom::attacks::craft_polluting_items;
use evilbloom::core::{assess, DeploymentSpec, SecureBloomBuilder, StrategyKind};
use evilbloom::filters::{ConcurrentBloomFilter, FilterParams, HardeningLevel};
use evilbloom::hashes::{KirschMitzenmacher, Murmur3_128};
use evilbloom::urlgen::UrlGenerator;

fn main() {
    // 1. A textbook deployment: 100k URLs, 1% false positives, MurmurHash.
    let spec = DeploymentSpec {
        capacity: 100_000,
        target_fpp: 0.01,
        strategy: StrategyKind::MurmurKirschMitzenmacher,
    };
    let report = assess(&spec);
    println!("designed false-positive probability : {:.4}", report.honest_fpp);
    println!("worst-case (chosen insertions)      : {:.4}", report.adversarial_fpp);
    println!("insertions to cross the design FPP  : {}", report.insertions_to_design_threshold);
    println!("insertions to saturate the filter   : {}", report.saturation_items);
    println!("indexes predictable by an adversary : {}", report.predictable_indexes);

    // 2. Demonstrate the pollution attack on a small filter (Figure 3 size).
    let filter = ConcurrentBloomFilter::new(
        FilterParams::explicit(3200, 4, 600),
        KirschMitzenmacher::new(Murmur3_128),
    );
    let plan = craft_polluting_items(&filter, &UrlGenerator::new("quickstart"), 422, u64::MAX);
    for url in &plan.items {
        filter.insert(url.as_bytes());
    }
    println!(
        "after 422 crafted insertions the FPP is {:.3} (honest design expected 0.077 after 600)",
        filter.current_false_positive_probability()
    );

    // 3. Harden the deployment with a keyed filter: same parameters, but the
    //    adversary can no longer predict the indexes.
    let hardened =
        SecureBloomBuilder::new(100_000, 0.01).level(HardeningLevel::KeyedSipHash).build();
    println!("hardened filter strategy            : {}", hardened.strategy_name());
}
