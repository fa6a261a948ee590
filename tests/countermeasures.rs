//! Integration tests for the Section 8 countermeasures, exercised through
//! the `evilbloom` facade: worst-case parameters, digest recycling and keyed
//! hashing all behave as the paper claims when confronted with the actual
//! attack engines.

use evilbloom::analysis::{false_positive, worst_case};
use evilbloom::attacks::craft_polluting_items;
use evilbloom::filters::{ConcurrentBloomFilter, FilterParams};
use evilbloom::hashes::{
    recycled_indexes, IndexStrategy, KirschMitzenmacher, Murmur3_128, RecycledCrypto, SaltedCrypto,
    Sha512,
};
use evilbloom::urlgen::UrlGenerator;

/// Worst-case parameters (k = m/(en)) really do reduce the damage an
/// attacker can cause for the same memory budget.
#[test]
fn worst_case_parameters_limit_pollution_damage() {
    let capacity = 1_500u64;
    let classic = FilterParams::optimal(capacity, 0.01);
    let hardened = FilterParams::worst_case_for_memory(classic.m, capacity);
    assert!(hardened.k < classic.k);

    let generator = UrlGenerator::new("worst-case-compare");
    let classic_filter = ConcurrentBloomFilter::new(classic, KirschMitzenmacher::new(Murmur3_128));
    let plan = craft_polluting_items(&classic_filter, &generator, capacity as usize, u64::MAX);
    for url in &plan.items {
        classic_filter.insert(url.as_bytes());
    }

    let hardened_filter =
        ConcurrentBloomFilter::new(hardened, KirschMitzenmacher::new(Murmur3_128));
    let plan = craft_polluting_items(&hardened_filter, &generator, capacity as usize, u64::MAX);
    for url in &plan.items {
        hardened_filter.insert(url.as_bytes());
    }

    let classic_attacked = classic_filter.current_false_positive_probability();
    let hardened_attacked = hardened_filter.current_false_positive_probability();
    assert!(
        hardened_attacked < classic_attacked,
        "worst-case params: {hardened_attacked} vs classic {classic_attacked}"
    );
    // And both agree with the closed-form (nk/m)^k prediction.
    let predicted_classic = worst_case::adversarial_false_positive(classic.m, capacity, classic.k);
    assert!((classic_attacked - predicted_classic).abs() < 0.02);
}

/// Digest recycling produces exactly the same kind of indexes as the salted
/// construction (uniform, in range, deterministic) while consuming far fewer
/// digest invocations.
#[test]
fn recycling_is_equivalent_in_behaviour_but_cheaper_in_calls() {
    let m = 1u64 << 22;
    let k = 10u32;

    // One SHA-512 digest yields 512 / 22 = 23 indexes: a single call covers
    // k = 10, versus 10 calls for the salted construction.
    assert_eq!(evilbloom::hashes::recycle::calls_needed(512, k, m), 1);

    let recycled = RecycledCrypto::new(Box::new(Sha512));
    let salted = SaltedCrypto::new(Box::new(Sha512));
    for item in ["http://a.example/", "http://b.example/", "http://c.example/"] {
        let r = recycled.indexes(item.as_bytes(), k, m);
        let s = salted.indexes(item.as_bytes(), k, m);
        assert_eq!(r.len(), s.len());
        assert!(r.iter().all(|&i| i < m));
        assert!(s.iter().all(|&i| i < m));
        // Deterministic and matching the free function.
        assert_eq!(r, recycled_indexes(&Sha512, item.as_bytes(), k, m));
    }

    // A filter built on recycled indexes behaves like a normal Bloom filter.
    let params = FilterParams::optimal(2_000, 0.01);
    let filter = ConcurrentBloomFilter::new(params, RecycledCrypto::new(Box::new(Sha512)));
    for i in 0..2_000 {
        filter.insert(format!("member-{i}").as_bytes());
    }
    for i in 0..2_000 {
        assert!(filter.contains(format!("member-{i}").as_bytes()));
    }
    let fp = (0..10_000).filter(|i| filter.contains(format!("probe-{i}").as_bytes())).count();
    let rate = fp as f64 / 10_000.0;
    assert!(rate < 0.03, "observed false-positive rate {rate}");
}

/// The analysis crate's honest model matches what real filters do across a
/// parameter sweep — the foundation every experiment relies on.
#[test]
fn analytic_model_matches_simulation_across_parameters() {
    for (capacity, target) in [(500u64, 0.05f64), (1_000, 0.01), (2_000, 0.002)] {
        let params = FilterParams::optimal(capacity, target);
        let filter = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        for i in 0..capacity {
            filter.insert(format!("item-{i}").as_bytes());
        }
        let predicted = false_positive::false_positive_approx(params.m, capacity, params.k);
        let from_fill = filter.current_false_positive_probability();
        assert!(
            (predicted - from_fill).abs() < 0.01,
            "capacity {capacity}: predicted {predicted} vs fill-based {from_fill}"
        );
        let expected_fill = false_positive::expected_fill(params.m, capacity, params.k);
        assert!((filter.fill_ratio() - expected_fill).abs() < 0.02);
    }
}
