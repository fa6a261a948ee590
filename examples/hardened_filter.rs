//! Section 8 — countermeasures in practice.
//!
//! Compares the three hardening levels (worst-case parameters, keyed SipHash,
//! keyed HMAC) against the same chosen-insertion adversary.
//!
//! Run with: `cargo run --example hardened_filter`

use evilbloom::attacks::craft_polluting_items;
use evilbloom::filters::{audit, hardened_filter, FilterKey, FilterParams, HardeningLevel};
use evilbloom::hashes::{KirschMitzenmacher, Murmur3_128};
use evilbloom::urlgen::UrlGenerator;

fn main() {
    let capacity = 2_000u64;
    let target = 0.01;

    // Baseline audit of a classic deployment.
    let params = FilterParams::optimal(capacity, target);
    let strategy = KirschMitzenmacher::new(Murmur3_128);
    for level in [
        HardeningLevel::WorstCaseParameters,
        HardeningLevel::KeyedSipHash,
        HardeningLevel::KeyedHmac,
    ] {
        let report = audit(params, &strategy, level);
        println!("{level:?}");
        println!("  honest FPP      : {:.4} -> {:.4}", report.baseline_fpp, report.hardened_fpp);
        println!(
            "  adversarial FPP : {:.4} -> {:.4}",
            report.baseline_adversarial_fpp, report.hardened_adversarial_fpp
        );
    }

    // Show that the attack actually fails against a keyed filter, at both
    // keyed levels: the adversary plans against her best guess (a filter
    // with a key she made up) and gains nothing against the real one.
    let real_key = FilterKey::from_bytes([42u8; 32]);
    let guessed_key = FilterKey::from_bytes([1u8; 32]);
    for level in [HardeningLevel::KeyedSipHash, HardeningLevel::KeyedHmac] {
        let real = hardened_filter(capacity, target, level, &real_key);
        let shadow = hardened_filter(capacity, target, level, &guessed_key);
        let plan = craft_polluting_items(&shadow, &UrlGenerator::new("hardened"), 500, u64::MAX);
        for url in &plan.items {
            real.insert(url.as_bytes());
        }
        let adversarial_target = plan.items.len() as u64 * u64::from(real.k());
        println!(
            "{level:?} filter after {} 'crafted' insertions: weight {} (adversarial target would be {adversarial_target})",
            plan.items.len(),
            real.hamming_weight(),
        );
        assert!(
            plan.items.iter().all(|url| real.contains(url.as_bytes())),
            "{level:?}: a member reads absent"
        );
        assert!(
            real.hamming_weight() < adversarial_target,
            "{level:?}: the crafted set polluted the real filter as if it knew the key"
        );
    }
}
