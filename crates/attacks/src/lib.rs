//! # evilbloom-attacks
//!
//! The adversary toolkit of *"The Power of Evil Choices in Bloom Filters"*
//! (Gerbet, Kumar & Lauradoux, DSN 2015): every attack the paper describes,
//! implemented as a reusable engine against the structures of
//! `evilbloom-filters`.
//!
//! * [`target::TargetFilter`] — the adversary's (read-only) view of a filter;
//! * [`mod@search`] — the generic brute-force forgery loop with cost accounting,
//!   sequential and multi-threaded;
//! * [`pollution`] — the chosen-insertion adversary: pollution plans,
//!   saturation plans, and the Figure 3 insertion sweep;
//! * [`forgery`] — the query-only adversary: false-positive forgery, ghost /
//!   decoy page planning (Figures 6 and 7) and worst-case-latency queries;
//! * [`deletion`] — the deletion adversary: targeted eviction of victims from
//!   counting filters and the Dablooms counter-overflow "empty but full"
//!   attack (Section 6.2);
//! * [`preimage`] — brute-force (second) pre-images of truncated digests and
//!   the constant-time MurmurHash inversions.
//!
//! ## Example
//!
//! ```
//! use evilbloom_attacks::pollution::craft_polluting_items;
//! use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
//! use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
//! use evilbloom_urlgen::UrlGenerator;
//!
//! let dedup = ConcurrentBloomFilter::new(
//!     FilterParams::explicit(3200, 4, 600),
//!     KirschMitzenmacher::new(Murmur3_128),
//! );
//! let plan = craft_polluting_items(&dedup, &UrlGenerator::new("attack"), 100, 1_000_000);
//! for url in &plan.items {
//!     assert_eq!(dedup.insert(url.as_bytes()), 4); // every URL sets k fresh bits
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deletion;
pub mod forgery;
pub mod pollution;
pub mod preimage;
pub mod search;
pub mod target;

pub use forgery::{craft_false_positives, craft_latency_queries, plan_ghost_pages};
pub use pollution::{craft_polluting_items, craft_saturating_items, insertion_sweep};
pub use search::{parallel_search, search, SearchOutcome, SearchStats};
pub use target::TargetFilter;

#[cfg(test)]
mod integration {
    use super::*;
    use evilbloom_filters::ConcurrentBloomFilter;
    use evilbloom_filters::{hardened_filter, FilterKey, FilterParams, HardeningLevel};
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
    use evilbloom_urlgen::UrlGenerator;

    /// The keyed countermeasure really does starve the offline searches: an
    /// adversary working against her *own* reconstruction of the filter (the
    /// best she can do without the key) gains nothing against the real one.
    #[test]
    fn keyed_filter_defeats_offline_pollution() {
        let key = FilterKey::from_bytes([7u8; 32]);
        let real = hardened_filter(500, 0.01, HardeningLevel::KeyedSipHash, &key);

        // The adversary guesses the construction but not the key: she plans
        // against a filter keyed with her own (wrong) key.
        let wrong_key = FilterKey::from_bytes([8u8; 32]);
        let shadow = hardened_filter(500, 0.01, HardeningLevel::KeyedSipHash, &wrong_key);
        let plan = pollution::craft_polluting_items(
            &shadow,
            &UrlGenerator::new("keyed-attack"),
            200,
            10_000_000,
        );

        // Inserting her crafted items into the real filter behaves like
        // random insertions: collisions occur and the weight stays below the
        // adversarial nk target.
        for item in &plan.items {
            real.insert(item.as_bytes());
        }
        let adversarial_weight = 200 * u64::from(real.k());
        assert!(
            real.hamming_weight() < adversarial_weight,
            "weight {} should fall short of the adversarial target {}",
            real.hamming_weight(),
            adversarial_weight
        );
    }

    /// End-to-end pollution → forgery chain: after polluting a filter the
    /// query-only adversary forges false positives far more cheaply.
    #[test]
    fn pollution_makes_forgery_cheaper() {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::explicit(4096, 4, 700),
            KirschMitzenmacher::new(Murmur3_128),
        );
        for i in 0..300 {
            filter.insert(format!("honest-{i}").as_bytes());
        }
        let before =
            forgery::craft_false_positives(&filter, &UrlGenerator::new("before"), 10, 50_000_000);

        let plan = pollution::craft_polluting_items(
            &filter,
            &UrlGenerator::new("pollute"),
            400,
            50_000_000,
        );
        for item in &plan.items {
            filter.insert(item.as_bytes());
        }
        let after =
            forgery::craft_false_positives(&filter, &UrlGenerator::new("after"), 10, 50_000_000);
        assert!(
            after.stats.attempts_per_accepted() < before.stats.attempts_per_accepted(),
            "after {} vs before {}",
            after.stats.attempts_per_accepted(),
            before.stats.attempts_per_accepted()
        );
        assert!(after.success_probability > before.success_probability);
    }
}
