//! # evilbloom-core
//!
//! High-level API tying the `evilbloom` crates together: the paper's primary
//! contribution (adversary models for Bloom filters, worst-case parameters
//! and countermeasures) packaged for application developers.
//!
//! The central entry points are:
//!
//! * [`DeploymentSpec`] — describe how a Bloom filter is (or would be)
//!   deployed: capacity, target false-positive probability, index strategy;
//! * [`assess`] — produce an [`AssessmentReport`] quantifying the exposure of
//!   that deployment to the chosen-insertion, query-only and deletion
//!   adversaries of the paper (Table 1 / Section 4);
//! * [`SecureBloomBuilder`] — build a filter hardened to the desired
//!   [`HardeningLevel`] (Section 8 countermeasures).
//!
//! ```
//! use evilbloom_core::{assess, DeploymentSpec, StrategyKind};
//!
//! let spec = DeploymentSpec {
//!     capacity: 1_000_000,
//!     target_fpp: 0.01,
//!     strategy: StrategyKind::MurmurKirschMitzenmacher,
//! };
//! let report = assess(&spec);
//! assert!(report.adversarial_fpp > 10.0 * report.honest_fpp);
//! assert!(report.predictable_indexes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use evilbloom_analysis::{attack_probability, worst_case};
use evilbloom_filters::{
    hardened_filter, ConcurrentBloomFilter, FilterKey, FilterParams, HardeningLevel,
};
use evilbloom_hashes::{
    IndexStrategy, KeyedPair, KirschMitzenmacher, KmIndexes, Md5Split, Murmur3_128, RecycledCrypto,
    SaltedCrypto, Sha256, Sha512, SipHash24, SipKey,
};

/// The index-derivation families a deployment can use, mirroring the systems
/// studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// MurmurHash3 with the Kirsch–Mitzenmacher trick (Dablooms).
    MurmurKirschMitzenmacher,
    /// Salted SHA-2 digests, one call per index (pyBloom / Scrapy).
    SaltedSha,
    /// One MD5 digest split into four indexes (Squid cache digests).
    Md5Split,
    /// One SHA-512 digest recycled across all indexes (Section 8.2).
    RecycledSha512,
    /// Secret-keyed SipHash (Section 8.2 countermeasure).
    KeyedSipHash,
}

impl StrategyKind {
    /// Whether an adversary can predict the filter indexes offline.
    pub fn is_predictable(&self) -> bool {
        !matches!(self, StrategyKind::KeyedSipHash)
    }

    /// Instantiates the corresponding [`IndexStrategy`] (keyed strategies get
    /// a throw-away key — use [`SecureBloomBuilder`] for real deployments).
    pub fn instantiate(&self) -> Box<dyn IndexStrategy> {
        match self {
            StrategyKind::MurmurKirschMitzenmacher => {
                Box::new(KirschMitzenmacher::new(Murmur3_128))
            }
            StrategyKind::SaltedSha => Box::new(SaltedCrypto::new(Box::new(Sha256))),
            StrategyKind::Md5Split => Box::new(Md5Split),
            StrategyKind::RecycledSha512 => Box::new(RecycledCrypto::new(Box::new(Sha512))),
            StrategyKind::KeyedSipHash => Box::new(KmIndexes::new(KeyedPair::new(Box::new(
                SipHash24::new(SipKey::new(0, 0)),
            )))),
        }
    }
}

/// Description of a (planned) Bloom-filter deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentSpec {
    /// Number of items the filter is sized for.
    pub capacity: u64,
    /// Designed (average-case) false-positive probability.
    pub target_fpp: f64,
    /// Index-derivation family in use.
    pub strategy: StrategyKind,
}

/// Exposure assessment of a deployment, in the terms of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssessmentReport {
    /// Parameters the average-case design produces.
    pub params: FilterParams,
    /// Honest false-positive probability at capacity.
    pub honest_fpp: f64,
    /// Worst-case probability after `capacity` chosen insertions
    /// (Equation (7)).
    pub adversarial_fpp: f64,
    /// Number of chosen insertions needed to reach the designed probability
    /// (how early the attacker crosses the designer's threshold).
    pub insertions_to_design_threshold: u64,
    /// Items needed to saturate the filter outright.
    pub saturation_items: u64,
    /// Per-candidate success probability of forging a false positive against
    /// a half-full filter.
    pub forgery_probability: f64,
    /// Whether the adversary can compute indexes offline (no secret key).
    pub predictable_indexes: bool,
    /// Recommended parameters if only the worst case is optimised
    /// (Section 8.1).
    pub worst_case_params: FilterParams,
}

/// Assesses a deployment against the paper's adversary models.
pub fn assess(spec: &DeploymentSpec) -> AssessmentReport {
    let params = FilterParams::optimal(spec.capacity, spec.target_fpp);
    let honest_fpp = params.expected_fpp();
    let adversarial_fpp = params.adversarial_fpp();
    let insertions_to_design_threshold =
        worst_case::insertions_to_reach(params.m, params.k, spec.target_fpp);
    let saturation_items = worst_case::adversarial_saturation_items(params.m, params.k);
    let forgery_probability =
        attack_probability::false_positive_forgery(params.m, params.m / 2, params.k);
    let worst_case_params = FilterParams::worst_case_for_memory(params.m, spec.capacity);

    AssessmentReport {
        params,
        honest_fpp,
        adversarial_fpp,
        insertions_to_design_threshold,
        saturation_items,
        forgery_probability,
        predictable_indexes: spec.strategy.is_predictable(),
        worst_case_params,
    }
}

/// Builder for hardened Bloom filters (the Section 8 countermeasures).
#[derive(Debug, Clone)]
pub struct SecureBloomBuilder {
    capacity: u64,
    target_fpp: f64,
    level: HardeningLevel,
    key: Option<FilterKey>,
}

impl SecureBloomBuilder {
    /// Starts a builder for `capacity` items at the given target probability.
    pub fn new(capacity: u64, target_fpp: f64) -> Self {
        SecureBloomBuilder { capacity, target_fpp, level: HardeningLevel::KeyedSipHash, key: None }
    }

    /// Selects the hardening level (default: keyed SipHash).
    pub fn level(mut self, level: HardeningLevel) -> Self {
        self.level = level;
        self
    }

    /// Supplies an explicit secret key (otherwise a random one is drawn).
    pub fn key(mut self, key: FilterKey) -> Self {
        self.key = Some(key);
        self
    }

    /// Builds the hardened filter (lock-free, `&self` insert/query — also
    /// the per-shard filter of the `evilbloom-store` serving layer).
    ///
    /// Two builds are index-compatible (identical parameters and strategy)
    /// **only when an explicit key was supplied with
    /// [`SecureBloomBuilder::key`]**: without one, every call draws its own
    /// fresh random key, so the resulting filters disagree by design —
    /// exactly as two independently keyed deployments should.
    pub fn build(&self) -> ConcurrentBloomFilter {
        hardened_filter(self.capacity, self.target_fpp, self.level, &self.effective_key())
    }

    fn effective_key(&self) -> FilterKey {
        self.key.unwrap_or_else(|| FilterKey::generate(&mut StdRng::from_entropy()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assessment_flags_predictable_strategies() {
        for (strategy, predictable) in [
            (StrategyKind::MurmurKirschMitzenmacher, true),
            (StrategyKind::SaltedSha, true),
            (StrategyKind::Md5Split, true),
            (StrategyKind::RecycledSha512, true),
            (StrategyKind::KeyedSipHash, false),
        ] {
            let spec = DeploymentSpec { capacity: 10_000, target_fpp: 0.01, strategy };
            assert_eq!(assess(&spec).predictable_indexes, predictable, "{strategy:?}");
        }
    }

    #[test]
    fn assessment_quantifies_the_gap() {
        let spec = DeploymentSpec {
            capacity: 1_000_000,
            target_fpp: 2f64.powi(-10),
            strategy: StrategyKind::SaltedSha,
        };
        let report = assess(&spec);
        assert!(report.adversarial_fpp > 10.0 * report.honest_fpp);
        assert!(report.insertions_to_design_threshold < spec.capacity);
        assert!(report.saturation_items < spec.capacity * 2);
        assert!(report.worst_case_params.k < report.params.k);
        assert!(report.forgery_probability > 0.0 && report.forgery_probability < 1.0);
    }

    #[test]
    fn every_strategy_kind_instantiates() {
        for kind in [
            StrategyKind::MurmurKirschMitzenmacher,
            StrategyKind::SaltedSha,
            StrategyKind::Md5Split,
            StrategyKind::RecycledSha512,
            StrategyKind::KeyedSipHash,
        ] {
            let strategy = kind.instantiate();
            let idx = strategy.indexes(b"item", 4, 1024);
            assert_eq!(idx.len(), 4);
            assert!(idx.iter().all(|&i| i < 1024));
        }
    }

    #[test]
    fn builder_produces_working_filters_for_all_levels() {
        for level in [
            HardeningLevel::WorstCaseParameters,
            HardeningLevel::KeyedSipHash,
            HardeningLevel::KeyedHmac,
        ] {
            let filter = SecureBloomBuilder::new(500, 0.01)
                .level(level)
                .key(FilterKey::from_bytes([9u8; 32]))
                .build();
            for i in 0..500 {
                filter.insert(format!("item-{i}").as_bytes());
            }
            for i in 0..500 {
                assert!(filter.contains(format!("item-{i}").as_bytes()), "{level:?}");
            }
        }
    }

    #[test]
    fn concurrent_builder_matches_sequential_layout() {
        for level in [
            HardeningLevel::WorstCaseParameters,
            HardeningLevel::KeyedSipHash,
            HardeningLevel::KeyedHmac,
        ] {
            let builder = SecureBloomBuilder::new(300, 0.01)
                .level(level)
                .key(FilterKey::from_bytes([7u8; 32]));
            // Two builds under one explicit key: one filled by three
            // threads, one by a single thread, must end bit-for-bit equal.
            let sequential = builder.build();
            let concurrent = builder.build();
            let items: Vec<String> = (0..300).map(|i| format!("item-{i}")).collect();
            for item in &items {
                sequential.insert(item.as_bytes());
            }
            std::thread::scope(|scope| {
                for chunk in items.chunks(100) {
                    let concurrent = &concurrent;
                    scope.spawn(move || {
                        for item in chunk {
                            concurrent.insert(item.as_bytes());
                        }
                    });
                }
            });
            assert_eq!(concurrent.snapshot_words(), sequential.snapshot_words(), "{level:?}");
            for i in 0..300 {
                assert!(concurrent.contains(format!("item-{i}").as_bytes()), "{level:?}");
            }
        }
    }

    #[test]
    fn builder_random_key_filters_differ() {
        let a = SecureBloomBuilder::new(100, 0.01).build();
        let b = SecureBloomBuilder::new(100, 0.01).build();
        a.insert(b"item");
        b.insert(b"item");
        // Random keys: the probability the two layouts coincide is negligible.
        assert_ne!(a.snapshot_words(), b.snapshot_words());
    }
}
