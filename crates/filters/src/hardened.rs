//! Hardened Bloom filters — the countermeasures of Section 8 packaged as
//! ready-to-use constructors.
//!
//! Three defence levels are provided:
//!
//! * [`HardeningLevel::WorstCaseParameters`] — keep a fast unkeyed hash but
//!   choose `k = m/(en)` so the *adversarial* false-positive probability is
//!   minimised (defeats chosen-insertion adversaries, not query-only ones);
//! * [`HardeningLevel::KeyedSipHash`] — derive indexes with SipHash-2-4-128
//!   under a secret key (defeats every adversary, cheapest keyed option);
//! * [`HardeningLevel::KeyedHmac`] — derive indexes with HMAC-SHA-256 under
//!   a secret key (defeats every adversary, strongest margin).
//!
//! Both keyed levels make exactly one PRF call per item, whatever `k`: the
//! keyed pair `mac_pair(x)` ([`KeyedPair`]) — one SipHash-2-4-128 call, or
//! the leading 16 bytes of one HMAC tag — feeds the same
//! Kirsch–Mitzenmacher loop ([`KmIndexes`]) the unkeyed Dablooms-style
//! strategy runs.
//! Double hashing keeps the defence intact: without the key nobody can
//! evaluate the pair, so nobody can evaluate any index derived from it.

use rand::RngCore;

use evilbloom_hashes::{
    Hmac, IndexStrategy, KeyedPair, KmIndexes, Murmur3_128, SaltedHashes, Sha256, SipHash24, SipKey,
};

use crate::concurrent::ConcurrentBloomFilter;
use crate::params::FilterParams;

/// Which countermeasure to apply when building a hardened filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardeningLevel {
    /// Worst-case parameters (Section 8.1) with a fast unkeyed hash.
    WorstCaseParameters,
    /// Secret-keyed SipHash-2-4 indexes (Section 8.2, Table 2).
    KeyedSipHash,
    /// Secret-keyed HMAC-SHA-256 indexes (Section 8.2, Table 2).
    KeyedHmac,
}

/// A 256-bit secret key for the keyed countermeasures.
///
/// The `Debug` implementation is deliberately redacted: the whole point of
/// the Section 8.2 countermeasure is that the key never reaches the
/// adversary, and keys have a way of reaching adversaries through logs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FilterKey(pub [u8; 32]);

impl core::fmt::Debug for FilterKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("FilterKey(..)")
    }
}

impl FilterKey {
    /// Draws a fresh random key from the given RNG.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        FilterKey(key)
    }

    /// Builds a key from explicit bytes (e.g. loaded from configuration).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        FilterKey(bytes)
    }

    fn hmac(&self) -> Hmac {
        Hmac::new(Box::new(Sha256), &self.0)
    }

    fn sip_key(&self) -> SipKey {
        SipKey::new(
            u64::from_le_bytes(self.0[0..8].try_into().expect("8-byte slice")),
            u64::from_le_bytes(self.0[8..16].try_into().expect("8-byte slice")),
        )
    }
}

/// Builds a hardened Bloom filter for `capacity` items at target
/// false-positive probability `target_fpp`.
///
/// The returned filter uses:
///
/// * worst-case parameters and MurmurHash3 when `level` is
///   [`HardeningLevel::WorstCaseParameters`] (the key is ignored);
/// * average-case parameters and a keyed strategy otherwise (the paper's
///   point is that keyed hashing lets you *keep* the optimal parameters).
pub fn hardened_filter(
    capacity: u64,
    target_fpp: f64,
    level: HardeningLevel,
    key: &FilterKey,
) -> ConcurrentBloomFilter {
    let (params, strategy) = hardened_parts(capacity, target_fpp, level, key);
    ConcurrentBloomFilter::with_shared_strategy(params, strategy.into())
}

/// The sizing parameters a hardened filter at `level` uses: worst-case
/// parameters for the unkeyed level (the Section 8.1 trade), average-case
/// optimal for the keyed levels (the paper's point being that keyed hashing
/// lets you keep them).
pub fn hardened_params(capacity: u64, target_fpp: f64, level: HardeningLevel) -> FilterParams {
    match level {
        HardeningLevel::WorstCaseParameters => FilterParams::worst_case(capacity, target_fpp),
        HardeningLevel::KeyedSipHash | HardeningLevel::KeyedHmac => {
            FilterParams::optimal(capacity, target_fpp)
        }
    }
}

/// Parameter + strategy selection behind [`hardened_filter`]. Public so the
/// generic store can build any
/// [`FilterBackend`](crate::backend::FilterBackend) — counting, scalable —
/// over the same keyed strategies.
pub fn hardened_parts(
    capacity: u64,
    target_fpp: f64,
    level: HardeningLevel,
    key: &FilterKey,
) -> (FilterParams, Box<dyn IndexStrategy>) {
    let params = hardened_params(capacity, target_fpp, level);
    let strategy: Box<dyn IndexStrategy> = match level {
        HardeningLevel::WorstCaseParameters => Box::new(SaltedHashes::new(Murmur3_128)),
        HardeningLevel::KeyedSipHash => {
            Box::new(KmIndexes::new(KeyedPair::new(Box::new(SipHash24::new(key.sip_key())))))
        }
        HardeningLevel::KeyedHmac => Box::new(KmIndexes::new(KeyedPair::new(Box::new(key.hmac())))),
    };
    (params, strategy)
}

/// Report comparing a deployment's exposure before and after hardening,
/// produced by [`audit`].
#[derive(Debug, Clone, PartialEq)]
pub struct HardeningAudit {
    /// Honest false-positive probability of the original parameters.
    pub baseline_fpp: f64,
    /// Adversarial false-positive probability of the original parameters.
    pub baseline_adversarial_fpp: f64,
    /// Whether the original index derivation is predictable by an adversary.
    pub baseline_predictable: bool,
    /// Honest false-positive probability after hardening.
    pub hardened_fpp: f64,
    /// Adversarial false-positive probability after hardening. For keyed
    /// strategies the offline attack no longer applies, so this equals the
    /// honest probability.
    pub hardened_adversarial_fpp: f64,
}

/// Audits a `(params, strategy)` deployment against the chosen hardening
/// level, returning the before/after false-positive exposure.
pub fn audit(
    params: FilterParams,
    strategy: &dyn IndexStrategy,
    level: HardeningLevel,
) -> HardeningAudit {
    let baseline_fpp = params.expected_fpp();
    let baseline_adversarial_fpp = params.adversarial_fpp();
    let baseline_predictable = strategy.is_predictable();

    let hardened_params = match level {
        HardeningLevel::WorstCaseParameters => {
            FilterParams::worst_case_for_memory(params.m, params.capacity)
        }
        _ => params,
    };
    let hardened_fpp = hardened_params.expected_fpp();
    let hardened_adversarial_fpp = match level {
        HardeningLevel::WorstCaseParameters => hardened_params.adversarial_fpp(),
        // A keyed strategy removes the adversary's ability to choose items,
        // so the worst case collapses to the honest case.
        _ => hardened_fpp,
    };

    HardeningAudit {
        baseline_fpp,
        baseline_adversarial_fpp,
        baseline_predictable,
        hardened_fpp,
        hardened_adversarial_fpp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::double::km_indexes_from_pair;
    use evilbloom_hashes::{KeyedHash64, KirschMitzenmacher, Murmur3_32};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> FilterKey {
        FilterKey::generate(&mut StdRng::seed_from_u64(42))
    }

    #[test]
    fn all_levels_build_working_filters() {
        for level in [
            HardeningLevel::WorstCaseParameters,
            HardeningLevel::KeyedSipHash,
            HardeningLevel::KeyedHmac,
        ] {
            let filter = hardened_filter(1000, 0.01, level, &key());
            for i in 0..1000 {
                filter.insert(format!("item-{i}").as_bytes());
            }
            for i in 0..1000 {
                assert!(filter.contains(format!("item-{i}").as_bytes()), "{level:?}");
            }
        }
    }

    #[test]
    fn keyed_levels_are_unpredictable() {
        let sip = hardened_filter(100, 0.01, HardeningLevel::KeyedSipHash, &key());
        let hmac = hardened_filter(100, 0.01, HardeningLevel::KeyedHmac, &key());
        let worst = hardened_filter(100, 0.01, HardeningLevel::WorstCaseParameters, &key());
        assert!(sip.strategy_name().contains("SipHash"));
        assert!(hmac.strategy_name().contains("HMAC"));
        assert!(worst.strategy_name().contains("Murmur"));
    }

    /// The keyed levels derive their indexes by Kirsch–Mitzenmacher double
    /// hashing over the keyed pair `mac_pair(x)`: one PRF call per item,
    /// whatever `k`.
    #[test]
    fn keyed_levels_derive_km_indexes_from_a_keyed_pair() {
        let key = key();
        let macs: [(HardeningLevel, Box<dyn KeyedHash64>); 2] = [
            (HardeningLevel::KeyedSipHash, Box::new(SipHash24::new(key.sip_key()))),
            (HardeningLevel::KeyedHmac, Box::new(key.hmac())),
        ];
        for (level, mac) in macs {
            let (params, strategy) = hardened_parts(1000, 0.01, level, &key);
            for k in [1u32, 7, 16] {
                for i in 0..50 {
                    let item = format!("item-{i}");
                    let expect: Vec<u64> =
                        km_indexes_from_pair(mac.mac_pair(item.as_bytes()), k, params.m).collect();
                    assert_eq!(
                        strategy.indexes(item.as_bytes(), k, params.m),
                        expect,
                        "{level:?} k={k} {item}"
                    );
                }
            }
        }
    }

    /// Guards the statistics of the keyed pair, not only its definition: a
    /// pair whose second word is degenerate — `(h1, h1)` or `(h1, 0)` — still
    /// passes every membership test, but pushes the measured false-positive
    /// rate of a 1%-sized filter to about 10%. Each keyed level must land
    /// within ±25% of `(1 − e^(−kn/m))^k` over 200,000 never-inserted items
    /// (about 2,000 expected false positives, so ±25% is over ten standard
    /// deviations).
    #[test]
    fn keyed_levels_meet_the_designed_false_positive_rate() {
        const N: u64 = 10_000;
        const PROBES: u64 = 200_000;
        for level in [HardeningLevel::KeyedSipHash, HardeningLevel::KeyedHmac] {
            let filter = hardened_filter(N, 0.01, level, &key());
            for i in 0..N {
                filter.insert(format!("member-{i}").as_bytes());
            }
            let false_positives =
                (0..PROBES).filter(|i| filter.contains(format!("probe-{i}").as_bytes())).count();
            let measured = false_positives as f64 / PROBES as f64;
            let expected = hardened_params(N, 0.01, level).expected_fpp();
            assert!(
                (measured / expected - 1.0).abs() <= 0.25,
                "{level:?}: measured fpp {measured:.5}, expected {expected:.5}"
            );
        }
    }

    #[test]
    fn different_keys_produce_different_layouts() {
        let key_a = FilterKey::from_bytes([1u8; 32]);
        let key_b = FilterKey::from_bytes([2u8; 32]);
        let a = hardened_filter(100, 0.01, HardeningLevel::KeyedSipHash, &key_a);
        let b = hardened_filter(100, 0.01, HardeningLevel::KeyedSipHash, &key_b);
        a.insert(b"same item");
        b.insert(b"same item");
        assert_ne!(a.snapshot_words(), b.snapshot_words());
    }

    #[test]
    fn worst_case_level_reduces_adversarial_exposure() {
        let params = FilterParams::optimal(10_000, 0.001);
        let strategy = KirschMitzenmacher::new(Murmur3_32);
        let report = audit(params, &strategy, HardeningLevel::WorstCaseParameters);
        assert!(report.baseline_predictable);
        assert!(report.hardened_adversarial_fpp < report.baseline_adversarial_fpp);
        // ...at the cost of a worse honest false-positive probability.
        assert!(report.hardened_fpp > report.baseline_fpp);
    }

    #[test]
    fn keyed_level_collapses_worst_case_to_honest_case() {
        let params = FilterParams::optimal(10_000, 0.001);
        let strategy = KirschMitzenmacher::new(Murmur3_32);
        let report = audit(params, &strategy, HardeningLevel::KeyedSipHash);
        assert_eq!(report.hardened_adversarial_fpp, report.hardened_fpp);
        assert!(report.hardened_adversarial_fpp < report.baseline_adversarial_fpp);
        assert_eq!(report.hardened_fpp, report.baseline_fpp);
    }

    #[test]
    fn generated_keys_differ() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_ne!(FilterKey::generate(&mut rng), FilterKey::generate(&mut rng));
    }

    #[test]
    fn key_debug_output_is_redacted() {
        // A distinctive byte pattern: were any byte printed (decimal or hex),
        // the rendering would contain "171", "0xab" or "ab".
        let key = FilterKey::from_bytes([0xAB; 32]);
        let text = format!("{key:?}");
        assert_eq!(text, "FilterKey(..)");
        assert!(
            !text.contains("171") && !text.to_lowercase().contains("ab"),
            "debug output must not leak key bytes: {text}"
        );
        // The same holds inside composite debug output.
        let nested = format!("{:?}", Some(key));
        assert_eq!(nested, "Some(FilterKey(..))");
    }

    #[test]
    fn concurrent_and_sequential_hardened_filters_agree() {
        // Two filters built from one key hold the same bits after the same
        // items, whether four threads insert them or one does.
        for level in [
            HardeningLevel::WorstCaseParameters,
            HardeningLevel::KeyedSipHash,
            HardeningLevel::KeyedHmac,
        ] {
            let key = key();
            let sequential = hardened_filter(400, 0.01, level, &key);
            let concurrent = hardened_filter(400, 0.01, level, &key);
            let items: Vec<String> = (0..400).map(|i| format!("item-{i}")).collect();
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
            assert_eq!(concurrent.inserted(), sequential.inserted(), "{level:?}");
        }
    }
}
