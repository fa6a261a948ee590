//! Cross-crate integration tests exercising complete attack scenarios
//! through the `evilbloom` facade.

use evilbloom::attacks::{craft_false_positives, craft_polluting_items, TargetFilter};
use evilbloom::core::{assess, DeploymentSpec, SecureBloomBuilder, StrategyKind};
use evilbloom::filters::{ConcurrentBloomFilter, FilterParams, HardeningLevel};
use evilbloom::hashes::{IndexStrategy, KirschMitzenmacher, Md5Split, Murmur3_128};
use evilbloom::urlgen::UrlGenerator;

/// Figure 3 end to end: crafting and inserting the adversarial workload
/// really does push the measured false-positive rate to the predicted
/// (nk/m)^k while the honest workload stays near the design value.
#[test]
fn figure3_end_to_end() {
    let params = FilterParams::explicit(3200, 4, 600);

    let honest = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
    for i in 0..600 {
        honest.insert(format!("honest-{i}").as_bytes());
    }
    let honest_fpp = honest.current_false_positive_probability();
    assert!((honest_fpp - 0.077).abs() < 0.03, "honest fpp {honest_fpp}");

    let attacked = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
    let plan = craft_polluting_items(&attacked, &UrlGenerator::new("fig3"), 600, u64::MAX);
    assert_eq!(plan.items.len(), 600);
    for url in &plan.items {
        attacked.insert(url.as_bytes());
    }
    let attacked_fpp = attacked.current_false_positive_probability();
    assert!((attacked_fpp - 0.316).abs() < 0.01, "adversarial fpp {attacked_fpp}");
    assert!(attacked_fpp > 3.0 * honest_fpp);

    // The measured rate on random probes agrees with the fill-based value.
    let probes = 20_000u32;
    let hits = (0..probes).filter(|i| attacked.contains(format!("probe-{i}").as_bytes())).count();
    let measured = f64::from(hits as u32) / f64::from(probes);
    assert!((measured - attacked_fpp).abs() < 0.02, "measured {measured}");
}

/// The deployment-assessment API, the attack engine and the hardening
/// builder agree with each other: what `assess` predicts, the attack
/// achieves, and the hardened filter prevents.
#[test]
fn assessment_attack_and_hardening_agree() {
    let spec = DeploymentSpec {
        capacity: 2_000,
        target_fpp: 0.01,
        strategy: StrategyKind::MurmurKirschMitzenmacher,
    };
    let report = assess(&spec);

    // Attack the predicted deployment.
    let filter = ConcurrentBloomFilter::new(report.params, spec.strategy.instantiate_for_filter());
    let plan = craft_polluting_items(
        &filter,
        &UrlGenerator::new("assessed"),
        spec.capacity as usize,
        u64::MAX,
    );
    for url in &plan.items {
        filter.insert(url.as_bytes());
    }
    let achieved = filter.current_false_positive_probability();
    assert!((achieved - report.adversarial_fpp).abs() < 0.02, "achieved {achieved}");

    // The keyed filter with the same capacity/target keeps its design FPP
    // under the same (now ineffective) adversarial workload.
    let hardened = SecureBloomBuilder::new(spec.capacity, spec.target_fpp)
        .level(HardeningLevel::KeyedSipHash)
        .build();
    for url in &plan.items {
        hardened.insert(url.as_bytes());
    }
    let hardened_fpp = hardened.current_false_positive_probability();
    assert!(hardened_fpp < 2.5 * report.honest_fpp, "hardened fpp {hardened_fpp}");
}

/// Helper: `StrategyKind::instantiate` returns a boxed strategy; adapt it for
/// `ConcurrentBloomFilter::new` which needs a concrete `IndexStrategy` value.
trait InstantiateForFilter {
    fn instantiate_for_filter(&self) -> BoxedStrategy;
}

/// Newtype adapter so a boxed strategy can be used where a value is expected.
struct BoxedStrategy(Box<dyn IndexStrategy>);

impl IndexStrategy for BoxedStrategy {
    fn indexes_into(&self, item: &[u8], k: u32, m: u64, out: &mut Vec<u64>) {
        self.0.indexes_into(item, k, m, out)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_predictable(&self) -> bool {
        self.0.is_predictable()
    }
}

impl InstantiateForFilter for StrategyKind {
    fn instantiate_for_filter(&self) -> BoxedStrategy {
        BoxedStrategy(self.instantiate())
    }
}

/// A query-only adversary can forge false positives against a Squid-style
/// MD5-split filter exactly as against any other unkeyed strategy.
#[test]
fn forgery_works_across_strategies() {
    for (name, strategy) in [
        ("murmur-km", StrategyKind::MurmurKirschMitzenmacher),
        ("salted-sha", StrategyKind::SaltedSha),
        ("md5-split", StrategyKind::Md5Split),
        ("recycled-sha512", StrategyKind::RecycledSha512),
    ] {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::optimal(1_000, 0.02),
            strategy.instantiate_for_filter(),
        );
        for i in 0..1_000 {
            filter.insert(format!("member-{i}").as_bytes());
        }
        let outcome = craft_false_positives(&filter, &UrlGenerator::new(name), 5, 100_000_000);
        assert_eq!(outcome.items.len(), 5, "{name}");
        for item in &outcome.items {
            assert!(filter.contains(item.as_bytes()), "{name}: {item}");
        }
    }
    // Direct sanity check that the Squid derivation is the one being used.
    let squid_like = Md5Split;
    assert_eq!(squid_like.indexes(b"GET http://x/", 4, 762).len(), 4);
}

/// The TargetFilter view exposed to attacks stays consistent with the public
/// filter API across the facade.
#[test]
fn target_view_matches_public_api() {
    let filter = ConcurrentBloomFilter::new(
        FilterParams::optimal(500, 0.01),
        KirschMitzenmacher::new(Murmur3_128),
    );
    for i in 0..500 {
        filter.insert(format!("u{i}").as_bytes());
    }
    let view: &dyn TargetFilter = &filter;
    assert_eq!(view.weight(), filter.hamming_weight());
    assert_eq!(view.m(), filter.m());
    assert_eq!(view.k(), filter.k());
    assert!((view.fill_ratio() - filter.fill_ratio()).abs() < 1e-12);
}
