//! Query-only adversary: false-positive forgery, ghost pages and worst-case
//! latency queries (Section 4.2).
//!
//! The query-only adversary cannot insert anything. Knowing (part of) the
//! filter state she crafts queries that either
//!
//! * **test positive without having been inserted** (false-positive forgery,
//!   Equation (8)) — used to flood a backing store behind the filter or to
//!   hide *ghost pages* from a crawler (Figures 6 and 7), or
//! * **touch as many set bits as possible before the final miss** (worst-case
//!   latency queries), maximising memory accesses per lookup.

use evilbloom_urlgen::UrlGenerator;

use crate::search::{search, SearchStats};
use crate::target::TargetFilter;

/// Result of a false-positive forgery search.
#[derive(Debug, Clone, PartialEq)]
pub struct ForgeryOutcome {
    /// The forged items; every one of them tests positive in the target
    /// filter even though it was never inserted.
    pub items: Vec<String>,
    /// Search cost accounting.
    pub stats: SearchStats,
    /// Per-candidate success probability `(W/m)^k` at the time of the search.
    pub success_probability: f64,
}

/// Forges `count` false positives against the current state of `filter`.
pub fn craft_false_positives<F: TargetFilter>(
    filter: &F,
    generator: &UrlGenerator,
    count: usize,
    max_attempts: u64,
) -> ForgeryOutcome {
    let success_probability = evilbloom_analysis::attack_probability::false_positive_forgery(
        filter.m(),
        filter.weight(),
        filter.k(),
    );
    let outcome = search(
        count,
        max_attempts,
        |i| generator.url(i),
        |candidate| filter.indexes_of(candidate.as_bytes()).iter().all(|&idx| filter.is_set(idx)),
    );
    ForgeryOutcome { items: outcome.items, stats: outcome.stats, success_probability }
}

/// Forges `count` worst-case-latency queries: items whose indexes hit set
/// bits for every probe except the last one, forcing the filter to touch all
/// `k` positions before answering "absent".
pub fn craft_latency_queries<F: TargetFilter>(
    filter: &F,
    generator: &UrlGenerator,
    count: usize,
    max_attempts: u64,
) -> ForgeryOutcome {
    let success_probability = evilbloom_analysis::attack_probability::latency_query(
        filter.m(),
        filter.weight(),
        filter.k(),
    );
    let k = filter.k() as usize;
    let outcome = search(
        count,
        max_attempts,
        |i| generator.url(i),
        |candidate| {
            let indexes = filter.indexes_of(candidate.as_bytes());
            let set_prefix = indexes[..k - 1].iter().all(|&idx| filter.is_set(idx));
            set_prefix && !filter.is_set(indexes[k - 1])
        },
    );
    ForgeryOutcome { items: outcome.items, stats: outcome.stats, success_probability }
}

/// A decoy tree in the style of Figure 7: a chain of decoy pages ending in
/// ghost pages that the target filter believes it has already seen.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostPlan {
    /// Decoy pages (real pages the crawler may visit), root first.
    pub decoys: Vec<String>,
    /// Ghost pages: forged false positives the crawler will skip.
    pub ghosts: Vec<String>,
    /// Search cost of forging the ghosts.
    pub stats: SearchStats,
}

/// Builds a ghost/decoy plan: `decoy_depth` chained decoy pages under
/// `root_domain`, whose leaves link to `ghost_count` forged ghost URLs.
pub fn plan_ghost_pages<F: TargetFilter>(
    filter: &F,
    root_domain: &str,
    decoy_depth: usize,
    ghost_count: usize,
    max_attempts: u64,
) -> GhostPlan {
    assert!(decoy_depth >= 1, "need at least the root decoy");
    let decoys: Vec<String> = (0..decoy_depth)
        .map(|level| {
            let path: Vec<String> = (0..=level).map(|l| format!("d{l}")).collect();
            format!("http://{root_domain}/{}", path.join("/"))
        })
        .collect();

    let ghost_generator = UrlGenerator::new(&format!("ghost-{root_domain}"));
    let forged = craft_false_positives(filter, &ghost_generator, ghost_count, max_attempts);

    GhostPlan { decoys, ghosts: forged.items, stats: forged.stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};

    /// A realistically loaded de-duplication filter (about half full).
    fn loaded_filter() -> ConcurrentBloomFilter {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::optimal(2000, 0.02),
            KirschMitzenmacher::new(Murmur3_128),
        );
        for i in 0..2000 {
            filter.insert(format!("http://already-crawled.example/{i}").as_bytes());
        }
        filter
    }

    #[test]
    fn forged_false_positives_all_test_positive() {
        let filter = loaded_filter();
        let generator = UrlGenerator::new("fp");
        let outcome = craft_false_positives(&filter, &generator, 20, 50_000_000);
        assert_eq!(outcome.items.len(), 20);
        for item in &outcome.items {
            assert!(filter.contains(item.as_bytes()), "{item} must be a false positive");
        }
        assert!(outcome.success_probability > 0.0);
    }

    #[test]
    fn forgery_cost_matches_table1_prediction() {
        let filter = loaded_filter();
        let generator = UrlGenerator::new("fp-cost");
        let outcome = craft_false_positives(&filter, &generator, 30, 100_000_000);
        let expected_attempts = 1.0 / outcome.success_probability;
        let measured = outcome.stats.attempts_per_accepted();
        // Geometric sampling is noisy with only 30 accepted items; accept a
        // factor-3 agreement.
        assert!(
            measured > expected_attempts / 3.0 && measured < expected_attempts * 3.0,
            "measured {measured}, expected ≈{expected_attempts}"
        );
    }

    #[test]
    fn latency_queries_touch_k_minus_1_set_bits() {
        let filter = loaded_filter();
        let generator = UrlGenerator::new("latency");
        let outcome = craft_latency_queries(&filter, &generator, 15, 10_000_000);
        assert_eq!(outcome.items.len(), 15);
        let k = filter.k() as usize;
        for item in &outcome.items {
            let indexes = filter.indexes(item.as_bytes());
            assert!(indexes[..k - 1].iter().all(|&i| filter.is_set(i)));
            assert!(!filter.is_set(indexes[k - 1]));
            assert!(!filter.contains(item.as_bytes()), "latency queries are negatives");
        }
    }

    #[test]
    fn ghost_plan_hides_pages_from_the_filter() {
        let filter = loaded_filter();
        let plan = plan_ghost_pages(&filter, "evil.example", 3, 5, 50_000_000);
        assert_eq!(plan.decoys.len(), 3);
        assert_eq!(plan.ghosts.len(), 5);
        assert!(plan.decoys[0].starts_with("http://evil.example/"));
        assert!(plan.decoys[2].split('/').count() > plan.decoys[0].split('/').count());
        for ghost in &plan.ghosts {
            assert!(filter.contains(ghost.as_bytes()), "ghost must look already-visited");
        }
    }

    #[test]
    fn forgery_against_empty_filter_finds_nothing() {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::explicit(1024, 4, 100),
            KirschMitzenmacher::new(Murmur3_128),
        );
        let generator = UrlGenerator::new("empty");
        let outcome = craft_false_positives(&filter, &generator, 1, 10_000);
        assert!(outcome.items.is_empty());
        assert_eq!(outcome.success_probability, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least the root decoy")]
    fn ghost_plan_requires_a_root() {
        let filter = loaded_filter();
        plan_ghost_pages(&filter, "evil.example", 0, 1, 1000);
    }
}
