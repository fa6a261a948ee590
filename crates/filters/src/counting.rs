//! Counter semantics of the counting Bloom filter (Fan et al.), the
//! deletable variant Dablooms builds on and the Section 4.3 deletion
//! adversary targets. The filter itself is
//! [`ConcurrentCountingFilter`](crate::ConcurrentCountingFilter); this
//! module holds the rule for what a full counter does.

/// What happens when a counter is incremented past its maximum value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// The counter freezes at its maximum and is never incremented or
    /// decremented again (the conservative policy).
    #[default]
    Saturate,
    /// The counter wraps around to zero — the policy the paper's
    /// counter-overflow attack on Dablooms exploits (Section 6.2): cells
    /// receiving a multiple of `2^bits` increments read zero, silently
    /// erasing membership information.
    Wrap,
}

impl OverflowPolicy {
    /// The value a cell holding `prior` takes on insertion, for counters
    /// whose maximum is `max`.
    #[inline]
    pub(crate) fn increment(self, prior: u8, max: u8) -> u8 {
        match self {
            _ if prior < max => prior + 1,
            OverflowPolicy::Saturate => prior,
            OverflowPolicy::Wrap => 0,
        }
    }

    /// The value a cell holding `prior` takes on deletion: empty cells stay
    /// empty, and under [`OverflowPolicy::Saturate`] full cells stay frozen.
    #[inline]
    pub(crate) fn decrement(self, prior: u8, max: u8) -> u8 {
        match self {
            _ if prior == 0 => 0,
            OverflowPolicy::Saturate if prior >= max => prior,
            _ => prior - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{ConcurrentCountingFilter, CountingOptions, FilterParams};
    use evilbloom_hashes::{IndexStrategy, KirschMitzenmacher, Murmur3_32};

    fn strategy() -> Arc<dyn IndexStrategy> {
        Arc::new(KirschMitzenmacher::new(Murmur3_32))
    }

    fn dablooms_like(m: u64, k: u32) -> ConcurrentCountingFilter {
        ConcurrentCountingFilter::new(
            FilterParams::explicit(m, k, m / 10),
            KirschMitzenmacher::new(Murmur3_32),
        )
    }

    fn with_width(m: u64, k: u32, counter_bits: u8) -> ConcurrentCountingFilter {
        ConcurrentCountingFilter::with_shared_strategy(
            FilterParams::explicit(m, k, m / 8),
            strategy(),
            CountingOptions { counter_bits },
        )
    }

    #[test]
    fn insert_then_contains_then_delete() {
        let filter = dablooms_like(1024, 4);
        filter.insert(b"http://phish.example/");
        assert!(filter.contains(b"http://phish.example/"));
        assert!(filter.remove(b"http://phish.example/"));
        assert!(!filter.contains(b"http://phish.example/"));
    }

    #[test]
    fn no_false_negatives_without_deletion() {
        let filter = dablooms_like(4096, 4);
        let items: Vec<String> = (0..300).map(|i| format!("url-{i}")).collect();
        for item in &items {
            filter.insert(item.as_bytes());
        }
        for item in &items {
            assert!(filter.contains(item.as_bytes()));
        }
    }

    #[test]
    fn deleting_one_of_two_identical_insertions_keeps_membership() {
        let filter = dablooms_like(1024, 4);
        filter.insert(b"dup");
        filter.insert(b"dup");
        filter.remove(b"dup");
        assert!(filter.contains(b"dup"), "one copy must remain");
        filter.remove(b"dup");
        assert!(!filter.contains(b"dup"));
    }

    #[test]
    fn deletion_of_overlapping_item_creates_false_negative() {
        // The deletion-adversary failure mode: removing an item that shares
        // cells with a genuine member can evict the member.
        let filter = dablooms_like(64, 4);
        // Pick a victim whose index set contains at least one non-duplicated
        // cell (its counter is exactly 1 after insertion), so a single
        // decrement is guaranteed to evict it.
        let victim = (0..100u32)
            .map(|i| format!("victim-{i}"))
            .find(|v| {
                let idx = filter.indexes(v.as_bytes());
                let mut counts = std::collections::HashMap::new();
                for c in idx {
                    *counts.entry(c).or_insert(0u32) += 1;
                }
                counts.values().any(|&c| c == 1)
            })
            .expect("some candidate has a non-duplicated cell");
        filter.insert(victim.as_bytes());
        let victim_cells: std::collections::HashSet<u64> = filter
            .indexes(victim.as_bytes())
            .into_iter()
            .filter(|&c| filter.counter(c) == 1)
            .collect();
        assert!(!victim_cells.is_empty());
        let attacker_item = (0..10_000)
            .map(|i| format!("candidate-{i}"))
            .find(|c| filter.indexes(c.as_bytes()).iter().any(|i| victim_cells.contains(i)))
            .expect("small filter guarantees an overlap");
        // Delete the overlapping item even though it was never inserted.
        filter.remove(attacker_item.as_bytes());
        assert!(!filter.contains(victim.as_bytes()), "victim should have been evicted");
    }

    #[test]
    fn counter_overflow_freezes_cells() {
        let filter = dablooms_like(32, 2);
        assert_eq!(filter.counter_max(), 15);
        // Insert the same item 20 times: its two cells overflow at 15.
        for _ in 0..20 {
            filter.insert(b"hot");
        }
        assert!(filter.overflows() > 0);
        assert_eq!(
            filter.saturated_cells(),
            filter.indexes(b"hot").iter().collect::<std::collections::HashSet<_>>().len() as u64
        );
        // Deleting 20 times leaves the frozen counters at max: the item can
        // never be removed — a permanent false positive.
        for _ in 0..20 {
            filter.remove(b"hot");
        }
        assert!(filter.contains(b"hot"), "frozen counters keep the item visible");
    }

    #[test]
    fn overflow_counts_are_reported() {
        let filter = dablooms_like(16, 1);
        for _ in 0..100 {
            filter.insert(b"x");
        }
        assert_eq!(filter.overflows(), 100 - 15);
    }

    #[test]
    fn custom_counter_width() {
        let filter = with_width(128, 3, 2);
        assert_eq!(filter.counter_max(), 3);
        // Every cell takes a nibble: a narrower counter saves no memory.
        assert_eq!(filter.memory_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_width_counters_rejected() {
        with_width(16, 2, 0);
    }

    #[test]
    fn stats_track_operations() {
        let filter = dablooms_like(256, 3);
        filter.insert(b"a");
        filter.insert(b"b");
        filter.remove(b"a");
        assert_eq!(filter.inserted(), 2);
        assert_eq!(filter.deleted(), 1);
        assert!(filter.occupied_cells() >= 1);
        assert!(filter.fill_ratio() > 0.0);
        assert!(filter.current_false_positive_probability() < 1.0);
    }

    #[test]
    fn memory_is_half_a_byte_per_cell_for_4bit_counters() {
        let filter = dablooms_like(1000, 4);
        assert_eq!(filter.memory_bytes(), 500);
    }

    #[test]
    fn wrapping_policy_erases_membership_on_overflow() {
        let filter = ConcurrentCountingFilter::with_overflow_policy(
            FilterParams::explicit(64, 2, 8),
            strategy(),
            CountingOptions::default(),
            OverflowPolicy::Wrap,
        );
        assert_eq!(filter.overflow_policy(), OverflowPolicy::Wrap);
        // 16 insertions of the same item wrap its counters back to zero.
        for _ in 0..16 {
            filter.insert(b"wrapped");
        }
        assert!(!filter.contains(b"wrapped"), "membership silently erased");
        assert!(filter.overflows() > 0);
        assert_eq!(filter.occupied_cells(), 0);
        assert_eq!(filter.occupied_cells_approx(), 0);
    }

    #[test]
    fn default_policy_is_saturate() {
        let filter = dablooms_like(64, 2);
        assert_eq!(filter.overflow_policy(), OverflowPolicy::Saturate);
        assert_eq!(OverflowPolicy::default(), OverflowPolicy::Saturate);
    }
}
