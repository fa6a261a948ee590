//! Behaviour of the scalable Bloom filter (Almeida, Baquero, Preguiça &
//! Hutchison), checked on
//! [`ConcurrentScalableFilter`](crate::ConcurrentScalableFilter) — the
//! crate's one implementation — and on the [`ScalableConfig`] that builds
//! its counting-slice instantiation, Dablooms.
//!
//! A scalable filter is a growing stack of plain Bloom filters. Sub-filter
//! `i` is created when sub-filter `i-1` reaches its insertion threshold
//! `δ`, and targets a false-positive probability `f_i = f_0 · r^i` so that
//! the compound probability `F = 1 - Π(1 - f_i)` stays bounded.
//!
//! [`ScalableConfig`]: crate::ScalableConfig

mod tests {
    use std::sync::Arc;

    use crate::{
        ConcurrentScalableFilter, Dablooms, FilterParams, ScalableConfig, ScalableOptions,
    };
    use evilbloom_hashes::{KirschMitzenmacher, Murmur3_32};

    /// Slices of 100 insertions, `f_0 = 0.01`, `r = 0.9`.
    fn new_filter() -> ConcurrentScalableFilter {
        ConcurrentScalableFilter::with_shared_strategy(
            FilterParams::optimal(100, 0.01),
            Arc::new(KirschMitzenmacher::new(Murmur3_32)),
            ScalableOptions { tightening_ratio: 0.9 },
        )
    }

    #[test]
    fn dablooms_config_matches_paper() {
        let c = ScalableConfig::dablooms();
        assert_eq!(c.slice_capacity, 10_000);
        assert_eq!(c.base_fpp, 0.01);
        assert_eq!(c.tightening_ratio, 0.9);
        let filter = Dablooms::new(c, KirschMitzenmacher::new(Murmur3_32));
        assert_eq!(filter.slice_params(0), FilterParams::optimal(10_000, 0.01));
        assert_eq!(filter.slice_params(9), FilterParams::optimal(10_000, 0.01 * 0.9f64.powi(9)));
    }

    #[test]
    fn grows_every_slice_capacity_insertions() {
        let filter = new_filter();
        assert_eq!(filter.slice_count(), 1);
        for i in 0..550u32 {
            filter.insert(format!("item-{i}").as_bytes());
        }
        assert_eq!(filter.slice_count(), 6);
        assert_eq!(filter.inserted(), 550);
    }

    #[test]
    fn no_false_negatives_across_slices() {
        let filter = new_filter();
        let items: Vec<String> = (0..450).map(|i| format!("url-{i}")).collect();
        for item in &items {
            filter.insert(item.as_bytes());
        }
        for item in &items {
            assert!(filter.contains(item.as_bytes()), "false negative for {item}");
        }
    }

    #[test]
    fn later_slices_are_larger_per_item() {
        // Tighter targets need more bits per item.
        let filter = new_filter();
        for i in 0..350u32 {
            filter.insert(format!("x{i}").as_bytes());
        }
        let sizes: Vec<u64> = (0..filter.slice_count()).map(|i| filter.slice_params(i).m).collect();
        assert_eq!(sizes.len(), 4);
        for pair in sizes.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
    }

    #[test]
    fn compound_fpp_stays_bounded_under_honest_load() {
        let filter = new_filter();
        for i in 0..1000u32 {
            filter.insert(format!("honest-{i}").as_bytes());
        }
        let compound = filter.current_false_positive_probability();
        // The design bound is roughly f0 / (1 - r) = 0.1.
        assert!(compound < 0.12, "compound fpp {compound}");
    }

    #[test]
    fn observed_false_positive_rate_matches_compound_estimate() {
        let filter = new_filter();
        for i in 0..500u32 {
            filter.insert(format!("member-{i}").as_bytes());
        }
        let probes = 20_000;
        let fp = (0..probes).filter(|i| filter.contains(format!("probe-{i}").as_bytes())).count();
        let observed = fp as f64 / probes as f64;
        let predicted = filter.current_false_positive_probability();
        assert!((observed - predicted).abs() < 0.02, "observed {observed} predicted {predicted}");
    }

    #[test]
    fn slice_mut_allows_direct_pollution() {
        // The pollution experiments set bits of a slice directly.
        let filter = new_filter();
        let slice = filter.active_slice();
        for i in 0..slice.m() {
            slice.insert_indexes(&[i]);
        }
        assert!(slice.is_saturated());
        assert!(filter.contains(b"never inserted"));
    }

    #[test]
    fn memory_grows_with_slices() {
        let filter = new_filter();
        let initial = filter.memory_bytes();
        for i in 0..300u32 {
            filter.insert(format!("y{i}").as_bytes());
        }
        assert!(filter.memory_bytes() > initial * 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn invalid_config_rejected() {
        Dablooms::new(
            ScalableConfig { slice_capacity: 0, base_fpp: 0.01, tightening_ratio: 0.9 },
            KirschMitzenmacher::new(Murmur3_32),
        );
    }
}
