//! Section 3 behaviour of the classic Bloom filter, checked on
//! [`ConcurrentBloomFilter`](crate::ConcurrentBloomFilter) — the crate's one
//! implementation — driven from a single thread the way the experiments and
//! attack engines drive it. Concurrency, batching and persistence are
//! covered next to the type in `concurrent.rs`.

mod tests {
    use crate::{ConcurrentBloomFilter, FilterParams};
    use evilbloom_hashes::{
        KeyedPair, KirschMitzenmacher, KmIndexes, Murmur3_32, SaltedCrypto, Sha256, SipHash24,
        SipKey,
    };

    fn small_filter() -> ConcurrentBloomFilter {
        ConcurrentBloomFilter::new(FilterParams::explicit(128, 3, 10), SaltedHashesMurmur())
    }

    #[allow(non_snake_case)]
    fn SaltedHashesMurmur() -> evilbloom_hashes::SaltedHashes<Murmur3_32> {
        evilbloom_hashes::SaltedHashes::new(Murmur3_32)
    }

    #[test]
    fn no_false_negatives() {
        let filter = ConcurrentBloomFilter::new(
            FilterParams::optimal(500, 0.01),
            KirschMitzenmacher::new(Murmur3_32),
        );
        let items: Vec<String> = (0..500).map(|i| format!("http://site{i}.example/")).collect();
        for item in &items {
            filter.insert(item.as_bytes());
        }
        for item in &items {
            assert!(filter.contains(item.as_bytes()), "false negative for {item}");
        }
    }

    #[test]
    fn false_positive_rate_close_to_design() {
        let params = FilterParams::optimal(2000, 0.02);
        let filter = ConcurrentBloomFilter::new(params, SaltedCrypto::new(Box::new(Sha256)));
        for i in 0..2000 {
            filter.insert(format!("member-{i}").as_bytes());
        }
        let probes = 20_000;
        let fp =
            (0..probes).filter(|i| filter.contains(format!("non-member-{i}").as_bytes())).count();
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.04, "observed fp rate {rate}");
        assert!(rate > 0.005, "suspiciously low fp rate {rate}");
    }

    #[test]
    fn insert_reports_fresh_bits() {
        let filter = small_filter();
        let fresh = filter.insert(b"first");
        assert!((1..=3).contains(&fresh));
        // Re-inserting the same item sets nothing new.
        assert_eq!(filter.insert(b"first"), 0);
        assert_eq!(filter.inserted(), 2);
    }

    #[test]
    fn weight_grows_by_at_most_k_per_insert() {
        let filter = small_filter();
        let mut last = 0;
        for i in 0..20 {
            filter.insert(format!("item-{i}").as_bytes());
            let w = filter.hamming_weight();
            assert!(w >= last && w <= last + 3);
            last = w;
        }
    }

    #[test]
    fn contains_indexes_matches_contains() {
        let filter = small_filter();
        filter.insert(b"present");
        let idx = filter.indexes(b"present");
        assert!(filter.contains_indexes(&idx));
        let idx_absent = filter.indexes(b"absent-item");
        assert_eq!(filter.contains(b"absent-item"), filter.contains_indexes(&idx_absent));
    }

    #[test]
    fn matching_bits_counts_partial_hits() {
        let filter = small_filter();
        let matching = |filter: &ConcurrentBloomFilter| {
            filter.indexes(b"anything").iter().filter(|&&i| filter.is_set(i)).count()
        };
        assert_eq!(matching(&filter), 0);
        filter.insert(b"anything");
        assert_eq!(matching(&filter), 3);
    }

    #[test]
    fn current_fpp_tracks_fill() {
        let filter = small_filter();
        assert_eq!(filter.current_false_positive_probability(), 0.0);
        for i in 0..30 {
            filter.insert(format!("x{i}").as_bytes());
        }
        let fpp = filter.current_false_positive_probability();
        assert!(fpp > 0.0 && fpp < 1.0);
        let expected = filter.fill_ratio().powi(3);
        assert!((fpp - expected).abs() < 1e-12);
    }

    #[test]
    fn saturation_answers_yes_to_everything() {
        let filter =
            ConcurrentBloomFilter::new(FilterParams::explicit(64, 2, 8), SaltedHashesMurmur());
        let mut i = 0;
        while !filter.is_saturated() {
            filter.insert(format!("spam-{i}").as_bytes());
            i += 1;
            assert!(i < 10_000, "saturation should happen quickly on 64 bits");
        }
        for probe in ["a", "b", "c", "never inserted"] {
            assert!(filter.contains(probe.as_bytes()));
        }
        assert_eq!(filter.current_false_positive_probability(), 1.0);
    }

    #[test]
    fn keyed_filters_with_different_keys_disagree_internally() {
        let params = FilterParams::explicit(1 << 12, 4, 100);
        let a = ConcurrentBloomFilter::new(
            params,
            KmIndexes::new(KeyedPair::new(Box::new(SipHash24::new(SipKey::new(1, 1))))),
        );
        let b = ConcurrentBloomFilter::new(
            params,
            KmIndexes::new(KeyedPair::new(Box::new(SipHash24::new(SipKey::new(2, 2))))),
        );
        a.insert(b"item");
        b.insert(b"item");
        assert_ne!(a.snapshot_words(), b.snapshot_words());
        // Both still answer membership correctly.
        assert!(a.contains(b"item") && b.contains(b"item"));
    }

    #[test]
    fn support_and_zero_positions_partition_the_filter() {
        let filter = small_filter();
        for i in 0..5 {
            filter.insert(format!("i{i}").as_bytes());
        }
        let ones = (0..filter.m()).filter(|&i| filter.is_set(i)).count() as u64;
        let zeros = (0..filter.m()).filter(|&i| !filter.is_set(i)).count() as u64;
        assert_eq!(ones + zeros, filter.m());
        assert_eq!(ones, filter.hamming_weight());
    }

    #[test]
    fn debug_output_mentions_strategy() {
        let filter = small_filter();
        let text = format!("{filter:?}");
        assert!(text.contains("MurmurHash3"));
    }
}
