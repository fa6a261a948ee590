//! # evilbloom-bench
//!
//! Criterion benchmarks regenerating the performance figures and tables of
//! the paper. Helpers shared by the benches live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use criterion::report::Json;
use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
use evilbloom_hashes::{IndexStrategy, KirschMitzenmacher, Murmur3_128};

/// Schema version of the perf runner's report (`BENCH_<n>.json`). Bump when
/// a field changes meaning; baselines from other schema versions are
/// rejected by [`load_baseline`].
pub const PERF_SCHEMA_VERSION: f64 = 1.0;

/// Parses and validates a perf baseline document. Errors are one-line,
/// operator-readable strings — the perf runner prints them and exits
/// instead of panicking on a stale or corrupted baseline file.
pub fn parse_baseline(text: &str, expected_schema: f64) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON ({e})"))?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or_else(|| "missing a numeric schema_version field".to_string())?;
    if version != expected_schema {
        return Err(format!(
            "schema_version {version} does not match the supported version {expected_schema} \
             (regenerate it with the current perf runner)"
        ));
    }
    if doc.get("workloads").and_then(Json::as_array).is_none() {
        return Err("missing the workloads array".to_string());
    }
    Ok(doc)
}

/// Reads and validates a baseline file; see [`parse_baseline`].
pub fn load_baseline(path: &str, expected_schema: f64) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("baseline {path}: cannot read ({e})"))?;
    parse_baseline(&text, expected_schema).map_err(|e| format!("baseline {path}: {e}"))
}

/// Whether a workload id is selected by the perf runner's `--filter`
/// argument: no filter selects everything, otherwise plain substring
/// matching (so `--filter server/` runs the whole server family and
/// `--filter conn_scaling` just the slow connection-scaling suite).
pub fn workload_selected(id: &str, filter: Option<&str>) -> bool {
    filter.is_none_or(|needle| id.contains(needle))
}

/// Every workload id the perf runner can run, in run order — what
/// `perf --list` prints and what `--filter` selects from.
pub const WORKLOAD_IDS: &[&str] = &[
    "hash/murmur3_128",
    "hash/murmur3_128_pair",
    "hash/siphash24",
    "hash/sha256",
    "hash/md5",
    "filter/standard/insert",
    "filter/standard/query",
    "filter/blocked/insert",
    "filter/blocked/query",
    "filter/hardened/query",
    "concurrent/query_loop",
    "concurrent/query_batch",
    "store/insert_batch",
    "store/query_loop",
    "store/query_batch",
    "store/counting_insert_batch",
    "store/counting_query_batch",
    "store/counting_remove_batch",
    "store/wal_insert_batch",
    "store/snapshot_while_serving",
    "store/recovery_replay",
    "server/query",
    "server/query_batch",
    "server/metrics_overhead",
    "server/trace_overhead",
    "server/fault_hooks_overhead",
    "server/delete_batch",
    "server/attack_mix",
    "server/conn_scaling/c64",
    "server/conn_scaling/c1k",
    "server/conn_scaling/c8k",
    "attack/pollution_drift/standard",
    "attack/pollution_drift/blocked",
];

/// Applies [`workload_selected`] to a workload-id list, preserving order —
/// what `perf --list --filter <substring>` prints and `perf --filter`
/// runs.
pub fn select_workloads<'a>(ids: &[&'a str], filter: Option<&str>) -> Vec<&'a str> {
    ids.iter().copied().filter(|id| workload_selected(id, filter)).collect()
}

/// Builds a Bloom filter loaded to roughly `fill` fraction of set bits, used
/// as the target of forgery benches.
pub fn loaded_filter(m: u64, k: u32, fill: f64) -> ConcurrentBloomFilter {
    assert!((0.0..1.0).contains(&fill), "fill must be in [0, 1)");
    let filter = ConcurrentBloomFilter::new(
        FilterParams::explicit(m, k, m / (2 * u64::from(k)).max(1)),
        KirschMitzenmacher::new(Murmur3_128),
    );
    let mut i = 0u64;
    while filter.fill_ratio() < fill {
        filter.insert(format!("load-{i}").as_bytes());
        i += 1;
    }
    filter
}

/// A fixed 32-byte item, matching the Table 2 setup.
pub const ITEM_32B: [u8; 32] = [0xabu8; 32];

/// The Table 2 filter parameters: n = 10^6 items at f = 2^-10.
pub fn table2_params() -> FilterParams {
    FilterParams::optimal(1_000_000, 2f64.powi(-10))
}

/// Derives indexes with a strategy once (convenience for benches).
pub fn derive(strategy: &dyn IndexStrategy, params: FilterParams) -> u64 {
    strategy.indexes(&ITEM_32B, params.k, params.m)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaded_filter_reaches_target_fill() {
        let filter = loaded_filter(4096, 4, 0.5);
        assert!(filter.fill_ratio() >= 0.5);
        assert!(filter.fill_ratio() < 0.6);
    }

    #[test]
    fn table2_params_match_paper_setup() {
        let params = table2_params();
        assert_eq!(params.k, 10);
    }

    #[test]
    fn unparsable_baseline_is_a_clear_error() {
        let err = parse_baseline("{not json", PERF_SCHEMA_VERSION).expect_err("must reject");
        assert!(err.contains("not valid JSON"), "{err}");
        // One line: the perf runner prints this verbatim.
        assert!(!err.contains('\n'), "{err}");
    }

    #[test]
    fn mismatched_schema_version_is_a_clear_error() {
        let text = r#"{"schema_version": 99.0, "workloads": []}"#;
        let err = parse_baseline(text, PERF_SCHEMA_VERSION).expect_err("must reject");
        assert!(err.contains("schema_version 99"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }

    #[test]
    fn missing_schema_version_is_a_clear_error() {
        let err =
            parse_baseline(r#"{"workloads": []}"#, PERF_SCHEMA_VERSION).expect_err("must reject");
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn missing_workloads_is_a_clear_error() {
        let err = parse_baseline(r#"{"schema_version": 1.0}"#, PERF_SCHEMA_VERSION)
            .expect_err("must reject");
        assert!(err.contains("workloads"), "{err}");
    }

    #[test]
    fn valid_baseline_loads() {
        let text = r#"{"schema_version": 1.0, "workloads": [{"id": "hash/md5", "ns_per_op_median": 100.0}]}"#;
        let doc = parse_baseline(text, PERF_SCHEMA_VERSION).expect("valid");
        assert_eq!(doc.get("workloads").and_then(Json::as_array).map(<[Json]>::len), Some(1));
    }

    #[test]
    fn every_baseline_timing_row_is_listed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");
        let baseline = load_baseline(path, PERF_SCHEMA_VERSION).expect("committed baseline");
        let rows = baseline.get("workloads").and_then(Json::as_array).expect("workloads");
        for row in rows {
            if row.get("kind").and_then(Json::as_str) == Some("timing") {
                let id = row.get("id").and_then(Json::as_str).expect("row id");
                assert!(WORKLOAD_IDS.contains(&id), "{id} is gated but not listed");
            }
        }
    }

    #[test]
    fn counting_rows_are_selectable() {
        assert_eq!(
            select_workloads(WORKLOAD_IDS, Some("counting")),
            vec![
                "store/counting_insert_batch",
                "store/counting_query_batch",
                "store/counting_remove_batch"
            ]
        );
        assert_eq!(
            select_workloads(WORKLOAD_IDS, Some("delete_batch")),
            vec!["server/delete_batch"]
        );
    }

    #[test]
    fn no_filter_selects_every_workload() {
        let ids = ["hash/md5", "server/query", "server/conn_scaling/c1k"];
        assert_eq!(select_workloads(&ids, None), ids.to_vec());
    }

    #[test]
    fn filter_is_substring_matching() {
        let ids = ["hash/md5", "server/query", "server/query_batch", "store/query_batch"];
        assert_eq!(
            select_workloads(&ids, Some("server/")),
            vec!["server/query", "server/query_batch"]
        );
        assert_eq!(
            select_workloads(&ids, Some("query_batch")),
            vec!["server/query_batch", "store/query_batch"]
        );
        assert!(select_workloads(&ids, Some("no-such-workload")).is_empty());
        assert!(workload_selected("hash/md5", Some("md5")));
        assert!(!workload_selected("hash/md5", Some("sha")));
    }

    #[test]
    fn filter_preserves_suite_order() {
        let ids = ["b/2", "a/1", "b/1"];
        assert_eq!(select_workloads(&ids, Some("b/")), vec!["b/2", "b/1"]);
    }

    #[test]
    fn unreadable_baseline_file_is_a_clear_error() {
        let err = load_baseline("/nonexistent/baseline.json", PERF_SCHEMA_VERSION)
            .expect_err("must reject");
        assert!(err.contains("cannot read"), "{err}");
    }
}
