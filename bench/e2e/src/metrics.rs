//! The benchmark's metric vocabulary. `BENCHMARK.json`, the run report and
//! `compare` all follow these tables; a test keeps the JSON in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (unused per layer).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: 0.0 }
}

/// Reported by every untraced run, on every workload. Bounds come from the
/// seed-spread baseline under `seed/` (see README.md).
pub const END_TO_END: [Metric; 5] = [
    e2e("items_per_s", "items/s", Better::Higher, 0.24),
    e2e("frame_p50_us", "us", Better::Lower, 0.2),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("rss_mb", "MB", Better::Lower, 0.12),
    e2e("fpp_drift", "ratio", Better::Lower, 0.1),
];

/// Reported by every traced run, on every workload. Times are per item
/// unless the name says otherwise.
pub const PER_LAYER: [Metric; 23] = [
    layer("client.frame_p99_us", "us"),
    layer("hashes.index_ns", "ns"),
    layer("store.route_ns", "ns"),
    layer("filters.op_ns", "ns"),
    layer("filters.probe_ns", "ns"),
    layer("filters.fill", "ratio"),
    layer("store.op_ns", "ns"),
    layer("store.self_ns", "ns"),
    layer("persist.wal_ns", "ns"),
    layer("persist.snapshot_ms", "ms"),
    layer("persist.replay_ns", "ns"),
    layer("persist.wal_bytes_per_item", "bytes"),
    layer("persist.snapshot_bytes", "bytes"),
    layer("wire.encode_ns", "ns"),
    layer("wire.decode_ns", "ns"),
    layer("wire.bytes_per_item", "bytes"),
    layer("server.exec_ns", "ns"),
    layer("server.cpu_ns", "ns"),
    layer("server.residual_ns", "ns"),
    layer("client.send_ns", "ns"),
    layer("client.recv_wait_ns", "ns"),
    layer("loadgen.cpu_frac", "ratio"),
    layer("tracing.overhead", "ratio"),
];

#[cfg(test)]
fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use criterion::report::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_table(json: &Json, key: &str, table: &[Metric], with_bound: bool) {
        let listed = json.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(listed.len(), table.len(), "{key} length");
        for (entry, metric) in listed.iter().zip(table) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(metric.better.name()));
            if with_bound {
                assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(metric.bound));
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = benchmark_json();
        check_table(&json, "end_to_end", &END_TO_END, true);
        check_table(&json, "per_layer", &PER_LAYER, false);
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn names_use_the_allowed_alphabet_and_setup_has_the_largest_bound() {
        let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(metric.name.chars().all(allowed), "{}", metric.name);
            assert!(metric.name.len() <= 64);
        }
        let setup = end_to_end("setup_s").expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
