//! The perf-lab runner: a fixed suite of workloads timed with warm-up +
//! median-of-N sampling, emitted as a schema'd, machine-readable
//! `BENCH_<n>.json` at the repo root and regression-gated against a
//! committed baseline in CI.
//!
//! ```text
//! cargo run --release -p evilbloom-bench --bin perf            # full suite
//! cargo run --release -p evilbloom-bench --bin perf -- --quick # CI smoke
//! cargo run --release -p evilbloom-bench --bin perf -- \
//!     --quick --baseline bench/baseline.json                   # guarded
//! cargo run --release -p evilbloom-bench --bin perf -- \
//!     --filter conn_scaling                                    # a subset
//! ```
//!
//! See the README's "Performance lab" section for the JSON schema and the
//! regression-guard semantics (calibration-normalised ns/op, default
//! tolerance 25%).

use std::sync::Arc;
use std::time::Instant;

use criterion::report::Json;
use criterion::{black_box, measure, MeasureOptions, Measurement};

use evilbloom_attacks::pollution::craft_polluting_items;
use evilbloom_bench::{
    load_baseline, select_workloads, workload_selected, PERF_SCHEMA_VERSION, WORKLOAD_IDS,
};
use evilbloom_fault::{FaultPlan, FaultPoint};
use evilbloom_filters::{
    hardened_filter, ConcurrentBloomFilter, FilterKey, FilterParams, HardeningLevel,
};
use evilbloom_hashes::{
    md5, sha256, siphash24, BlockedKm, HashStrategy, KirschMitzenmacher, Murmur128Pair,
    Murmur3_128, SipKey, BLOCK_BITS,
};
use evilbloom_server::{
    loopback_connection_budget, Client, Command, Response, Server, ServerConfig,
};
use evilbloom_store::{craft_store_pollution, BloomStore, PersistConfig};
use evilbloom_urlgen::UrlGenerator;

/// Workloads whose geometric-mean ns/op is the calibration unit every
/// regression comparison is normalised by (see `compare_against_baseline`).
/// Using the whole hash family (instead of a single workload) keeps the
/// denominator stable when one hash regresses — and every hash workload is
/// itself gated, so a calibration-member regression still trips the guard.
const CALIBRATION_PREFIX: &str = "hash/";
/// Default regression tolerance: fail on > 25% normalised ns/op growth.
const DEFAULT_TOLERANCE: f64 = 0.25;

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut dir = ".".to_string();
    let mut baseline: Option<String> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut list = false;
    let mut filter: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            "--out" => out = Some(expect_value(&args, &mut i, "--out")),
            "--dir" => dir = expect_value(&args, &mut i, "--dir"),
            "--baseline" => baseline = Some(expect_value(&args, &mut i, "--baseline")),
            "--filter" => filter = Some(expect_value(&args, &mut i, "--filter")),
            "--tolerance" => {
                tolerance = expect_value(&args, &mut i, "--tolerance")
                    .parse()
                    .expect("--tolerance takes a fraction, e.g. 0.25");
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let suite = Suite::new(quick, filter);
    if list {
        for id in select_workloads(WORKLOAD_IDS, suite.filter.as_deref()) {
            println!("{id}");
        }
        return;
    }

    // Validate the baseline BEFORE spending minutes on the suite: a stale
    // or corrupted baseline is an operator problem, not a bug — one clear
    // line and a distinct exit code, never a panic.
    let baseline =
        baseline.map(|baseline_path| match load_baseline(&baseline_path, PERF_SCHEMA_VERSION) {
            Ok(doc) => (baseline_path, doc),
            Err(message) => {
                eprintln!("perf: {message}");
                std::process::exit(2);
            }
        });

    let started = Instant::now();
    let report = suite.run();
    eprintln!("\nsuite completed in {:.1}s", started.elapsed().as_secs_f64());

    let path = out.unwrap_or_else(|| next_bench_path(&dir));
    std::fs::write(&path, report.to_json().to_pretty()).expect("write report");
    println!("\nreport written to {path}");

    // Evaluate every paired gate before exiting so a run that blows more
    // than one budget reports all of them, not just the first.
    let metrics_ok = paired_overhead_gate(
        &report,
        "server/scrape_overhead",
        "metrics_scrape_ratio_median",
        "METRICS",
    );
    let trace_ok = paired_overhead_gate(
        &report,
        "server/scrape_overhead",
        "trace_scrape_ratio_median",
        "TRACE",
    );
    let fault_ok = paired_overhead_gate(
        &report,
        "server/fault_hooks_overhead",
        "fault_hooks_ratio_median",
        "fault hooks",
    );
    if !(metrics_ok && trace_ok && fault_ok) {
        std::process::exit(1);
    }

    if let Some((baseline_path, baseline_doc)) = baseline {
        if !compare_against_baseline(&report, &baseline_doc, tolerance) {
            eprintln!(
                "\nPERF REGRESSION against {baseline_path} (tolerance {:.0}%)",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "no perf regression against {baseline_path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
}

fn expect_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i).unwrap_or_else(|| panic!("{flag} requires a value")).clone()
}

fn print_usage() {
    eprintln!(
        "usage: perf [--quick] [--out PATH] [--dir DIR] [--baseline PATH] \
         [--tolerance FRAC] [--filter SUBSTRING] [--list]"
    );
}

/// Next unused `BENCH_<n>.json` path in `dir` (n starts at 1).
fn next_bench_path(dir: &str) -> String {
    let mut max = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(n) = name.strip_prefix("BENCH_").and_then(|r| r.strip_suffix(".json")) {
                if let Ok(n) = n.parse::<u64>() {
                    max = max.max(n);
                }
            }
        }
    }
    format!("{}/BENCH_{}.json", dir.trim_end_matches('/'), max + 1)
}

/// One timed workload: median ns per *element* (a batch workload divides the
/// per-call time by its batch size).
struct TimingRecord {
    id: String,
    ns_per_op_median: f64,
    ns_per_op_best: f64,
    samples: usize,
    iters_per_sample: u64,
    elements_per_iter: u64,
}

impl TimingRecord {
    fn from_measurement(m: Measurement, elements_per_iter: u64) -> Self {
        let e = elements_per_iter as f64;
        TimingRecord {
            id: m.id,
            ns_per_op_median: m.ns_per_op_median / e,
            ns_per_op_best: m.ns_per_op_best / e,
            samples: m.samples,
            iters_per_sample: m.iters_per_sample,
            elements_per_iter,
        }
    }

    fn ops_per_sec(&self) -> f64 {
        1e9 / self.ns_per_op_median
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("kind", Json::Str("timing".to_string())),
            ("ns_per_op_median", Json::Num(self.ns_per_op_median)),
            ("ns_per_op_best", Json::Num(self.ns_per_op_best)),
            ("ops_per_sec", Json::Num(self.ops_per_sec())),
            ("samples", Json::Num(self.samples as f64)),
            ("iters_per_sample", Json::Num(self.iters_per_sample as f64)),
            ("elements_per_iter", Json::Num(self.elements_per_iter as f64)),
        ])
    }
}

/// One observable (non-timing) workload: named scalar metrics, e.g. the
/// false-positive drift a pollution attack induces.
struct ObservableRecord {
    id: String,
    metrics: Vec<(&'static str, f64)>,
}

impl ObservableRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("kind", Json::Str("observable".to_string())),
            (
                "metrics",
                Json::Obj(
                    self.metrics.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect(),
                ),
            ),
        ])
    }
}

struct Comparison {
    id: &'static str,
    baseline: &'static str,
    candidate: &'static str,
    /// `baseline_ns / candidate_ns` — above 1.0 the candidate wins.
    speedup: f64,
}

struct Report {
    quick: bool,
    timings: Vec<TimingRecord>,
    observables: Vec<ObservableRecord>,
    comparisons: Vec<Comparison>,
}

impl Report {
    fn to_json(&self) -> Json {
        let mut workloads: Vec<Json> = self.timings.iter().map(TimingRecord::to_json).collect();
        workloads.extend(self.observables.iter().map(ObservableRecord::to_json));
        Json::obj(vec![
            ("schema_version", Json::Num(PERF_SCHEMA_VERSION)),
            ("suite", Json::Str("evilbloom-perf".to_string())),
            ("mode", Json::Str(if self.quick { "quick" } else { "full" }.to_string())),
            ("env", env_info()),
            ("calibration", Json::Str(format!("geomean({CALIBRATION_PREFIX}*)"))),
            ("workloads", Json::Arr(workloads)),
            (
                "comparisons",
                Json::Arr(
                    self.comparisons
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("id", Json::Str(c.id.to_string())),
                                ("baseline", Json::Str(c.baseline.to_string())),
                                ("candidate", Json::Str(c.candidate.to_string())),
                                ("speedup", Json::Num(c.speedup)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn env_info() -> Json {
    Json::obj(vec![
        ("os", Json::Str(std::env::consts::OS.to_string())),
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
        ("cpu_model", Json::Str(cpu_model())),
        ("cpus", Json::Num(std::thread::available_parallelism().map_or(0, |p| p.get()) as f64)),
        ("debug_build", Json::Bool(cfg!(debug_assertions))),
        ("crate_version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
    ])
}

/// The host CPU's `model name` from `/proc/cpuinfo`, or `"unknown"` where
/// there is none, so reports from different hosts are told apart.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name")?.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fixed workload suite. `quick` shrinks data sizes and sampling budget
/// (CI smoke mode); ids and shapes are identical in both modes so quick runs
/// compare against quick baselines.
struct Suite {
    quick: bool,
    filter: Option<String>,
    opts: MeasureOptions,
    filter_capacity: u64,
    batch: usize,
    pollution_attempts: u64,
    /// Open-connection tiers of the `server/conn_scaling/*` workloads
    /// (quick mode shrinks the counts like every other size knob; the tier
    /// names stay fixed so quick runs compare against quick baselines).
    conn_tiers: [(&'static str, usize); 3],
}

impl Suite {
    fn new(quick: bool, filter: Option<String>) -> Self {
        Suite {
            quick,
            filter,
            opts: if quick { MeasureOptions::quick() } else { MeasureOptions::default() },
            filter_capacity: if quick { 200_000 } else { 1_000_000 },
            batch: 1024,
            pollution_attempts: if quick { 3_000_000 } else { 30_000_000 },
            conn_tiers: if quick {
                [("c64", 64), ("c1k", 256), ("c8k", 1024)]
            } else {
                [("c64", 64), ("c1k", 1000), ("c8k", 8000)]
            },
        }
    }

    /// Whether `--filter` selects this workload id.
    fn selected(&self, id: &str) -> bool {
        workload_selected(id, self.filter.as_deref())
    }

    /// Whether any id with this prefix is selected (guards expensive
    /// workload-family setup when `--filter` excludes the whole family).
    fn family_selected(&self, prefix: &str) -> bool {
        WORKLOAD_IDS.iter().any(|id| id.starts_with(prefix) && self.selected(id))
    }

    fn run(&self) -> Report {
        let mut timings = Vec::new();
        let mut observables = Vec::new();

        let server_selected = self.family_selected("server/query")
            || self.family_selected("server/attack_mix")
            || self.family_selected("server/fault")
            || self.selected("server/delete_batch");
        // One shared item universe: the member/probe sets are the costly
        // part of the setup (millions of string allocations in full mode).
        // Skipped when --filter selects none of the workloads that use it.
        let needs_items = self.family_selected("filter/")
            || self.family_selected("concurrent/")
            || self.family_selected("store/")
            || server_selected;
        let (members, probes) =
            if needs_items { self.items(self.filter_capacity as usize) } else { (vec![], vec![]) };

        self.hash_workloads(&mut timings);
        if self.family_selected("filter/") {
            self.filter_workloads(&mut timings, &members, &probes);
        }
        if self.family_selected("concurrent/") || self.family_selected("store/") {
            self.batch_workloads(&mut timings, &members, &probes);
        }
        if self.selected("store/wal_insert_batch")
            || self.selected("store/snapshot_while_serving")
            || self.selected("store/recovery_replay")
        {
            self.persistence_workloads(&mut timings, &members, &probes);
        }
        if server_selected {
            self.server_workloads(&mut timings, &mut observables, &members, &probes);
        }
        if self.family_selected("server/conn_scaling/") {
            self.conn_scaling_workloads(&mut timings);
        }
        self.pollution_workloads(&mut observables);

        let comparisons = build_comparisons(&timings);
        for c in &comparisons {
            println!(
                "{:<32} {} vs {}: speedup {:.2}x {}",
                c.id,
                c.candidate,
                c.baseline,
                c.speedup,
                if c.speedup > 1.0 { "(candidate wins)" } else { "(BASELINE WINS)" }
            );
        }
        Report { quick: self.quick, timings, observables, comparisons }
    }

    fn time<O>(&self, out: &mut Vec<TimingRecord>, id: &str, elements: u64, f: impl FnMut() -> O) {
        if !self.selected(id) {
            return;
        }
        let m = measure(id, &self.opts, f);
        let record = TimingRecord::from_measurement(m, elements);
        println!(
            "{:<32} {:>10.1} ns/op  {:>10.1} Mops/s",
            record.id,
            record.ns_per_op_median,
            record.ops_per_sec() / 1e6
        );
        out.push(record);
    }

    fn hash_workloads(&self, out: &mut Vec<TimingRecord>) {
        let item = [0xabu8; 32];
        let key = SipKey::new(7, 9);
        self.time(out, "hash/murmur3_128", 1, || {
            evilbloom_hashes::murmur3_x64_128(black_box(&item), 0)
        });
        self.time(out, "hash/murmur3_128_pair", 1, || Murmur128Pair.hash_pair(black_box(&item)));
        self.time(out, "hash/siphash24", 1, || siphash24(key, black_box(&item)));
        self.time(out, "hash/sha256", 1, || sha256(black_box(&item)));
        self.time(out, "hash/md5", 1, || md5(black_box(&item)));
    }

    /// Pre-generates `count` member items and `count` absent probes.
    fn items(&self, count: usize) -> (Vec<String>, Vec<String>) {
        let members = (0..count).map(|i| format!("https://host{i}.example/page/{i}")).collect();
        let probes = (0..count).map(|i| format!("https://absent{i}.example/page/{i}")).collect();
        (members, probes)
    }

    fn filter_workloads(&self, out: &mut Vec<TimingRecord>, members: &[String], probes: &[String]) {
        let n = self.filter_capacity;
        let params = FilterParams::optimal(n, 0.01);

        // Standard filter: classic layout, KM over two Murmur3 calls — the
        // Dablooms configuration.
        let standard = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        for item in members {
            standard.insert(item.as_bytes());
        }
        let mut i = 0usize;
        self.time(out, "filter/standard/insert", 1, || {
            i = (i + 1) % members.len();
            standard.insert(members[i].as_bytes())
        });
        let mut i = 0usize;
        self.time(out, "filter/standard/query", 1, || {
            i = (i + 1) % members.len();
            // Alternate hit and miss probes — the serving mix.
            if i.is_multiple_of(2) {
                standard.contains(members[i].as_bytes())
            } else {
                standard.contains(probes[i].as_bytes())
            }
        });

        // Blocked layout: the plain filter over `BlockedKm`, same (n, target
        // fpp) budget rounded up to whole blocks, one cache line per op.
        let blocked =
            ConcurrentBloomFilter::new(params.rounded_to_blocks(), BlockedKm::new(Murmur128Pair));
        for item in members {
            blocked.insert(item.as_bytes());
        }
        let mut i = 0usize;
        self.time(out, "filter/blocked/insert", 1, || {
            i = (i + 1) % members.len();
            blocked.insert(members[i].as_bytes())
        });
        let mut i = 0usize;
        self.time(out, "filter/blocked/query", 1, || {
            i = (i + 1) % members.len();
            if i.is_multiple_of(2) {
                blocked.contains(members[i].as_bytes())
            } else {
                blocked.contains(probes[i].as_bytes())
            }
        });

        // Hardened filter: keyed SipHash indexes (Section 8.2) — the price
        // of unpredictability, for the Table 2 narrative.
        let hardened = hardened_filter(
            n,
            0.01,
            HardeningLevel::KeyedSipHash,
            &FilterKey::from_bytes([0x42; 32]),
        );
        for item in members.iter().take((n / 10) as usize) {
            hardened.insert(item.as_bytes());
        }
        let mut i = 0usize;
        self.time(out, "filter/hardened/query", 1, || {
            i = (i + 1) % members.len();
            hardened.contains(members[i].as_bytes())
        });
    }

    fn batch_workloads(&self, out: &mut Vec<TimingRecord>, members: &[String], probes: &[String]) {
        let n = self.filter_capacity;
        let batch = self.batch;
        let params = FilterParams::optimal(n, 0.01);

        let concurrent = ConcurrentBloomFilter::new(params, KirschMitzenmacher::new(Murmur3_128));
        concurrent.insert_batch(members);
        // Probe mix for the loop-vs-batch comparison: half hits, half misses.
        let mix: Vec<&[u8]> = members
            .iter()
            .zip(probes)
            .take(batch / 2)
            .flat_map(|(m, p)| [m.as_bytes(), p.as_bytes()])
            .collect();

        self.time(out, "concurrent/query_loop", batch as u64, || {
            let mut hits = 0u32;
            for item in &mix {
                hits += u32::from(concurrent.contains(item));
            }
            hits
        });
        self.time(out, "concurrent/query_batch", batch as u64, || concurrent.query_batch(&mix));

        // The sharded serving layer, hardened as recommended.
        let store = BloomStore::builder().shards(8).capacity(n).target_fpp(0.01).seed(42).build();
        store.insert_batch(members);
        let mut offset = 0usize;
        self.time(out, "store/insert_batch", batch as u64, || {
            offset = (offset + batch) % members.len().saturating_sub(batch).max(1);
            store.insert_batch(&members[offset..offset + batch])
        });
        self.time(out, "store/query_loop", batch as u64, || {
            let mut hits = 0u32;
            for item in &mix {
                hits += u32::from(store.contains(item));
            }
            hits
        });
        self.time(out, "store/query_batch", batch as u64, || store.query_batch(&mix));

        // The deletable family: 4-bit counters cost an atomic CAS loop per
        // cell where the plain filter pays one fetch_or per word, and
        // deletion is the paper's Section 4.3 surface — both deserve a
        // regression guard.
        let counting = BloomStore::builder()
            .shards(8)
            .capacity(n)
            .target_fpp(0.01)
            .seed(43)
            .counting(4)
            .build();
        counting.insert_batch(members);
        let mut offset = 0usize;
        self.time(out, "store/counting_insert_batch", batch as u64, || {
            offset = (offset + batch) % members.len().saturating_sub(batch).max(1);
            counting.insert_batch(&members[offset..offset + batch])
        });
        self.time(out, "store/counting_query_batch", batch as u64, || counting.query_batch(&mix));
        // Remove + re-insert the same slice per iteration: the filter state
        // is stationary, and the per-element figure prices one decrement
        // plus the paired increment that restores it.
        let mut offset = 0usize;
        self.time(out, "store/counting_remove_batch", batch as u64, || {
            offset = (offset + batch) % members.len().saturating_sub(batch).max(1);
            let window = &members[offset..offset + batch];
            let removed = counting.remove_batch(window).expect("counting stores delete");
            counting.insert_batch(window);
            removed
        });
    }

    /// Durability workloads: `store/insert_batch` through an `OsOnly`
    /// write-ahead log (what a durable server pays per item to append),
    /// per-snapshot cost while live query traffic keeps hammering the
    /// shards (the racy-copy design means the snapshot never blocks
    /// readers — this measures what the *snapshot* pays, not what the
    /// serving path pays), and cold-start recovery (newest-snapshot load +
    /// WAL replay + post-recovery fold snapshot), reported as ns per
    /// replayed insert.
    fn persistence_workloads(
        &self,
        out: &mut Vec<TimingRecord>,
        members: &[String],
        probes: &[String],
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};

        let scratch =
            std::env::temp_dir().join(format!("evilbloom-perf-persist-{}", std::process::id()));

        if self.selected("store/wal_insert_batch") {
            let dir = scratch.join("wal");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create wal dir");
            // Unhardened: hardened stores refuse persistence.
            let mut store = BloomStore::builder()
                .shards(8)
                .capacity(self.filter_capacity)
                .target_fpp(0.01)
                .unhardened()
                .seed(42)
                .build();
            store.insert_batch(members);
            store.enable_persistence(&PersistConfig::new(&dir)).expect("enable persistence");
            let batch = self.batch;
            let mut offset = 0usize;
            self.time(out, "store/wal_insert_batch", batch as u64, || {
                offset = (offset + batch) % members.len().saturating_sub(batch).max(1);
                store.insert_batch(&members[offset..offset + batch])
            });
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }

        if self.selected("store/snapshot_while_serving") {
            let dir = scratch.join("snapshot");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create snapshot dir");
            let mut store = BloomStore::builder()
                .shards(8)
                .capacity(self.filter_capacity)
                .target_fpp(0.01)
                .unhardened()
                .seed(21)
                .build();
            store.insert_batch(members);
            store.enable_persistence(&PersistConfig::new(&dir)).expect("enable persistence");
            let mix: Vec<&[u8]> = members
                .iter()
                .zip(probes)
                .take(self.batch / 2)
                .flat_map(|(m, p)| [m.as_bytes(), p.as_bytes()])
                .collect();
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let (store, stop, mix) = (&store, &stop, &mix);
                    scope.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            black_box(store.query_batch(mix));
                        }
                    });
                }
                self.time(out, "store/snapshot_while_serving", 1, || {
                    store.snapshot_to_disk().expect("snapshot")
                });
                stop.store(true, Ordering::Relaxed);
            });
            let _ = std::fs::remove_dir_all(&dir);
        }

        if self.selected("store/recovery_replay") {
            let dir = scratch.join("recovery");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create recovery dir");
            let persist = PersistConfig::new(&dir);
            let snap_count = if self.quick { 20_000 } else { 100_000 };
            let wal_count = if self.quick { 5_000 } else { 20_000 };
            {
                let mut store = BloomStore::builder()
                    .shards(8)
                    .capacity(self.filter_capacity)
                    .target_fpp(0.01)
                    .unhardened()
                    .seed(22)
                    .build();
                store.insert_batch(&members[..snap_count]);
                store.enable_persistence(&persist).expect("enable persistence");
                store.snapshot_to_disk().expect("snapshot");
                // These inserts live only in the write-ahead log.
                store.insert_batch(&members[snap_count..snap_count + wal_count]);
            }
            // Recovery compacts the directory (fold snapshot + prune), so
            // the pristine crashed-state files are restored before every
            // iteration; the restore is a couple of small file writes, tiny
            // next to the replay they set up.
            let crashed: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .expect("read recovery dir")
                .map(|entry| {
                    let entry = entry.expect("dir entry");
                    (
                        entry.file_name().to_string_lossy().into_owned(),
                        std::fs::read(entry.path()).expect("read crashed file"),
                    )
                })
                .collect();
            self.time(out, "store/recovery_replay", wal_count as u64, || {
                for entry in std::fs::read_dir(&dir).expect("read dir") {
                    let _ = std::fs::remove_file(entry.expect("dir entry").path());
                }
                for (name, bytes) in &crashed {
                    std::fs::write(dir.join(name), bytes).expect("restore crashed file");
                }
                <BloomStore>::recover(&persist).expect("recover")
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
        // Each row removed its own subdirectory; the per-process parent goes
        // too, or every run leaves one empty directory in the temp dir.
        let _ = std::fs::remove_dir(&scratch);
    }

    /// The hardened query server — the recommended serving posture,
    /// preloaded with the member set — behind single-op and batch query
    /// latency and the paired telemetry and fault-hook overhead gates.
    fn query_server_workloads(
        &self,
        out: &mut Vec<TimingRecord>,
        observables: &mut Vec<ObservableRecord>,
        members: &[String],
        probes: &[String],
    ) {
        let batch = self.batch;
        let config = ServerConfig::default();

        let store = Arc::new(
            BloomStore::builder()
                .shards(8)
                .capacity(self.filter_capacity)
                .target_fpp(0.01)
                .seed(7)
                .build(),
        );
        store.insert_batch(members);
        let handle = Server::spawn(store.clone(), "127.0.0.1:0", config).expect("bind loopback");
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        let mut i = 0usize;
        self.time(out, "server/query", 1, || {
            i = (i + 1) % members.len();
            client.query(members[i].as_bytes()).expect("server query")
        });

        let mix: Vec<&[u8]> = members
            .iter()
            .zip(probes)
            .take(batch / 2)
            .flat_map(|(m, p)| [m.as_bytes(), p.as_bytes()])
            .collect();
        self.time(out, "server/query_batch", batch as u64, || {
            client.query_batch(&mix).expect("server query batch")
        });

        // Scrape-amortised telemetry cost: the query_batch traffic with one
        // pipelined METRICS (or TRACE) frame per SCRAPE_EVERY batches — a
        // dashboard poller riding along with production load. Measured as a
        // PAIRED experiment: the bare and the two scraped conditions are
        // timed in interleaved rounds (bare, metrics, trace, bare, metrics,
        // trace, …) and the gate in main() compares median(scraped) /
        // median(bare) against the 1.05x budget. Interleaving matters on a
        // noisy single-core CI host: comparing two workloads measured
        // seconds apart flakes ±10% with scheduler drift, while interleaved
        // rounds see the same weather and the medians cancel it. Each timed
        // unit repeats the 16-batch + scrape pattern REPS times (~15 ms) so
        // a single scheduler preemption dents one unit by a few percent
        // instead of half.
        if self.selected("server/metrics_overhead") || self.selected("server/trace_overhead") {
            const SCRAPE_EVERY: usize = 16;
            const REPS: usize = 3;
            let elements = (REPS * SCRAPE_EVERY * batch) as u64;
            let rounds = if self.quick { 17 } else { 31 };

            // One timed unit: REPS repetitions of 16 pipelined MQUERY
            // batches, each optionally trailed by one scrape frame
            // (1 = METRICS, 2 = TRACE). Returns ns/element.
            let mut burst = |scrape: u8| -> f64 {
                let start = Instant::now();
                for _ in 0..REPS {
                    for _ in 0..SCRAPE_EVERY {
                        client.send(&Command::QueryBatch(mix.clone())).expect("queue MQUERY");
                    }
                    match scrape {
                        1 => client.send(&Command::Metrics).expect("queue METRICS"),
                        2 => client.send(&Command::Trace).expect("queue TRACE"),
                        _ => {}
                    }
                    for _ in 0..SCRAPE_EVERY {
                        match client.recv().expect("mquery response") {
                            Response::BatchFound(answers) => assert_eq!(answers.len(), mix.len()),
                            other => panic!("expected MFOUND, got {}", other.name()),
                        }
                    }
                    match scrape {
                        1 => match client.recv().expect("metrics response") {
                            Response::Metrics(text) => {
                                black_box(text.len());
                            }
                            other => panic!("expected METRICS, got {}", other.name()),
                        },
                        2 => match client.recv().expect("trace response") {
                            Response::Trace(trace) => {
                                black_box(trace.events.len());
                            }
                            other => panic!("expected TRACE, got {}", other.name()),
                        },
                        _ => {}
                    }
                }
                start.elapsed().as_secs_f64() * 1e9 / elements as f64
            };

            // Warm-up round of each condition, then the interleaved rounds.
            burst(0);
            burst(1);
            burst(2);
            let mut bare = Vec::with_capacity(rounds);
            let mut scraped_metrics = Vec::with_capacity(rounds);
            let mut scraped_trace = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                bare.push(burst(0));
                scraped_metrics.push(burst(1));
                scraped_trace.push(burst(2));
            }

            let paired_ratio = |scraped: &[f64]| median(scraped) / median(&bare);
            let emit = |out: &mut Vec<TimingRecord>, id: &str, ns: &[f64]| {
                if !self.selected(id) {
                    return;
                }
                let mut sorted = ns.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are comparable"));
                let m = Measurement {
                    id: id.to_string(),
                    ns_per_op_median: median(ns) * elements as f64,
                    ns_per_op_mean: ns.iter().sum::<f64>() / ns.len() as f64 * elements as f64,
                    ns_per_op_best: sorted[0] * elements as f64,
                    samples: ns.len(),
                    iters_per_sample: 1,
                };
                let record = TimingRecord::from_measurement(m, elements);
                println!(
                    "{:<32} {:>10.1} ns/op  {:>10.1} Mops/s",
                    record.id,
                    record.ns_per_op_median,
                    record.ops_per_sec() / 1e6
                );
                out.push(record);
            };
            emit(out, "server/metrics_overhead", &scraped_metrics);
            emit(out, "server/trace_overhead", &scraped_trace);
            observables.push(ObservableRecord {
                id: "server/scrape_overhead".to_string(),
                metrics: vec![
                    ("metrics_scrape_ratio_median", paired_ratio(&scraped_metrics)),
                    ("trace_scrape_ratio_median", paired_ratio(&scraped_trace)),
                    ("rounds", rounds as f64),
                ],
            });
        }

        // Fault-injection hooks must be effectively free when no fault can
        // fire: the same paired-burst experiment as the scrape gates, with
        // the instrumented condition served under an ARMED plan whose only
        // rule targets a point the serving path never crosses
        // (SnapshotWrite). Armed-but-never-firing is strictly costlier than
        // disarmed — every socket hook takes the registry slow path instead
        // of one relaxed atomic load — so holding the armed/bare ratio
        // under the 1.05x budget proves the disarmed claim a fortiori.
        if self.selected("server/fault_hooks_overhead") {
            const BURSTS: usize = 16;
            const REPS: usize = 3;
            let elements = (REPS * BURSTS * batch) as u64;
            let rounds = if self.quick { 17 } else { 31 };

            let mut burst = || -> f64 {
                let start = Instant::now();
                for _ in 0..REPS {
                    for _ in 0..BURSTS {
                        client.send(&Command::QueryBatch(mix.clone())).expect("queue MQUERY");
                    }
                    for _ in 0..BURSTS {
                        match client.recv().expect("mquery response") {
                            Response::BatchFound(answers) => assert_eq!(answers.len(), mix.len()),
                            other => panic!("expected MFOUND, got {}", other.name()),
                        }
                    }
                }
                start.elapsed().as_secs_f64() * 1e9 / elements as f64
            };
            // The rule waits for a SnapshotWrite hit that never comes, so
            // every point stays on its armed slow path without injecting
            // into the measured traffic.
            let plan = FaultPlan::new(0).fail_nth(FaultPoint::SnapshotWrite, u64::MAX);

            // Warm-up round of each condition, then the interleaved rounds.
            burst();
            {
                let _chaos = evilbloom_fault::arm(plan.clone());
                burst();
            }
            let mut bare = Vec::with_capacity(rounds);
            let mut armed = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                bare.push(burst());
                let _chaos = evilbloom_fault::arm(plan.clone());
                armed.push(burst());
            }

            let mut sorted = armed.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are comparable"));
            let m = Measurement {
                id: "server/fault_hooks_overhead".to_string(),
                ns_per_op_median: median(&armed) * elements as f64,
                ns_per_op_mean: armed.iter().sum::<f64>() / armed.len() as f64 * elements as f64,
                ns_per_op_best: sorted[0] * elements as f64,
                samples: armed.len(),
                iters_per_sample: 1,
            };
            let record = TimingRecord::from_measurement(m, elements);
            println!(
                "{:<32} {:>10.1} ns/op  {:>10.1} Mops/s",
                record.id,
                record.ns_per_op_median,
                record.ops_per_sec() / 1e6
            );
            out.push(record);
            observables.push(ObservableRecord {
                id: "server/fault_hooks_overhead".to_string(),
                metrics: vec![
                    ("fault_hooks_ratio_median", median(&armed) / median(&bare)),
                    ("rounds", rounds as f64),
                ],
            });
        }
        drop(client);
        handle.shutdown();
    }

    /// The TCP serving layer on a loopback socket: single-op round-trip
    /// latency, pipelined batch
    /// throughput (one `MQUERY` frame per batch), and an attack-mix stream
    /// — pipelined `MINSERT` frames of crafted polluting items interleaved
    /// with `MQUERY` probe frames, the traffic shape of
    /// `examples/remote_attack.rs`.
    fn server_workloads(
        &self,
        out: &mut Vec<TimingRecord>,
        observables: &mut Vec<ObservableRecord>,
        members: &[String],
        probes: &[String],
    ) {
        let batch = self.batch;
        let config = ServerConfig::default();

        // The hardened query server is built, preloaded and served only
        // for the rows that use it.
        let query_rows = [
            "server/query",
            "server/query_batch",
            "server/metrics_overhead",
            "server/trace_overhead",
            "server/fault_hooks_overhead",
        ];
        if query_rows.iter().any(|id| self.selected(id)) {
            self.query_server_workloads(out, observables, members, probes);
        }

        // Deletion over the wire: one pipelined MDELETE frame per iteration
        // against a counting-backed server (the only served family with a
        // deletion surface). Each iteration restores the deleted members, so
        // the counters are stationary; the per-element figure prices one
        // remote decrement plus the paired increment that restores it.
        if self.selected("server/delete_batch") {
            let counting = Arc::new(
                BloomStore::builder()
                    .shards(8)
                    .capacity(self.filter_capacity)
                    .target_fpp(0.01)
                    .seed(9)
                    .counting(4)
                    .build(),
            );
            counting.insert_batch(members);
            let handle =
                Server::spawn(counting.clone(), "127.0.0.1:0", config).expect("bind loopback");
            let mut client = Client::connect(handle.local_addr()).expect("connect");
            let frame: Vec<&[u8]> = members.iter().take(batch).map(String::as_bytes).collect();
            self.time(out, "server/delete_batch", batch as u64, || {
                let removed = client.delete_batch(&frame).expect("server delete batch");
                client.insert_batch(&frame).expect("restore members");
                removed.iter().filter(|&&r| r).count()
            });
            drop(client);
            handle.shutdown();
        }

        if !self.selected("server/attack_mix") {
            return; // the offline crafting below is the expensive setup
        }
        // Attack mix runs against an unhardened victim (the deployment the
        // paper attacks): crafted items come from the offline pollution
        // search, probes hunt the false positives it manufactures.
        // Re-inserting the same crafted items every iteration is idempotent,
        // so the store's fill — and the per-op cost — stays stable.
        let victim = Arc::new(
            BloomStore::builder()
                .shards(8)
                .capacity(self.filter_capacity)
                .target_fpp(0.01)
                .unhardened()
                .seed(8)
                .build(),
        );
        let plan = craft_store_pollution(
            &victim,
            &UrlGenerator::new("perf-remote-evil"),
            batch / 2,
            self.pollution_attempts,
        )
        .expect("unhardened stores expose an adversarial view");
        assert_eq!(plan.items.len(), batch / 2, "crafting budget exhausted");
        let handle = Server::spawn(victim.clone(), "127.0.0.1:0", config).expect("bind loopback");
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let frame = 128usize;
        let crafted_frames: Vec<Vec<&[u8]>> =
            plan.items.chunks(frame).map(|c| c.iter().map(String::as_bytes).collect()).collect();
        let probe_frames: Vec<Vec<&[u8]>> = probes[..batch / 2]
            .chunks(frame)
            .map(|c| c.iter().map(String::as_bytes).collect())
            .collect();
        let frames = crafted_frames.len() + probe_frames.len();
        self.time(out, "server/attack_mix", batch as u64, || {
            for (crafted, probe) in crafted_frames.iter().zip(&probe_frames) {
                client.send(&Command::InsertBatch(crafted.clone())).expect("queue MINSERT");
                client.send(&Command::QueryBatch(probe.clone())).expect("queue MQUERY");
            }
            let mut hits = 0usize;
            for _ in 0..frames {
                match client.recv().expect("attack-mix response") {
                    Response::BatchInserted { .. } => {}
                    Response::BatchFound(answers) => {
                        hits += answers.iter().filter(|&&a| a).count();
                    }
                    other => panic!("unexpected {} in attack mix", other.name()),
                }
            }
            hits
        });
        drop(client);
        handle.shutdown();
    }

    /// Connection-count scaling, the C10k observable: per-request RTT on an
    /// *active* connection while 64 / 1k / 8k mostly-idle connections are
    /// held open against the same server. The reactor keeps every
    /// connection *served* (an epoll entry each), so the idle herd should
    /// cost the active connection little.
    fn conn_scaling_workloads(&self, out: &mut Vec<TimingRecord>) {
        for (tier, conns) in self.conn_tiers {
            let id = format!("server/conn_scaling/{tier}");
            if !self.selected(&id) {
                continue;
            }
            if let Some(budget) = loopback_connection_budget() {
                if budget < conns as u64 {
                    println!("{id:<40} skipped (fd budget {budget} < {conns} connections)");
                    continue;
                }
            }
            let store = Arc::new(
                BloomStore::builder().shards(8).capacity(100_000).target_fpp(0.01).seed(11).build(),
            );
            let handle = Server::spawn(store, "127.0.0.1:0", ServerConfig::default())
                .expect("bind loopback");
            let mut active = Client::connect(handle.local_addr()).expect("connect active");
            active.ping().expect("active connection served");
            let idle: Vec<std::net::TcpStream> = (0..conns.saturating_sub(1))
                .map(|i| {
                    // Pace the herd just below the listen backlog so a
                    // single-core host never drops a SYN into a 1s
                    // retransmission stall.
                    if i % 64 == 63 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    std::net::TcpStream::connect(handle.local_addr())
                        .unwrap_or_else(|e| panic!("idle connect {i}: {e}"))
                })
                .collect();
            self.time(out, &id, 1, || active.ping().expect("active RTT"));
            drop(idle);
            drop(active);
            handle.shutdown();
        }
    }

    /// The paper's quantitative core as observables: false-positive drift
    /// under a chosen-insertion (pollution) attack, on the classic filter
    /// and on the blocked layout — demonstrating the attack carries over.
    fn pollution_workloads(&self, out: &mut Vec<ObservableRecord>) {
        let probes = 20_000u64;

        if self.selected("attack/pollution_drift/standard") {
            // Classic Figure 3 geometry: m = 3200, k = 4, 300 honest then
            // 150 crafted insertions.
            let standard = ConcurrentBloomFilter::new(
                FilterParams::explicit(3200, 4, 600),
                KirschMitzenmacher::new(Murmur3_128),
            );
            out.push(self.pollution_drift("attack/pollution_drift/standard", probes, &standard));
        }

        if self.selected("attack/pollution_drift/blocked") {
            // Same budget on the blocked layout (3200 → 3584 bits, 7 blocks).
            let blocked = ConcurrentBloomFilter::new(
                FilterParams::explicit(3200, 4, 600).rounded_to_blocks(),
                BlockedKm::new(Murmur128Pair),
            );
            let mut record =
                self.pollution_drift("attack/pollution_drift/blocked", probes, &blocked);
            let corrected = evilbloom_analysis::blocked::blocked_false_positive(
                blocked.m(),
                300,
                4,
                BLOCK_BITS,
            );
            record.metrics.push(("corrected_honest_fpp", corrected));
            out.push(record);
        }
    }

    fn pollution_drift(
        &self,
        id: &str,
        probes: u64,
        filter: &ConcurrentBloomFilter,
    ) -> ObservableRecord {
        for i in 0..300 {
            filter.insert(format!("honest-{i}").as_bytes());
        }
        let before = measured_fpp(filter, probes, "probe-before");
        let plan = craft_polluting_items(
            filter,
            &UrlGenerator::new("perf-pollution"),
            150,
            self.pollution_attempts,
        );
        for item in &plan.items {
            filter.insert(item.as_bytes());
        }
        let after = measured_fpp(filter, probes, "probe-after");
        println!(
            "{id:<40} fpp {before:.4} -> {after:.4} ({} crafted items, {:.1}x drift)",
            plan.items.len(),
            after / before.max(1e-9)
        );
        ObservableRecord {
            id: id.to_string(),
            metrics: vec![
                ("fpp_before", before),
                ("fpp_after", after),
                ("crafted_items", plan.items.len() as f64),
                ("predicted_fpp_after", plan.predicted_false_positive),
            ],
        }
    }
}

fn measured_fpp(filter: &ConcurrentBloomFilter, probes: u64, salt: &str) -> f64 {
    let false_positives = (0..probes)
        .filter(|i| filter.contains(format!("https://{salt}-{i}.example/").as_bytes()))
        .count();
    false_positives as f64 / probes as f64
}

/// Instrumentation must be effectively free: when the run measured both
/// sides, the instrumented workload — scrape-amortised telemetry
/// (`server/metrics_overhead`, `server/trace_overhead`: pipelined `MQUERY`
/// traffic with one scrape frame amortised over every 16 batches) or
/// `server/fault_hooks_overhead` (the same traffic served under an armed
/// never-firing fault plan) — may cost at most 5% more per element than
/// bare query-batch traffic. The gate reads the paired-ratio observable
/// the workload records: every measurement round times a bare 16-batch
/// burst and the instrumented bursts back-to-back and the gate value is
/// the median of the per-round instrumented/bare ratios. Pairing is what
/// makes a hard 1.05x budget enforceable on shared CI hardware — the two
/// sides of each ratio ran milliseconds apart under the same scheduler
/// weather, so host noise cancels instead of flaking the gate.
fn paired_overhead_gate(report: &Report, observable: &str, key: &str, label: &str) -> bool {
    let Some(ratio) = report
        .observables
        .iter()
        .find(|o| o.id == observable)
        .and_then(|o| o.metrics.iter().find(|(k, _)| *k == key).map(|&(_, v)| v))
    else {
        return true; // --filter excluded the paired workload; nothing to gate
    };
    let ok = ratio <= 1.05;
    println!(
        "{} overhead gate: paired instrumented/bare burst ratio {ratio:.3}x (budget 1.05x){}",
        label.to_lowercase(),
        if ok { "" } else { "  OVER BUDGET" }
    );
    if !ok {
        eprintln!("PERF GATE: {label} overhead {ratio:.3}x exceeds the 1.05x budget");
    }
    ok
}

/// Median of a sample vector (the input need not be sorted).
fn median(ns: &[f64]) -> f64 {
    let mut sorted = ns.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are comparable"));
    if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    }
}

fn build_comparisons(timings: &[TimingRecord]) -> Vec<Comparison> {
    let ns = |id: &str| timings.iter().find(|t| t.id == id).map(|t| t.ns_per_op_median);
    let mut comparisons = Vec::new();
    let mut push = |id, baseline: &'static str, candidate: &'static str| {
        if let (Some(b), Some(c)) = (ns(baseline), ns(candidate)) {
            comparisons.push(Comparison { id, baseline, candidate, speedup: b / c });
        }
    };
    push("blocked_vs_standard_query", "filter/standard/query", "filter/blocked/query");
    push("blocked_vs_standard_insert", "filter/standard/insert", "filter/blocked/insert");
    push("batch_vs_loop_query_concurrent", "concurrent/query_loop", "concurrent/query_batch");
    push("batch_vs_loop_query_store", "store/query_loop", "store/query_batch");
    push("pipelined_batch_vs_single_op_server", "server/query", "server/query_batch");
    push(
        "metrics_scrape_amortized_vs_query_batch",
        "server/query_batch",
        "server/metrics_overhead",
    );
    push("trace_scrape_amortized_vs_query_batch", "server/query_batch", "server/trace_overhead");
    push("fault_hooks_vs_query_batch", "server/query_batch", "server/fault_hooks_overhead");
    comparisons
}

/// Geometric mean of the ns/op of the calibration family (ids starting with
/// [`CALIBRATION_PREFIX`]). `None` if the set is empty.
fn calibration_ns(pairs: &[(String, f64)]) -> Option<f64> {
    let cal: Vec<f64> = pairs
        .iter()
        .filter(|(id, _)| id.starts_with(CALIBRATION_PREFIX))
        .map(|&(_, ns)| ns)
        .collect();
    if cal.is_empty() {
        return None;
    }
    Some((cal.iter().map(|ns| ns.ln()).sum::<f64>() / cal.len() as f64).exp())
}

/// The CI regression guard. Raw ns/op is machine-dependent, so both sides
/// are first normalised by their own run's calibration unit — the geometric
/// mean of the hash-family workloads: what is compared is "how many average
/// hash calls does one operation cost", which transfers across hosts.
/// Every timing workload is gated, *including* each calibration member (a
/// single hash regressing moves its own normalised cost far more than it
/// moves the mean, so calibration regressions still trip the guard). A
/// workload regresses when its normalised cost grows by more than
/// `tolerance` (default 25%, chosen to sit above quick-mode sampling noise;
/// see README).
fn compare_against_baseline(report: &Report, baseline: &Json, tolerance: f64) -> bool {
    let baseline_workloads =
        baseline.get("workloads").and_then(Json::as_array).expect("baseline has a workloads array");
    let baseline_pairs: Vec<(String, f64)> = baseline_workloads
        .iter()
        .filter_map(|w| {
            Some((w.get("id")?.as_str()?.to_string(), w.get("ns_per_op_median")?.as_f64()?))
        })
        .collect();
    let current_pairs: Vec<(String, f64)> =
        report.timings.iter().map(|t| (t.id.clone(), t.ns_per_op_median)).collect();
    let Some(current_cal) = calibration_ns(&current_pairs) else {
        eprintln!(
            "current run lacks the {CALIBRATION_PREFIX}* calibration workloads \
             (--filter excluded them); skipping guard"
        );
        return true;
    };
    let Some(baseline_cal) = calibration_ns(&baseline_pairs) else {
        eprintln!("baseline lacks the {CALIBRATION_PREFIX}* calibration workloads; skipping guard");
        return true;
    };

    println!(
        "\n{:<32} {:>12} {:>12} {:>8}",
        "regression guard", "base(norm)", "cur(norm)", "ratio"
    );
    let mut ok = true;
    for t in &report.timings {
        let Some(&(_, base)) = baseline_pairs.iter().find(|(id, _)| *id == t.id) else {
            println!("{:<32} {:>12} (new workload, not gated)", t.id, "-");
            continue;
        };
        let base_norm = base / baseline_cal;
        let cur_norm = t.ns_per_op_median / current_cal;
        let ratio = cur_norm / base_norm;
        let regressed = ratio > 1.0 + tolerance;
        println!(
            "{:<32} {:>12.2} {:>12.2} {:>7.2}x{}",
            t.id,
            base_norm,
            cur_norm,
            ratio,
            if regressed { "  REGRESSED" } else { "" }
        );
        ok &= !regressed;
    }
    ok
}
