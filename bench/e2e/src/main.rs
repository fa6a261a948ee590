//! `e2e`: the repository's end-to-end benchmark.
//!
//! A `BloomStore` is served by this binary re-executed as a child process
//! (`e2e serve`), pinned to its own CPU, and driven over loopback through
//! the public `Client` API by four seeded closed-loop workloads. A traced
//! run (`--trace 1`) replays each workload's inputs through every layer and
//! reports per-layer times instead. See README.md.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! e2e run --seed <n> --out <dir> [--seconds <s>] [--trace]
//! e2e compare <parent-dir> <change-dir>
//! ```
//!
//! A workload run prints its metrics by name and unit and ends stdout with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. It exits
//! 1 on a wrong answer (a false negative for an acknowledged item), an
//! unexpected response or the server child's death, and 2 on bad usage.

mod child;
mod compare;
mod host;
mod inputs;
mod layers;
mod measure;
mod metrics;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use criterion::report::Json;

use crate::host::Host;
use crate::measure::Span;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{Ctx, Report, Tally, Workload};

const USAGE: &str = "usage:
  e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  e2e run --seed <n> --out <dir> [--seconds <s>] [--trace]
  e2e compare <parent-dir> <change-dir>
workloads: read_hardened ingest_durable dedup_single_op churn_counting";

/// Scratch data directories, and trace files when no `--out` is given.
const WORK_ROOT: &str = ".bench_build/e2e";

/// Seconds a `run` measures each workload unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 15.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => return child::serve_main(&args[1..]),
        Some("compare") => return compare::main(&args[1..]),
        Some("run") => run_all(&args[1..]),
        _ => run_one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("e2e: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name).map(|v| v.parse().map_err(|_| format!("bad {name} {v:?}"))).transpose()
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = parsed(args, "--seed")?.ok_or("missing --seed")?;
    let seconds: f64 = parsed(args, "--seconds")?.ok_or("missing --seconds")?;
    let trace = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace {other:?}")),
    };
    let out = flag(args, "--out").map(PathBuf::from);
    let session = Session::start(&[workload])?;
    let correct = session.run(workload, seed, seconds, trace, out.as_deref())?;
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// Every workload, untraced (and traced too with `--trace`), each result
/// written under `--out`.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let seed = parsed(args, "--seed")?.ok_or("missing --seed")?;
    let seconds = parsed(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out = PathBuf::from(flag(args, "--out").ok_or("missing --out")?);
    let trace = args.iter().any(|a| a == "--trace");
    let session = Session::start(&Workload::ALL)?;
    let mut all_correct = true;
    for workload in Workload::ALL {
        all_correct &= session.run(workload, seed, seconds, false, Some(&out))?;
        if trace {
            all_correct &= session.run(workload, seed, seconds, true, Some(&out))?;
        }
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// Pinning, the host fingerprint and the work directory, shared by the
/// runs of one invocation.
struct Session {
    host: Host,
    pinning: Option<(String, String)>,
    work: PathBuf,
}

impl Session {
    fn start(workloads: &[Workload]) -> Result<Session, String> {
        let nproc = host::nproc();
        if let Some(w) = workloads.iter().find(|w| w.connections() > nproc) {
            return Err(format!(
                "{} opens {} connections but this host has {nproc} CPUs; the generator uses at \
                 most one connection per CPU",
                w.name(),
                w.connections()
            ));
        }
        let pinning =
            host::plan_pinning(nproc).and_then(|(generator, server)| {
                match host::pin_self(&generator) {
                    Ok(()) => Some((generator, server)),
                    Err(e) => {
                        eprintln!("e2e: running unpinned: {e}");
                        None
                    }
                }
            });
        let work = Path::new(WORK_ROOT).join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let host = Host::probe(nproc, pinning.clone());
        Ok(Session { host, pinning, work })
    }

    /// One run: prints the report and the result line, writes result and
    /// trace files, and returns whether every answer was correct.
    fn run(
        &self,
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        out: Option<&Path>,
    ) -> Result<bool, String> {
        let ctx =
            Ctx { seed, seconds, trace, pinning: self.pinning.clone(), work: self.work.clone() };
        let kind = if trace { "traced" } else { "untraced" };
        println!("e2e {} seed {seed}: {kind} run, {seconds} s measured", workload.name());
        println!("{}", self.host.summary());
        let mut tally = Tally::default();
        let report = workload.run(&ctx, &mut tally).unwrap_or_else(|e| {
            tally.errors.push(e);
            tally.failed += 1;
            Report::default()
        });
        let correct = tally.failed == 0;
        let table = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
        let mut metrics = Vec::new();
        for metric in table {
            if let Some(&(_, value)) = report.metrics.iter().find(|(n, _)| *n == metric.name) {
                println!("  {:<28} {value:>16.4} {}", metric.name, metric.unit);
                metrics.push((
                    metric.name,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(metric.unit.into())),
                    ]),
                ));
            }
        }
        for (name, value) in &report.diagnostics {
            println!("  ({name} {value:.4})");
        }
        if trace {
            print_self_times(&report);
        }
        for error in &tally.errors {
            println!("  ERROR: {error}");
        }
        let metrics = Json::obj(metrics);
        if let Some(out) = out {
            std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
            let suffix = if trace { "-trace" } else { "" };
            let full = Json::obj(vec![
                ("workload", Json::Str(workload.name().into())),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("trace", Json::Bool(trace)),
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(tally.attempted as f64)),
                ("failed", Json::Num(tally.failed as f64)),
                ("errors", Json::Arr(tally.errors.iter().map(|e| Json::Str(e.clone())).collect())),
                ("metrics", metrics.clone()),
                (
                    "diagnostics",
                    Json::obj(report.diagnostics.iter().map(|&(n, v)| (n, Json::Num(v))).collect()),
                ),
                (
                    "windows",
                    Json::Arr(
                        report
                            .windows
                            .iter()
                            .map(|w| {
                                Json::obj(vec![
                                    ("items_per_s", Json::Num(w.items_per_s)),
                                    ("p50_us", Json::Num(w.p50_us)),
                                    ("p99_us", Json::Num(w.p99_us)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("host", self.host.to_json()),
            ]);
            write(&out.join(format!("{}{suffix}.json", workload.name())), &full.to_pretty())?;
        }
        if trace {
            let dir = out.unwrap_or(Path::new(WORK_ROOT));
            let path = dir.join(format!("trace-{}.json", workload.name()));
            write(&path, &spans_json(workload, seed, &report.spans))?;
            println!("  spans: {}", path.display());
        }
        let line = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(tally.attempted as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("metrics", metrics),
        ]);
        println!("{}", compact(&line));
        Ok(correct)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One-line JSON (the pretty form with its line breaks and indents removed;
/// no string the benchmark writes contains a line break).
fn compact(json: &Json) -> String {
    json.to_pretty().lines().map(str::trim_start).collect()
}

/// Spans as `[name, start_ns, end_ns, parent, frame_id]` rows.
fn spans_json(workload: Workload, seed: u64, spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            format!("[\"{}\",{},{},{parent},{}]", s.name, s.start_ns, s.end_ns, s.frame_id)
        })
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"frame_id\"],\"spans\":[\n{}\n]}}\n",
        workload.name(),
        rows.join(",\n")
    )
}

/// The per-item self-time table of a traced run: the client's wait
/// contains the server's CPU, which the layer replays split further.
fn print_self_times(report: &Report) {
    let get =
        |name: &str| report.metrics.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |&(_, v)| v);
    let diagnostic = |name: &str| {
        report.diagnostics.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |&(_, v)| v)
    };
    println!("  self time per item (ns):");
    let rows = [
        ("client.send", get("client.send_ns"), 0),
        ("client.recv_wait", get("client.recv_wait_ns"), 0),
        ("server.cpu", get("server.cpu_ns"), 1),
        ("hashes.index", get("hashes.index_ns"), 2),
        ("filters.probe", get("filters.probe_ns"), 2),
        ("store.route", get("store.route_ns"), 2),
        ("store.self", get("store.self_ns"), 2),
        ("persist.wal", diagnostic("server_wal_ns"), 2),
        ("wire (server side)", diagnostic("wire_server_ns"), 2),
        ("server.residual", get("server.residual_ns"), 2),
    ];
    for (name, value, depth) in rows {
        println!("    {:indent$}{name:<24} {value:>12.1}", "", indent = 2 * depth);
    }
}
