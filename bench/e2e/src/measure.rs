//! Closed-loop driving over one connection, and what a measured phase
//! saw: per-frame records, client spans, server CPU and the per-window
//! throughput and latency the metrics are read from.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use evilbloom_server::{Client, Command, Response};

use crate::child::ServerChild;
use crate::host;
use crate::layers::{Op, ReplayFrame};
use crate::metrics::Better;
use crate::stats::{highest_resolved_percentile, percentile};
use crate::workloads::{Ctx, Tally};

/// Throughput and latency are read per window of this length (see
/// [`best_window`]).
const WINDOW: Duration = Duration::from_millis(250);
/// Items per frame of bulk transfers: set-up preloads, recovery checks and
/// the false-positive sweep.
pub const BULK_FRAME: usize = 1024;
/// Items of the first frames a traced run keeps for the layer replays.
const REPLAY_ITEMS: usize = 1 << 17;
/// Frames whose spans a traced run writes to `trace-<workload>.json`.
const TRACE_FILE_FRAMES: usize = 10_000;
/// The generator must leave the server's CPU uncontended and itself idle
/// enough not to be the bottleneck.
const MAX_LOADGEN_CPU: f64 = 0.8;

/// A client-side span; spans of one frame share `frame_id`, and `parent`
/// indexes the frame's own span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub frame_id: u64,
}

#[derive(Debug, Clone, Copy)]
struct FrameRecord {
    done_ns: u64,
    latency_ns: u64,
    items: u32,
    traced: bool,
    send_ns: u64,
    wait_ns: u64,
}

/// Per-frame records of a measured phase. In a traced run, odd windows
/// record client spans and even ones do not, so the two rates compare
/// under the same store state.
struct Meter {
    origin: Instant,
    alternate: bool,
    frames: Vec<FrameRecord>,
    spans: Vec<Span>,
}

impl Meter {
    fn new(alternate: bool) -> Meter {
        Meter { origin: Instant::now(), alternate, frames: Vec::new(), spans: Vec::new() }
    }

    fn tracing(&self) -> bool {
        self.alternate && (self.origin.elapsed().as_nanos() / WINDOW.as_nanos()) % 2 == 1
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn record(&mut self, sent: &InFlight, wait_start: Option<Instant>, done: Instant) {
        let frame_id = self.frames.len() as u64;
        let (mut send_ns, mut wait_ns) = (0, 0);
        if let (Some(start), Some(wait_start)) = (sent.start, wait_start) {
            send_ns = (sent.flushed - start).as_nanos() as u64;
            wait_ns = (done - wait_start).as_nanos() as u64;
            if self.spans.len() < 3 * TRACE_FILE_FRAMES {
                let parent = self.spans.len();
                let span = |name, from, to| Span {
                    name,
                    start_ns: self.ns(from),
                    end_ns: self.ns(to),
                    parent: (name != "frame").then_some(parent),
                    frame_id,
                };
                let spans = [
                    span("frame", start, done),
                    span("client.send", start, sent.flushed),
                    span("client.recv_wait", wait_start, done),
                ];
                self.spans.extend(spans);
            }
        }
        self.frames.push(FrameRecord {
            done_ns: self.ns(done),
            latency_ns: (done - sent.flushed).as_nanos() as u64,
            items: sent.items,
            traced: sent.start.is_some(),
            send_ns,
            wait_ns,
        });
    }
}

struct InFlight {
    /// When sending began; only stamped for traced frames.
    start: Option<Instant>,
    flushed: Instant,
    items: u32,
    tag: u64,
}

/// A connection with pipelined frames in flight.
pub struct Pipe {
    pub client: Client,
    inflight: VecDeque<InFlight>,
    /// Frames kept for the layer replays, and their item count.
    recording: Option<(Vec<ReplayFrame>, usize)>,
}

impl Pipe {
    pub fn new(client: Client) -> Pipe {
        Pipe { client, inflight: VecDeque::new(), recording: None }
    }

    pub fn start_recording(&mut self) {
        self.recording = Some((Vec::new(), 0));
    }

    pub fn take_recording(&mut self) -> Vec<ReplayFrame> {
        self.recording.take().map(|(frames, _)| frames).unwrap_or_default()
    }

    fn send(
        &mut self,
        command: &Command<'_>,
        items: u32,
        tag: u64,
        meter: Option<&Meter>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let start = meter.filter(|m| m.tracing()).map(|_| Instant::now());
        if let Some((frames, count)) = &mut self.recording {
            if *count < REPLAY_ITEMS {
                if let Some(frame) = ReplayFrame::of(command) {
                    *count += frame.items();
                    frames.push(frame);
                }
            }
        }
        tally.attempted += 1;
        self.client.send(command).map_err(|e| format!("send: {e}"))?;
        self.client.flush().map_err(|e| format!("send: {e}"))?;
        self.inflight.push_back(InFlight { start, flushed: Instant::now(), items, tag });
        Ok(())
    }

    fn recv(&mut self, meter: Option<&mut Meter>) -> Result<(Response, u64), String> {
        let traced = self.inflight.front().is_some_and(|f| f.start.is_some());
        let wait_start = traced.then(Instant::now);
        let response = self.client.recv().map_err(|e| format!("recv: {e}"))?;
        let done = Instant::now();
        let sent = self.inflight.pop_front().expect("a response arrived with no frame in flight");
        if let Some(meter) = meter {
            meter.record(&sent, wait_start, done);
        }
        Ok((response, sent.tag))
    }
}

pub fn unexpected(response: &Response, request: &str) -> String {
    format!("unexpected {} response to {request}", response.name())
}

/// A workload's frame source and answer checker.
pub trait FrameSource {
    /// The next frame — command, items it carries, tag for [`FrameSource::check`]
    /// — or `None` when the workload has nothing more to send.
    fn next(&mut self) -> Option<(Command<'_>, u32, u64)>;

    /// Checks one response. Wrong answers go to `tally`; an `Err` (wrong
    /// response type) ends the run.
    fn check(&mut self, tag: u64, response: Response, tally: &mut Tally) -> Result<(), String>;

    /// Distinct items the store holds once every sent frame is answered
    /// (0 for bulk transfers, which are not workloads).
    fn stored(&self) -> u64 {
        0
    }
}

/// Keeps up to `depth` frames in flight until `until`, then drains.
fn pump(
    pipe: &mut Pipe,
    source: &mut impl FrameSource,
    depth: usize,
    until: Instant,
    mut meter: Option<&mut Meter>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut exhausted = false;
    loop {
        while !exhausted && pipe.inflight.len() < depth && Instant::now() < until {
            match source.next() {
                Some((command, items, tag)) => {
                    pipe.send(&command, items, tag, meter.as_deref(), tally)?;
                }
                None => exhausted = true,
            }
        }
        if pipe.inflight.is_empty() {
            return Ok(());
        }
        let (response, tag) = pipe.recv(meter.as_deref_mut())?;
        source.check(tag, response, tally)?;
    }
}

/// Pipelined batch inserts or queries of a fixed item list.
struct Bulk<'a, 'b> {
    chunks: std::slice::Chunks<'a, &'b [u8]>,
    op: Op,
    expect_present: bool,
    positives: u64,
}

impl FrameSource for Bulk<'_, '_> {
    fn next(&mut self) -> Option<(Command<'_>, u32, u64)> {
        let chunk = self.chunks.next()?;
        let command = match self.op {
            Op::Insert => Command::InsertBatch(chunk.to_vec()),
            _ => Command::QueryBatch(chunk.to_vec()),
        };
        Some((command, chunk.len() as u32, chunk.len() as u64))
    }

    fn check(&mut self, tag: u64, response: Response, tally: &mut Tally) -> Result<(), String> {
        match (self.op, response) {
            (Op::Insert, Response::BatchInserted { items, .. }) if u64::from(items) == tag => {
                Ok(())
            }
            (Op::Query, Response::BatchFound(answers)) if answers.len() as u64 == tag => {
                let hits = answers.iter().filter(|&&hit| hit).count() as u64;
                if self.expect_present && hits < tag {
                    tally.wrong(format!("{} acknowledged items read absent", tag - hits));
                }
                self.positives += hits;
                Ok(())
            }
            (_, other) => Err(unexpected(&other, "a bulk batch")),
        }
    }
}

/// Sends `items` in pipelined batch frames; returns the positive answers.
pub fn bulk(
    pipe: &mut Pipe,
    items: &[&[u8]],
    op: Op,
    expect_present: bool,
    tally: &mut Tally,
) -> Result<u64, String> {
    let mut source = Bulk { chunks: items.chunks(BULK_FRAME), op, expect_present, positives: 0 };
    let forever = Instant::now() + Duration::from_secs(3600);
    pump(pipe, &mut source, 2, forever, None, tally)?;
    Ok(source.positives)
}

/// Totals of the server's per-request latency histograms over data
/// opcodes, from a `METRICS` scrape: `(sum_ns, requests)`.
fn exec_totals(client: &mut Client) -> Result<(f64, f64), String> {
    const DATA_OPS: [&str; 6] = ["insert", "query", "minsert", "mquery", "delete", "mdelete"];
    let text = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
    let mut totals = (0.0, 0.0);
    for line in text.lines() {
        let Some((key, value)) = line.rsplit_once(' ') else { continue };
        let Some(rest) = key.strip_prefix("evilbloom_server_request_latency_ns_") else { continue };
        let value: f64 = value.parse().unwrap_or(0.0);
        for op in DATA_OPS {
            if rest == format!("sum{{op=\"{op}\"}}") {
                totals.0 += value;
            } else if rest == format!("count{{op=\"{op}\"}}") {
                totals.1 += value;
            }
        }
    }
    Ok(totals)
}

/// A counter from a `METRICS` scrape.
pub fn scrape_counter(client: &mut Client, name: &str) -> Result<f64, String> {
    let text = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .ok_or_else(|| format!("METRICS has no {name}"))
}

/// The measured phase and what the generator saw of the server meanwhile.
pub struct Measured {
    meter: Meter,
    wall: Duration,
    /// Server child CPU per item, ns.
    pub server_cpu_ns: f64,
    pub loadgen_cpu_frac: f64,
    /// Server execution time per item (`METRICS`), traced runs only.
    pub exec_ns: f64,
}

impl Measured {
    fn items(&self) -> u64 {
        self.meter.frames.iter().map(|f| u64::from(f.items)).sum()
    }

    /// The client spans of the traced windows.
    pub fn into_spans(self) -> Vec<Span> {
        self.meter.spans
    }
}

/// Warms up for `warmup`, then measures `ctx.seconds` of `source` with
/// `depth` frames in flight. A traced run brackets the phase with `METRICS`
/// scrapes. Fails when the generator itself may have been the bottleneck.
pub fn measure(
    ctx: &Ctx,
    child: &mut ServerChild,
    pipe: &mut Pipe,
    source: &mut impl FrameSource,
    depth: usize,
    warmup: Duration,
    tally: &mut Tally,
) -> Result<Measured, String> {
    if !warmup.is_zero() {
        pump(pipe, source, depth, Instant::now() + warmup, None, tally)
            .map_err(|e| child.blame("warm-up", e))?;
    }
    let exec_before = if ctx.trace { exec_totals(&mut pipe.client)? } else { (0.0, 0.0) };
    let cpu = |pid| host::cpu_ns(pid).map_err(|e| format!("read CPU time of {pid}: {e}"));
    let (server_before, self_before) = (cpu(child.pid())?, cpu(std::process::id())?);
    let mut meter = Meter::new(ctx.trace);
    let until = meter.origin + Duration::from_secs_f64(ctx.seconds);
    pump(pipe, source, depth, until, Some(&mut meter), tally)
        .map_err(|e| child.blame("measured phase", e))?;
    let wall = meter.origin.elapsed();
    let (server_after, self_after) = (cpu(child.pid())?, cpu(std::process::id())?);
    let exec_after = if ctx.trace { exec_totals(&mut pipe.client)? } else { (0.0, 0.0) };
    let mut measured = Measured {
        meter,
        wall,
        server_cpu_ns: 0.0,
        loadgen_cpu_frac: (self_after - self_before) as f64 / wall.as_nanos() as f64,
        exec_ns: 0.0,
    };
    let items = measured.items().max(1) as f64;
    measured.server_cpu_ns = (server_after - server_before) as f64 / items;
    measured.exec_ns = (exec_after.0 - exec_before.0) / items;
    if measured.loadgen_cpu_frac >= MAX_LOADGEN_CPU {
        return Err(format!(
            "invalid run: the load generator used {:.2} of a CPU (limit {MAX_LOADGEN_CPU}), so it, \
             not the server, may be the bottleneck",
            measured.loadgen_cpu_frac
        ));
    }
    Ok(measured)
}

/// Throughput and latency of one window.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    pub items_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Throughput and latency of a measured phase.
pub struct Summary {
    /// Untraced windows, in time order.
    pub windows: Vec<WindowStats>,
    pub items_per_s: f64,
    pub traced_items_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Highest percentile with at least ten samples beyond it, its value
    /// in µs, and the sample count.
    pub tail: (f64, f64, usize),
    /// Client span time per item (traced frames).
    pub send_ns: f64,
    pub wait_ns: f64,
}

/// Per-window statistics of the full windows of one kind (traced runs
/// alternate: even windows untraced, odd ones traced).
fn window_stats(measured: &Measured, traced: bool) -> Vec<WindowStats> {
    let window_ns = WINDOW.as_nanos() as u64;
    let full_windows = (measured.wall.as_nanos() as u64 / window_ns) as usize;
    let mut windows: Vec<Vec<&FrameRecord>> = vec![Vec::new(); full_windows];
    for frame in &measured.meter.frames {
        if let Some(window) = windows.get_mut((frame.done_ns / window_ns) as usize) {
            window.push(frame);
        }
    }
    let step = if measured.meter.alternate { 2 } else { 1 };
    windows
        .into_iter()
        .skip(usize::from(traced))
        .step_by(step)
        .filter(|w| w.len() >= 2)
        .map(|frames| {
            // Throughput between the window's first and last completions,
            // so it is not quantised to whole frames per window.
            let (first, last) = (frames[0], frames[frames.len() - 1]);
            let items: u64 = frames[1..].iter().map(|f| u64::from(f.items)).sum();
            let mut latencies: Vec<f64> =
                frames.iter().map(|f| f.latency_ns as f64 / 1e3).collect();
            latencies.sort_by(f64::total_cmp);
            WindowStats {
                items_per_s: items as f64 * 1e9 / (last.done_ns - first.done_ns).max(1) as f64,
                p50_us: percentile(&latencies, 50.0),
                p99_us: percentile(&latencies, 99.0),
            }
        })
        .collect()
}

/// A measured phase reads as its best window: the highest window
/// throughput, the lowest window median latency. On a shared host the slow
/// windows are other tenants' doing, never the measured code's (a slower
/// build slows every window), and of the window statistics tried (median,
/// 75th and 90th percentile, best) the best window kept run-to-run spread
/// lowest.
fn best_window(windows: &[WindowStats], value: fn(&WindowStats) -> f64, better: Better) -> f64 {
    let values = windows.iter().map(value);
    let best = match better {
        Better::Higher => values.reduce(f64::max),
        Better::Lower => values.reduce(f64::min),
    };
    best.unwrap_or(0.0)
}

pub fn summarize(measured: &Measured) -> Summary {
    let frames = &measured.meter.frames;
    let windows = window_stats(measured, false);
    let traced_windows = window_stats(measured, true);
    let mut latencies: Vec<f64> =
        frames.iter().filter(|f| !f.traced).map(|f| f.latency_ns as f64 / 1e3).collect();
    latencies.sort_by(f64::total_cmp);
    let tail_p = highest_resolved_percentile(latencies.len()).unwrap_or(50.0);
    let traced_items: u64 = frames.iter().filter(|f| f.traced).map(|f| u64::from(f.items)).sum();
    let per_traced_item = |total: u64| total as f64 / traced_items.max(1) as f64;
    Summary {
        items_per_s: best_window(&windows, |w| w.items_per_s, Better::Higher),
        traced_items_per_s: best_window(&traced_windows, |w| w.items_per_s, Better::Higher),
        p50_us: best_window(&windows, |w| w.p50_us, Better::Lower),
        p99_us: best_window(&windows, |w| w.p99_us, Better::Lower),
        tail: (
            tail_p,
            if latencies.is_empty() { 0.0 } else { percentile(&latencies, tail_p) },
            latencies.len(),
        ),
        send_ns: per_traced_item(frames.iter().map(|f| f.send_ns).sum()),
        wait_ns: per_traced_item(frames.iter().map(|f| f.wait_ns).sum()),
        windows,
    }
}
