//! The four workloads. Each is a closed loop (every caller waits for its
//! reply) from this single-threaded generator to a server child over
//! loopback, through the public `Client` API. Inputs come from
//! [`crate::inputs`]; the child only ever sees a store spec and frames.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use evilbloom_server::{Client, Command, Response};
use evilbloom_urlgen::UrlGenerator;
use rand::rngs::StdRng;
use rand::Rng;

use crate::child::{fresh_dir, Durability, Family, ServerChild, StoreSpec};
use crate::host;
use crate::inputs::{self, refs, ChurnItems, ChurnWindow, DedupDraws, Draw, ReadSlot, Slot};
use crate::layers::{self, LayerTimes, Op};
use crate::measure::{
    bulk, measure, scrape_counter, summarize, unexpected, FrameSource, Measured, Pipe, Span,
    WindowStats, BULK_FRAME,
};
use crate::stats::median;

/// Set-ups per untraced run (see [`setup`]); `setup_s` is their median.
const SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const WARMUP: Duration = Duration::from_secs(2);
/// Items preloaded (and store capacity) for every workload but ingest.
const PRELOAD: u64 = 1_000_000;
/// Never-inserted items probed after the run for `fpp_drift`.
const SWEEP_ITEMS: u64 = 1 << 20;
const READ_FRAMES: usize = 512;
const READ_FRAME_ITEMS: usize = 1024;
/// Items `ingest_durable` inserts, and its store's capacity: 7.2 MB of
/// bits, beyond L2 on common x86 parts, and few enough that the cycle ends
/// well inside a 10 s run, so every run does the same work.
const INGEST_ITEMS: u64 = 6_000_000;
const INGEST_FRAME: usize = 256;
const SNAPSHOT_EVERY: u64 = 1_000_000;
const CHURN_ROUND: usize = 256;
const CHURN_POOL: usize = 16_384;
const CHURN_SLACK: u64 = 65_536;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadHardened,
    IngestDurable,
    DedupSingleOp,
    ChurnCounting,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadHardened,
        Workload::IngestDurable,
        Workload::DedupSingleOp,
        Workload::ChurnCounting,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHardened => "read_hardened",
            Workload::IngestDurable => "ingest_durable",
            Workload::DedupSingleOp => "dedup_single_op",
            Workload::ChurnCounting => "churn_counting",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Connections the generator opens (ingest adds a snapshot channel).
    pub fn connections(self) -> usize {
        match self {
            Workload::IngestDurable => 2,
            _ => 1,
        }
    }

    fn spec(self, seed: u64) -> StoreSpec {
        let (family, hardened, capacity) = match self {
            Workload::ReadHardened | Workload::DedupSingleOp => (Family::Bloom, true, PRELOAD),
            Workload::IngestDurable => (Family::Bloom, false, INGEST_ITEMS),
            Workload::ChurnCounting => (Family::Counting, true, PRELOAD),
        };
        StoreSpec { family, hardened, shards: 8, capacity, fpp: 0.01, key_seed: seed }
    }

    /// Runs the workload once.
    pub fn run(self, ctx: &Ctx, tally: &mut Tally) -> Result<Report, String> {
        match self {
            Workload::ReadHardened => read_hardened(ctx, tally),
            Workload::IngestDurable => ingest_durable(ctx, tally),
            Workload::DedupSingleOp => dedup_single_op(ctx, tally),
            Workload::ChurnCounting => churn_counting(ctx, tally),
        }
    }
}

/// How one run is made.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Per-layer run: alternate untraced and traced windows, then replay.
    pub trace: bool,
    /// Generator and server CPU lists, `None` when unpinned.
    pub pinning: Option<(String, String)>,
    /// Scratch space for data directories (removed by the caller).
    pub work: PathBuf,
}

impl Ctx {
    fn server_cpus(&self) -> Option<&str> {
        self.pinning.as_ref().map(|(_, server)| server.as_str())
    }

    /// Runs the layer replays on the server's CPU, free once the child is
    /// gone, so they compare with the child's CPU time on equal terms.
    fn on_server_cpu<T>(&self, f: impl FnOnce() -> T) -> Result<T, String> {
        let Some((generator, server)) = &self.pinning else { return Ok(f()) };
        host::pin_self(server)?;
        let out = f();
        host::pin_self(generator)?;
        Ok(out)
    }
}

/// Frames attempted and frames whose answer was wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn wrong(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Numbers printed and saved beside the metrics, not gated.
    pub diagnostics: Vec<(&'static str, f64)>,
    /// The untraced windows the throughput and latency were read from.
    pub windows: Vec<WindowStats>,
    pub spans: Vec<Span>,
}

/// Spawns the child and preloads `preload` (or, when it is empty, waits for
/// a `PING`). An untraced run sets up at least `SETUPS` times, and keeps
/// going (up to `MAX_SETUPS`) while under `SETUP_BUDGET`, so a cheap set-up
/// is sampled often; each set-up kills the previous child first, and
/// `setup_s` is the median. `durable` names a data directory under the
/// work dir, emptied before each set-up.
fn setup(
    ctx: &Ctx,
    spec: &StoreSpec,
    durable: Option<&str>,
    preload: &[&[u8]],
    tally: &mut Tally,
) -> Result<(ServerChild, Pipe, f64), String> {
    let (min_rounds, max_rounds) = if ctx.trace { (1, 1) } else { (SETUPS, MAX_SETUPS) };
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min_rounds || (times.len() < max_rounds && started.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let durability = match durable {
            Some(name) => Some(Durability { dir: fresh_dir(&ctx.work, name)?, recover: false }),
            None => None,
        };
        let start = Instant::now();
        let mut child = ServerChild::spawn(spec, durability.as_ref(), ctx.server_cpus())?;
        let mut pipe = Pipe::new(child.connect()?);
        if preload.is_empty() {
            tally.attempted += 1;
            pipe.client.ping().map_err(|e| child.blame("set-up ping", e))?;
        } else {
            bulk(&mut pipe, preload, Op::Insert, false, tally)
                .map_err(|e| child.blame("set-up preload", e))?;
        }
        times.push(start.elapsed().as_secs_f64());
        last = Some((child, pipe));
    }
    let (child, pipe) = last.expect("at least one set-up");
    Ok((child, pipe, median(&times)))
}

/// Probes `SWEEP_ITEMS` never-inserted items. Returns the positive share
/// and its drift: that share over the honest rate `(1 - e^(-k n/m))^k` of
/// shards each holding their share of the `stored` distinct items. Drift
/// is the paper's measure of pollution — about 1 for a store no adversary
/// can aim at, at any fill — so unlike the raw rate it does not move with
/// how many items a run managed to insert.
fn sweep_fpp(
    seed: u64,
    stored: u64,
    pipe: &mut Pipe,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    const CHUNK: u64 = 1 << 16;
    let mut positives = 0;
    for start in (0..SWEEP_ITEMS).step_by(CHUNK as usize) {
        let items = inputs::sweep_items(seed, start, CHUNK);
        positives += bulk(pipe, &refs(&items), Op::Query, false, tally)?;
    }
    let observed = positives as f64 / SWEEP_ITEMS as f64;
    tally.attempted += 1;
    let shards = pipe.client.stats().map_err(|e| format!("STATS: {e}"))?.shards;
    let per_shard = stored as f64 / shards.len() as f64;
    let honest = shards
        .iter()
        .map(|s| (1.0 - (-f64::from(s.k) * per_shard / s.m as f64).exp()).powi(s.k as i32))
        .sum::<f64>()
        / shards.len() as f64;
    Ok((observed, observed / honest))
}

fn rss_mb(child: &ServerChild) -> Result<f64, String> {
    host::status_kb(child.pid(), "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .map_err(|e| format!("server VmHWM: {e}"))
}

/// The end-to-end metrics, in `metrics::END_TO_END` order. `fpp` is the
/// sweep's `(observed, drift)`.
fn end_to_end(
    measured: &Measured,
    setup_s: f64,
    rss_mb: f64,
    fpp: (f64, f64),
    report: &mut Report,
) {
    let s = summarize(measured);
    report.metrics = vec![
        ("items_per_s", s.items_per_s),
        ("frame_p50_us", s.p50_us),
        ("setup_s", setup_s),
        ("rss_mb", rss_mb),
        ("fpp_drift", fpp.1),
    ];
    report.diagnostics.extend([
        ("fpp", fpp.0),
        ("frame_p99_us", s.p99_us),
        ("frame_tail_percentile", s.tail.0),
        ("frame_tail_us", s.tail.1),
        ("frame_samples", s.tail.2 as f64),
        ("server_cpu_ns_per_item", measured.server_cpu_ns),
        ("loadgen_cpu_frac", measured.loadgen_cpu_frac),
    ]);
    report.windows = s.windows;
}

/// The per-layer metrics, in `metrics::PER_LAYER` order. `durable` adds the
/// WAL to what the server's CPU time is explained by.
fn per_layer(measured: Measured, layers: &LayerTimes, durable: bool, report: &mut Report) {
    let s = summarize(&measured);
    let wal = if durable { layers.wal_ns } else { 0.0 };
    let residual = measured.server_cpu_ns - layers.store_op_ns - wal - layers.wire_server_ns;
    report.metrics = vec![
        ("client.frame_p99_us", s.p99_us),
        ("hashes.index_ns", layers.index_ns),
        ("store.route_ns", layers.route_ns),
        ("filters.op_ns", layers.filters_op_ns),
        ("filters.probe_ns", layers.filters_op_ns - layers.index_ns),
        ("filters.fill", layers.fill),
        ("store.op_ns", layers.store_op_ns),
        ("store.self_ns", layers.store_op_ns - layers.filters_op_ns - layers.route_ns),
        ("persist.wal_ns", layers.wal_ns),
        ("persist.snapshot_ms", layers.snapshot_ms),
        ("persist.replay_ns", layers.replay_ns),
        ("persist.wal_bytes_per_item", layers.wal_bytes_per_item),
        ("persist.snapshot_bytes", layers.snapshot_bytes),
        ("wire.encode_ns", layers.encode_ns),
        ("wire.decode_ns", layers.decode_ns),
        ("wire.bytes_per_item", layers.bytes_per_item),
        ("server.exec_ns", measured.exec_ns),
        ("server.cpu_ns", measured.server_cpu_ns),
        ("server.residual_ns", residual),
        ("client.send_ns", s.send_ns),
        ("client.recv_wait_ns", s.wait_ns),
        ("loadgen.cpu_frac", measured.loadgen_cpu_frac),
        ("tracing.overhead", s.items_per_s / s.traced_items_per_s.max(f64::MIN_POSITIVE)),
    ];
    report.diagnostics.extend([
        ("untraced_items_per_s", s.items_per_s),
        ("traced_items_per_s", s.traced_items_per_s),
        ("wire_server_ns", layers.wire_server_ns),
        ("server_wal_ns", wal),
    ]);
    report.spans = measured.into_spans();
}

/// The shape shared by the three preloaded workloads: set-up, warm-up,
/// measured phase, then either the fpp sweep (untraced) or the replays.
fn preloaded(
    ctx: &Ctx,
    spec: &StoreSpec,
    preload: &[&[u8]],
    source: &mut impl FrameSource,
    depth: usize,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let (mut child, mut pipe, setup_s) = setup(ctx, spec, None, preload, tally)?;
    if ctx.trace {
        pipe.start_recording();
    }
    let measured = measure(ctx, &mut child, &mut pipe, source, depth, WARMUP, tally)?;
    if ctx.trace {
        let frames = pipe.take_recording();
        drop((pipe, child));
        let layers = ctx.on_server_cpu(|| {
            layers::replay(spec, preload, &frames, preload, BULK_FRAME, &ctx.work)
        })??;
        per_layer(measured, &layers, false, report);
    } else {
        let fpp = sweep_fpp(ctx.seed, source.stored(), &mut pipe, tally)
            .map_err(|e| child.blame("fpp sweep", e))?;
        end_to_end(&measured, setup_s, rss_mb(&child)?, fpp, report);
    }
    Ok(())
}

/// `read_hardened`: two 1024-item `MQUERY` frames in flight, cycling 512
/// pre-built frames of half members, half never-inserted items.
struct ReadSource<'a> {
    commands: Vec<Command<'a>>,
    layouts: &'a [Vec<ReadSlot>],
    preloaded: u64,
    next: usize,
    /// False positives per frame at its first answer: a read-only store
    /// must give the same answer on every pass.
    false_positives: Vec<Option<usize>>,
}

impl FrameSource for ReadSource<'_> {
    fn next(&mut self) -> Option<(Command<'_>, u32, u64)> {
        let i = self.next % self.commands.len();
        self.next += 1;
        Some((self.commands[i].clone(), self.layouts[i].len() as u32, i as u64))
    }

    fn check(&mut self, tag: u64, response: Response, tally: &mut Tally) -> Result<(), String> {
        let i = tag as usize;
        let layout = &self.layouts[i];
        let answers = match response {
            Response::BatchFound(answers) if answers.len() == layout.len() => answers,
            other => return Err(unexpected(&other, "MQUERY")),
        };
        let (mut misses, mut false_positives) = (0, 0);
        for (slot, &hit) in layout.iter().zip(&answers) {
            match slot {
                ReadSlot::Member(_) if !hit => misses += 1,
                ReadSlot::Absent(_) if hit => false_positives += 1,
                _ => {}
            }
        }
        if misses > 0 {
            tally.wrong(format!("frame {i}: {misses} preloaded items read absent"));
        }
        match self.false_positives[i] {
            None => self.false_positives[i] = Some(false_positives),
            Some(first) if first != false_positives => tally.wrong(format!(
                "frame {i}: answers changed between passes ({first} then {false_positives} positives)"
            )),
            Some(_) => {}
        }
        Ok(())
    }

    fn stored(&self) -> u64 {
        self.preloaded
    }
}

fn read_hardened(ctx: &Ctx, tally: &mut Tally) -> Result<Report, String> {
    let spec = Workload::ReadHardened.spec(ctx.seed);
    let preload = inputs::preload(ctx.seed, PRELOAD);
    let preload = refs(&preload);
    let (absent, layouts) =
        inputs::read_frames(ctx.seed, preload.len(), READ_FRAMES, READ_FRAME_ITEMS);
    let commands = layouts
        .iter()
        .map(|layout| {
            Command::QueryBatch(
                layout
                    .iter()
                    .map(|slot| match *slot {
                        ReadSlot::Member(i) => preload[i as usize],
                        ReadSlot::Absent(i) => absent[i as usize].as_bytes(),
                    })
                    .collect(),
            )
        })
        .collect();
    let mut source = ReadSource {
        commands,
        layouts: &layouts,
        preloaded: PRELOAD,
        next: 0,
        false_positives: vec![None; READ_FRAMES],
    };
    let mut report = Report::default();
    preloaded(ctx, &spec, &preload, &mut source, 2, tally, &mut report)?;
    Ok(report)
}

/// `dedup_single_op`: the crawler pattern, one request in flight — `QUERY`
/// a candidate URL, then `INSERT` it if the store reads it absent.
struct DedupSource {
    acked: Vec<String>,
    draws: DedupDraws,
    candidate: String,
    insert_candidate: bool,
}

// Tags of single-op and ingest frames.
const SEEN: u64 = 0;
const NEW: u64 = 1;
const INSERT: u64 = 2;
const PROBE: u64 = 3;

impl FrameSource for DedupSource {
    fn next(&mut self) -> Option<(Command<'_>, u32, u64)> {
        if std::mem::take(&mut self.insert_candidate) {
            return Some((Command::Insert(self.candidate.as_bytes()), 1, INSERT));
        }
        match self.draws.next(self.acked.len()) {
            Draw::Seen(i) => Some((Command::Query(self.acked[i].as_bytes()), 1, SEEN)),
            Draw::New(url) => {
                self.candidate = url;
                Some((Command::Query(self.candidate.as_bytes()), 1, NEW))
            }
        }
    }

    fn check(&mut self, tag: u64, response: Response, tally: &mut Tally) -> Result<(), String> {
        match (tag, response) {
            (SEEN, Response::Found(true)) | (NEW, Response::Found(true)) => {}
            (SEEN, Response::Found(false)) => {
                tally.wrong("an acknowledged URL read absent".to_string());
            }
            (NEW, Response::Found(false)) => self.insert_candidate = true,
            (INSERT, Response::Inserted { .. }) => self.acked.push(self.candidate.clone()),
            (_, other) => return Err(unexpected(&other, "a dedup request")),
        }
        Ok(())
    }

    fn stored(&self) -> u64 {
        self.acked.len() as u64
    }
}

fn dedup_single_op(ctx: &Ctx, tally: &mut Tally) -> Result<Report, String> {
    let spec = Workload::DedupSingleOp.spec(ctx.seed);
    let preload = inputs::preload(ctx.seed, PRELOAD);
    let mut source = DedupSource {
        acked: preload.clone(),
        draws: DedupDraws::new(ctx.seed),
        candidate: String::new(),
        insert_candidate: false,
    };
    let mut report = Report::default();
    preloaded(ctx, &spec, &refs(&preload), &mut source, 1, tally, &mut report)?;
    Ok(report)
}

/// `churn_counting`: rounds of `MINSERT` 256 new items, `MDELETE` the 256
/// inserted a full window earlier, `MQUERY` 128 live and 128 deleted items.
struct ChurnSource<'a> {
    window: ChurnWindow,
    items: &'a ChurnItems,
    rng: StdRng,
    /// The slots the current round's `MDELETE` removes.
    deleted: Vec<Slot>,
    phase: u64,
}

const LIVE_PROBES: usize = CHURN_ROUND / 2;

impl FrameSource for ChurnSource<'_> {
    fn next(&mut self) -> Option<(Command<'_>, u32, u64)> {
        let phase = self.phase;
        self.phase = (phase + 1) % 3;
        let items = self.items;
        let bytes = |slots: &[Slot]| slots.iter().map(|&s| items.bytes(s)).collect::<Vec<_>>();
        let command = match phase {
            0 => {
                let (inserted, deleted) = self.window.advance(CHURN_ROUND);
                self.deleted = deleted;
                Command::InsertBatch(bytes(&inserted))
            }
            1 => Command::DeleteBatch(bytes(&self.deleted)),
            _ => {
                let (window, rng) = (&self.window, &mut self.rng);
                let mut probes: Vec<Slot> =
                    (0..LIVE_PROBES).map(|_| window.live_sample(rng)).collect();
                probes.extend((LIVE_PROBES..CHURN_ROUND).map(|_| window.absent_sample(rng)));
                Command::QueryBatch(bytes(&probes))
            }
        };
        Some((command, CHURN_ROUND as u32, phase))
    }

    fn stored(&self) -> u64 {
        self.window.distinct_live()
    }

    fn check(&mut self, tag: u64, response: Response, tally: &mut Tally) -> Result<(), String> {
        match (tag, response) {
            (0, Response::BatchInserted { items, .. }) if items as usize == CHURN_ROUND => {}
            (1, Response::BatchDeleted(present)) if present.len() == CHURN_ROUND => {
                let missing = present.iter().filter(|&&p| !p).count();
                if missing > 0 {
                    tally.wrong(format!("{missing} live items read absent when deleted"));
                }
            }
            (2, Response::BatchFound(hits)) if hits.len() == CHURN_ROUND => {
                let missing = hits[..LIVE_PROBES].iter().filter(|&&h| !h).count();
                if missing > 0 {
                    tally.wrong(format!("{missing} live items read absent"));
                }
            }
            (_, other) => return Err(unexpected(&other, "a churn frame")),
        }
        Ok(())
    }
}

fn churn_counting(ctx: &Ctx, tally: &mut Tally) -> Result<Report, String> {
    let spec = Workload::ChurnCounting.spec(ctx.seed);
    let universe = PRELOAD + CHURN_SLACK;
    let start = Instant::now();
    let items =
        ChurnItems::generate(ctx.seed, universe, CHURN_POOL, spec.shards, spec.capacity, spec.fpp)?;
    let craft_s = start.elapsed().as_secs_f64();
    let mut window = ChurnWindow::new(universe, PRELOAD, CHURN_POOL as u64);
    let preload: Vec<&[u8]> = window.fill().into_iter().map(|s| items.bytes(s)).collect();
    let mut source = ChurnSource {
        window,
        items: &items,
        rng: inputs::rng(ctx.seed, "churn"),
        deleted: Vec::new(),
        phase: 0,
    };
    let mut report = Report::default();
    preloaded(ctx, &spec, &preload, &mut source, 1, tally, &mut report)?;
    report.diagnostics.extend([
        ("craft_s", craft_s),
        ("max_crafted_copies", f64::from(source.window.max_copies())),
    ]);
    Ok(report)
}

/// `ingest_durable`'s frames: 4 `MINSERT` frames of fresh items then 1
/// `MQUERY` frame of half acknowledged, half never-inserted items, 256
/// items each, until `target` items are sent.
struct IngestFrames {
    ingest: UrlGenerator,
    absent: UrlGenerator,
    rng: StdRng,
    target: u64,
    sent: u64,
    acked: u64,
    absent_sent: u64,
    frames: u64,
    /// The items of the frame last sent.
    buf: Vec<String>,
}

impl IngestFrames {
    fn new(seed: u64, target: u64) -> IngestFrames {
        IngestFrames {
            ingest: inputs::urls(seed, "ingest"),
            absent: inputs::urls(seed, "ingest-absent"),
            rng: inputs::rng(seed, "ingest"),
            target,
            sent: 0,
            acked: 0,
            absent_sent: 0,
            frames: 0,
            buf: Vec::new(),
        }
    }

    fn next(&mut self) -> Option<(Command<'_>, u32, u64)> {
        if self.sent >= self.target {
            return None;
        }
        self.frames += 1;
        // Probe members come from acknowledged items, so a probe frame
        // needs some.
        if self.frames.is_multiple_of(5) && self.acked > 0 {
            let half = INGEST_FRAME as u64 / 2;
            self.buf = (0..half)
                .map(|_| self.ingest.url(self.rng.gen_range(0..self.acked)))
                .chain(self.absent.batch(self.absent_sent, half))
                .collect();
            self.absent_sent += half;
            return Some((Command::QueryBatch(refs(&self.buf)), INGEST_FRAME as u32, PROBE));
        }
        let count = (self.target - self.sent).min(INGEST_FRAME as u64);
        self.buf = self.ingest.batch(self.sent, count);
        self.sent += count;
        Some((Command::InsertBatch(refs(&self.buf)), count as u32, INSERT))
    }
}

/// `ingest_durable`: its frames one in flight, until every item is
/// acknowledged, while a second connection sends `SNAPSHOT` at every
/// million acknowledged items.
struct IngestSource {
    frames: IngestFrames,
    snapshots: Client,
    snapshot_pending: bool,
    next_snapshot: u64,
    snapshots_taken: u64,
}

impl IngestSource {
    fn snapshot_if_due(&mut self, tally: &mut Tally) -> Result<(), String> {
        if self.frames.acked >= self.next_snapshot && self.next_snapshot < self.frames.target {
            self.finish_snapshot()?;
            tally.attempted += 1;
            self.snapshots.send(&Command::Snapshot).map_err(|e| format!("SNAPSHOT: {e}"))?;
            self.snapshots.flush().map_err(|e| format!("SNAPSHOT: {e}"))?;
            self.snapshot_pending = true;
            self.next_snapshot += SNAPSHOT_EVERY;
        }
        Ok(())
    }

    fn finish_snapshot(&mut self) -> Result<(), String> {
        if std::mem::take(&mut self.snapshot_pending) {
            match self.snapshots.recv().map_err(|e| format!("SNAPSHOT: {e}"))? {
                Response::Snapshotted(_) => self.snapshots_taken += 1,
                other => return Err(unexpected(&other, "SNAPSHOT")),
            }
        }
        Ok(())
    }
}

impl FrameSource for IngestSource {
    fn next(&mut self) -> Option<(Command<'_>, u32, u64)> {
        self.frames.next()
    }

    fn check(&mut self, tag: u64, response: Response, tally: &mut Tally) -> Result<(), String> {
        match (tag, response) {
            (INSERT, Response::BatchInserted { items, .. }) => {
                self.frames.acked += u64::from(items);
                self.snapshot_if_due(tally)?;
            }
            (PROBE, Response::BatchFound(hits)) if hits.len() == INGEST_FRAME => {
                let missing = hits[..INGEST_FRAME / 2].iter().filter(|&&h| !h).count();
                if missing > 0 {
                    tally.wrong(format!("{missing} acknowledged items read absent"));
                }
            }
            (_, other) => return Err(unexpected(&other, "an ingest frame")),
        }
        Ok(())
    }
}

fn ingest_durable(ctx: &Ctx, tally: &mut Tally) -> Result<Report, String> {
    let spec = Workload::IngestDurable.spec(ctx.seed);
    let (mut child, mut pipe, setup_s) = setup(ctx, &spec, Some("ingest"), &[], tally)?;
    let dir = ctx.work.join("ingest");
    if ctx.trace {
        pipe.start_recording();
    }
    let mut source = IngestSource {
        frames: IngestFrames::new(ctx.seed, INGEST_ITEMS),
        snapshots: child.connect()?,
        snapshot_pending: false,
        next_snapshot: SNAPSHOT_EVERY,
        snapshots_taken: 0,
    };
    let measured = measure(ctx, &mut child, &mut pipe, &mut source, 1, Duration::ZERO, tally)?;
    source.finish_snapshot().map_err(|e| child.blame("snapshot", e))?;
    let (acked, snapshots) = (source.frames.acked, source.snapshots_taken);
    let frames = pipe.take_recording();

    // Bytes the server wrote to files: all its writes minus socket writes.
    let socket_bytes = scrape_counter(&mut pipe.client, "evilbloom_server_bytes_written_total")?;
    let wchar = host::io_field(child.pid(), "wchar").map_err(|e| format!("server wchar: {e}"))?;
    let rss = rss_mb(&child)?;
    drop((pipe, source, child)); // SIGKILL

    let start = Instant::now();
    let durability = Durability { dir: dir.clone(), recover: true };
    let mut child = ServerChild::spawn(&spec, Some(&durability), ctx.server_cpus())?;
    let mut pipe = Pipe::new(child.connect()?);
    tally.attempted += 1;
    pipe.client.ping().map_err(|e| child.blame("ping after recovery", e))?;
    let recovery_s = start.elapsed().as_secs_f64();
    tally.attempted += 1;
    let recovered = pipe.client.stats().map_err(|e| child.blame("STATS after recovery", e))?;

    // Every acknowledged item must survive the SIGKILL.
    const CHUNK: u64 = 1 << 16;
    for start in (0..acked).step_by(CHUNK as usize) {
        let items = inputs::ingest_items(ctx.seed, start, CHUNK.min(acked - start));
        bulk(&mut pipe, &refs(&items), Op::Query, true, tally)
            .map_err(|e| child.blame("recovery check", e))?;
    }

    let mut report = Report::default();
    if ctx.trace {
        drop((pipe, child));
        let stream = inputs::ingest_items(ctx.seed, 0, PRELOAD);
        let layers = ctx.on_server_cpu(|| {
            layers::replay(&spec, &[], &frames, &refs(&stream), INGEST_FRAME, &ctx.work)
        })??;
        per_layer(measured, &layers, true, &mut report);
    } else {
        let fpp = sweep_fpp(ctx.seed, acked, &mut pipe, tally)
            .map_err(|e| child.blame("fpp sweep", e))?;
        end_to_end(&measured, setup_s, rss, fpp, &mut report);
    }
    report.diagnostics.extend([
        ("acknowledged_items", acked as f64),
        ("snapshots", snapshots as f64),
        ("recovery_s", recovery_s),
        ("disk_bytes_per_item", (wchar as f64 - socket_bytes) / acked.max(1) as f64),
        ("inserted_overcount", recovered.total_inserted as f64 - acked as f64),
    ]);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` frames a source sends, encoded, each answered the way
    /// an honest server with no false positives would answer it.
    fn encoded_frames(source: &mut impl FrameSource, n: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut tally = Tally::default();
        for _ in 0..n {
            let Some((command, _, tag)) = source.next() else { break };
            command.encode(&mut bytes).expect("frames encode");
            let response = match &command {
                Command::Insert(_) => Response::Inserted { fresh_bits: 7 },
                Command::Query(_) => Response::Found(false),
                Command::InsertBatch(items) => {
                    Response::BatchInserted { items: items.len() as u32, fresh_bits: 0 }
                }
                Command::QueryBatch(items) => Response::BatchFound(vec![true; items.len()]),
                Command::DeleteBatch(items) => Response::BatchDeleted(vec![true; items.len()]),
                other => panic!("unexpected {other:?}"),
            };
            source.check(tag, response, &mut tally).expect("answers check");
        }
        bytes
    }

    fn read_frames(seed: u64) -> Vec<u8> {
        let preload = inputs::preload(seed, 1000);
        let preload = refs(&preload);
        let (absent, layouts) = inputs::read_frames(seed, preload.len(), 8, 64);
        let commands = layouts
            .iter()
            .map(|l| {
                Command::QueryBatch(
                    l.iter()
                        .map(|s| match *s {
                            ReadSlot::Member(i) => preload[i as usize],
                            ReadSlot::Absent(i) => absent[i as usize].as_bytes(),
                        })
                        .collect(),
                )
            })
            .collect();
        let mut source = ReadSource {
            commands,
            layouts: &layouts,
            preloaded: 1000,
            next: 0,
            false_positives: vec![None; 8],
        };
        encoded_frames(&mut source, 16)
    }

    fn dedup_frames(seed: u64) -> Vec<u8> {
        let mut source = DedupSource {
            acked: inputs::preload(seed, 1000),
            draws: DedupDraws::new(seed),
            candidate: String::new(),
            insert_candidate: false,
        };
        encoded_frames(&mut source, 200)
    }

    fn churn_frames(seed: u64) -> Vec<u8> {
        let items = ChurnItems::generate(seed, 4096 + 1024, 16, 2, 4096, 0.01).expect("crafting");
        let mut window = ChurnWindow::new(4096 + 1024, 4096, 16);
        let mut bytes: Vec<u8> =
            window.fill().into_iter().flat_map(|s| items.bytes(s).to_vec()).collect();
        let mut source = ChurnSource {
            window,
            items: &items,
            rng: inputs::rng(seed, "churn"),
            deleted: Vec::new(),
            phase: 0,
        };
        bytes.extend(encoded_frames(&mut source, 30));
        bytes
    }

    /// Ingest frames without the snapshot connection.
    struct Ingest(IngestFrames);

    impl FrameSource for Ingest {
        fn next(&mut self) -> Option<(Command<'_>, u32, u64)> {
            self.0.next()
        }

        fn check(&mut self, tag: u64, response: Response, _: &mut Tally) -> Result<(), String> {
            if let (INSERT, Response::BatchInserted { items, .. }) = (tag, response) {
                self.0.acked += u64::from(items);
            }
            Ok(())
        }
    }

    fn ingest_frames(seed: u64) -> Vec<u8> {
        encoded_frames(&mut Ingest(IngestFrames::new(seed, 5000)), 100)
    }

    #[test]
    fn the_same_seed_gives_byte_identical_frames_and_another_seed_different_ones() {
        type Frames = fn(u64) -> Vec<u8>;
        let generators: [(&str, Frames); 4] = [
            ("read_hardened", read_frames),
            ("dedup_single_op", dedup_frames),
            ("churn_counting", churn_frames),
            ("ingest_durable", ingest_frames),
        ];
        for (name, frames) in generators {
            let first = frames(1);
            assert!(!first.is_empty(), "{name}");
            assert_eq!(first, frames(1), "{name}: seed 1 twice");
            assert_ne!(first, frames(2), "{name}: seeds 1 and 2");
        }
    }

    #[test]
    fn every_workload_stays_within_the_connection_budget_of_two_cpus() {
        assert!(Workload::ALL.iter().all(|w| w.connections() <= 2));
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
