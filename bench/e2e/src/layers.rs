//! Per-layer replays. A traced run replays the frames its workload sent
//! first (recorded from the start of the warm-up, so an in-process replica
//! built with the workload's store spec and set-up fill is in the very state
//! the served store was in) through the public functions of each layer, and
//! times each layer from outside:
//!
//! `hashes` (`IndexStrategy::indexes_into`) → `filters` (`FilterBackend`
//! batch calls on shard-geometry replicas) → `store` (`BloomStore` calls) →
//! `store::persist` (WAL, snapshot, recovery on an unhardened mirror) →
//! `server::wire` (`Command`/`Response` codecs).
//!
//! Frames are kept encoded and replayed from their decoded form, so item
//! bytes sit contiguously per frame exactly as in the server's receive
//! buffer; scattered per-item allocations would add cache misses the
//! server never pays.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use evilbloom_filters::{
    hardened_parts, CountingOptions, FilterBackend, FilterKey, HardeningLevel,
};
use evilbloom_hashes::{IndexStrategy, KirschMitzenmacher, Murmur3_128};
use evilbloom_server::{Command, Response};
use evilbloom_store::{BloomStore, PersistConfig, StoreBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::child::{fresh_dir, Family, StoreSpec, COUNTER_BITS};
use crate::stats::median;

/// Timed passes per layer; the median pass counts, since on a shared host
/// a single pass can read tens of percent slow. Repeating a frame re-applies
/// its writes, which costs what the first application did: setting a set
/// bit, or moving a counter again, touches the same cells.
const PASSES: usize = 5;

/// Items of the insert stream the persistence replay logs per pass.
const PERSIST_ITEMS: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert,
    Query,
    Delete,
}

/// A data frame as the layers see it: operation, batch or single-item
/// opcode, and the items.
struct View<'a> {
    op: Op,
    batch: bool,
    items: Vec<&'a [u8]>,
}

impl<'a> View<'a> {
    /// `None` for control frames, which are not replayed.
    fn of(command: &Command<'a>) -> Option<View<'a>> {
        let (op, batch, items) = match command {
            Command::Insert(item) => (Op::Insert, false, vec![*item]),
            Command::Query(item) => (Op::Query, false, vec![*item]),
            Command::Delete(item) => (Op::Delete, false, vec![*item]),
            Command::InsertBatch(items) => (Op::Insert, true, items.clone()),
            Command::QueryBatch(items) => (Op::Query, true, items.clone()),
            Command::DeleteBatch(items) => (Op::Delete, true, items.clone()),
            _ => return None,
        };
        Some(View { op, batch, items })
    }

    /// The response shape the server sends for this frame.
    fn response(&self) -> Response {
        let n = self.items.len();
        match (self.op, self.batch) {
            (Op::Insert, false) => Response::Inserted { fresh_bits: 7 },
            (Op::Query, false) => Response::Found(true),
            (Op::Delete, false) => Response::Deleted { was_present: true },
            (Op::Insert, true) => {
                Response::BatchInserted { items: n as u32, fresh_bits: 7 * n as u64 }
            }
            (Op::Query, true) => Response::BatchFound(vec![true; n]),
            (Op::Delete, true) => Response::BatchDeleted(vec![true; n]),
        }
    }
}

/// One data frame a workload sent, kept encoded for replay.
#[derive(Debug, Clone)]
pub struct ReplayFrame {
    /// The whole frame, length prefix included.
    encoded: Vec<u8>,
    items: usize,
}

impl ReplayFrame {
    /// Keeps `command` if it is a data frame.
    pub fn of(command: &Command<'_>) -> Option<ReplayFrame> {
        let items = View::of(command)?.items.len();
        let mut encoded = Vec::new();
        command.encode(&mut encoded).ok()?;
        Some(ReplayFrame { encoded, items })
    }

    pub fn items(&self) -> usize {
        self.items
    }

    fn view(&self) -> Result<View<'_>, String> {
        Command::decode(&self.encoded[4..])
            .ok()
            .as_ref()
            .and_then(View::of)
            .ok_or_else(|| "a recorded frame does not decode".to_string())
    }
}

/// What the replays measured, per item unless named otherwise.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub index_ns: f64,
    pub route_ns: f64,
    pub filters_op_ns: f64,
    pub fill: f64,
    pub store_op_ns: f64,
    pub wal_ns: f64,
    pub snapshot_ms: f64,
    pub replay_ns: f64,
    pub wal_bytes_per_item: f64,
    pub snapshot_bytes: f64,
    /// Client-side command encode plus server-side response encode.
    pub encode_ns: f64,
    /// Server-side command decode plus client-side response decode.
    pub decode_ns: f64,
    /// The server's share of the codec: command decode + response encode.
    pub wire_server_ns: f64,
    pub bytes_per_item: f64,
}

/// Replays `frames` layer by layer on replicas of `spec` filled with `fill`,
/// and `stream` (the workload's insert stream, in frames of `stream_frame`
/// items) through the persistence layer in a directory under
/// `work`.
pub fn replay(
    spec: &StoreSpec,
    fill: &[&[u8]],
    frames: &[ReplayFrame],
    stream: &[&[u8]],
    stream_frame: usize,
    work: &Path,
) -> Result<LayerTimes, String> {
    let views = frames.iter().map(ReplayFrame::view).collect::<Result<Vec<_>, _>>()?;
    let mirror = StoreSpec { hardened: false, ..spec.clone() };
    let mut times = match spec.family {
        Family::Bloom => {
            let mut times = replay_family(spec.builder().build(), (), spec, fill, &views)?;
            persist_replay(|| mirror.builder().build(), stream, stream_frame, work, &mut times)?;
            times
        }
        Family::Counting => {
            let counting = |b: StoreBuilder| b.counting(COUNTER_BITS).build();
            let options = CountingOptions { counter_bits: COUNTER_BITS };
            let mut times = replay_family(counting(spec.builder()), options, spec, fill, &views)?;
            persist_replay(|| counting(mirror.builder()), stream, stream_frame, work, &mut times)?;
            times
        }
    };
    wire_replay(frames, &views, &mut times)?;
    Ok(times)
}

/// Median over [`PASSES`] timed passes of `pass`, in ns.
fn median_pass_ns(mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PASSES).map(|_| timed_ns(&mut pass)).collect();
    median(&samples)
}

fn timed_ns(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

fn replay_family<B: FilterBackend>(
    store: BloomStore<B>,
    options: B::Options,
    spec: &StoreSpec,
    fill: &[&[u8]],
    views: &[View<'_>],
) -> Result<LayerTimes, String> {
    let items = views.iter().map(|v| v.items.len()).sum::<usize>().max(1) as f64;
    for chunk in fill.chunks(1024) {
        store.insert_batch(chunk);
    }

    // Shard-geometry filter replicas holding the same fill, so the filter
    // layer's working set matches the served store's.
    let params = store.shard_params();
    let mut rng = StdRng::seed_from_u64(spec.key_seed);
    let strategies: Vec<Arc<dyn IndexStrategy>> = (0..store.shard_count())
        .map(|_| {
            if spec.hardened {
                let key = FilterKey::generate(&mut rng);
                let shard_capacity = spec.capacity.div_ceil(spec.shards as u64);
                hardened_parts(shard_capacity, spec.fpp, HardeningLevel::KeyedSipHash, &key)
                    .1
                    .into()
            } else {
                Arc::new(KirschMitzenmacher::new(Murmur3_128)) as Arc<dyn IndexStrategy>
            }
        })
        .collect();
    let filters: Vec<B> =
        strategies.iter().map(|s| B::fresh(params, Arc::clone(s), &options)).collect();
    for (filter, bucket) in filters.iter().zip(route(&store, fill)) {
        filter.insert_batch(&bucket);
    }
    let routed: Vec<Vec<Vec<&[u8]>>> = views.iter().map(|v| route(&store, &v.items)).collect();

    let mut out = Vec::with_capacity(params.k as usize);
    let index_ns = median_pass_ns(|| {
        for &item in views.iter().flat_map(|v| &v.items) {
            out.clear();
            strategies[0].indexes_into(black_box(item), params.k, params.m, &mut out);
            black_box(&out);
        }
    }) / items;
    let route_ns = median_pass_ns(|| {
        for &item in views.iter().flat_map(|v| &v.items) {
            black_box(store.route(black_box(item)));
        }
    }) / items;

    let filters_op_ns = median_pass_ns(|| {
        for (view, buckets) in views.iter().zip(&routed) {
            for (filter, bucket) in filters.iter().zip(buckets) {
                if bucket.is_empty() {
                    continue;
                }
                match view.op {
                    Op::Insert => {
                        black_box(filter.insert_batch(bucket));
                    }
                    Op::Query => {
                        black_box(filter.query_batch(bucket));
                    }
                    Op::Delete => {
                        black_box(filter.remove_batch(bucket));
                    }
                }
            }
        }
    }) / items;
    let fill_ratio =
        filters.iter().map(|f| f.fill_ratio_approx()).sum::<f64>() / filters.len() as f64;

    const DELETES: &str = "only counting-family workloads send deletes";
    let store_op_ns = median_pass_ns(|| {
        for view in views {
            let items = &view.items;
            match (view.op, view.batch) {
                (Op::Insert, true) => {
                    black_box(store.insert_batch(items));
                }
                (Op::Insert, false) => {
                    black_box(store.insert(items[0]));
                }
                (Op::Query, true) => {
                    black_box(store.query_batch(items));
                }
                (Op::Query, false) => {
                    black_box(store.contains(items[0]));
                }
                (Op::Delete, true) => {
                    black_box(store.remove_batch(items).expect(DELETES));
                }
                (Op::Delete, false) => {
                    black_box(store.remove(items[0]).expect(DELETES));
                }
            }
        }
    }) / items;

    Ok(LayerTimes {
        index_ns,
        route_ns,
        filters_op_ns,
        fill: fill_ratio,
        store_op_ns,
        ..LayerTimes::default()
    })
}

/// `items` split into per-shard buckets by the store's routing.
fn route<'a, B: FilterBackend>(store: &BloomStore<B>, items: &[&'a [u8]]) -> Vec<Vec<&'a [u8]>> {
    let mut buckets = vec![Vec::new(); store.shard_count()];
    for &item in items {
        buckets[store.route(item)].push(item);
    }
    buckets
}

/// WAL cost as persistent minus plain `insert_batch` time over the same
/// stream, then recovery of the resulting directory (every pass's records)
/// and snapshots of the recovered store, on an unhardened mirror (hardened
/// stores do not persist).
fn persist_replay<B: FilterBackend>(
    build: impl Fn() -> BloomStore<B>,
    stream: &[&[u8]],
    frame: usize,
    work: &Path,
    times: &mut LayerTimes,
) -> Result<(), String> {
    let stream = &stream[..stream.len().min(PERSIST_ITEMS)];
    let items = stream.len().max(1) as f64;
    let insert_all = |store: &BloomStore<B>| {
        median_pass_ns(|| {
            for chunk in stream.chunks(frame) {
                black_box(store.insert_batch(chunk));
            }
        })
    };
    let plain_ns = insert_all(&build());

    let dir = fresh_dir(work, "persist-replay")?;
    let config = PersistConfig::new(&dir);
    let mut durable = build();
    durable.enable_persistence(&config).map_err(|e| format!("persist replay: {e}"))?;
    let durable_ns = insert_all(&durable);
    drop(durable);
    let wal_bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| format!("persist replay: {e}"))?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();

    let start = Instant::now();
    let (recovered, report) =
        BloomStore::<B>::recover(&config).map_err(|e| format!("persist replay recover: {e}"))?;
    let recover_ns = start.elapsed().as_nanos() as f64;
    let mut snapshot = Ok(None);
    let snapshot_ns = median_pass_ns(|| {
        snapshot = recovered.snapshot_to_disk().map(Some);
    });
    let snapshot = snapshot.map_err(|e| format!("persist replay: {e}"))?.expect("a pass ran");
    drop(recovered);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    times.wal_ns = (durable_ns - plain_ns) / items;
    times.replay_ns = recover_ns / report.replayed_inserts.max(1) as f64;
    times.snapshot_ms = snapshot_ns / 1e6;
    times.snapshot_bytes = snapshot.bytes as f64;
    times.wal_bytes_per_item = wal_bytes as f64 / (items * PASSES as f64);
    Ok(())
}

/// Both ends of the codec on the workload's frames: the client encodes the
/// command and decodes the response, the server the reverse.
fn wire_replay(
    frames: &[ReplayFrame],
    views: &[View<'_>],
    times: &mut LayerTimes,
) -> Result<(), String> {
    let items = views.iter().map(|v| v.items.len()).sum::<usize>().max(1) as f64;
    let commands: Vec<Command<'_>> = frames
        .iter()
        .map(|f| Command::decode(&f.encoded[4..]).expect("decoded once already"))
        .collect();
    let responses: Vec<Response> = views.iter().map(View::response).collect();
    let mut response_bytes = Vec::with_capacity(responses.len());
    for response in &responses {
        let mut encoded = Vec::new();
        response.encode(&mut encoded).map_err(|e| format!("wire replay: {e}"))?;
        response_bytes.push(encoded);
    }
    let wire_bytes: usize =
        frames.iter().map(|f| f.encoded.len()).chain(response_bytes.iter().map(Vec::len)).sum();

    let mut buf = Vec::new();
    let command_encode = median_pass_ns(|| {
        for command in &commands {
            buf.clear();
            black_box(command.encode(&mut buf)).ok();
        }
    });
    let response_encode = median_pass_ns(|| {
        for response in &responses {
            buf.clear();
            black_box(response.encode(&mut buf)).ok();
        }
    });
    let command_decode = median_pass_ns(|| {
        for frame in frames {
            black_box(Command::decode(&frame.encoded[4..])).ok();
        }
    });
    let response_decode = median_pass_ns(|| {
        for encoded in &response_bytes {
            black_box(Response::decode(&encoded[4..])).ok();
        }
    });
    times.encode_ns = (command_encode + response_encode) / items;
    times.decode_ns = (command_decode + response_decode) / items;
    times.wire_server_ns = (command_decode + response_encode) / items;
    times.bytes_per_item = wire_bytes as f64 / items;
    Ok(())
}
