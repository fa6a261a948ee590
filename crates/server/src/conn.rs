//! Per-connection protocol logic and the non-blocking connection state
//! machine the epoll reactor drives.
//!
//! The protocol half — "decode every complete frame in the accumulator,
//! execute it against the store, append the response frames" — is
//! [`drain_frames`] / [`execute`]. The I/O half is the [`Connection`] state
//! machine below: read-accumulate → drain → buffered write with
//! `WouldBlock`-aware flush, re-armed on `EPOLLOUT` by the reactor.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use evilbloom_fault::{self as fault, FaultPoint};
use evilbloom_metrics::log_warn;
use evilbloom_trace::TraceEvent;

use evilbloom_store::WriteRefusal;

use crate::metrics::op_of;
use crate::server::Inner;
use crate::wire::{self, Command, Response, WireTrace};

/// Per-read chunk size: each reactor shard owns one shared scratch buffer
/// of this size, not one per connection.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Rows of the suspect ranking a `TRACE` scrape returns.
const SUSPECT_TOP_K: usize = 8;

/// Decodes and executes every complete frame in `acc`, appending response
/// frames to `out`. Returns `false` when a protocol violation means the
/// connection must close (the stream can no longer be trusted to be in
/// sync); a final `ERROR` response is still emitted so the client learns
/// why.
pub(crate) fn drain_frames(
    acc: &mut Vec<u8>,
    out: &mut Vec<u8>,
    inner: &Inner,
    conn_id: u64,
) -> bool {
    let (consumed, keep_open) = drain_frame_slice(acc, out, inner, conn_id);
    acc.drain(..consumed);
    keep_open
}

/// Slice form of [`drain_frames`]: executes every complete frame in `buf`
/// and returns `(bytes consumed, keep_open)`, leaving the caller to decide
/// what to do with the unconsumed tail. The reactor's read path uses this
/// to serve frames straight out of the read scratch buffer, copying only a
/// trailing partial frame into the per-connection accumulator.
pub(crate) fn drain_frame_slice(
    buf: &[u8],
    out: &mut Vec<u8>,
    inner: &Inner,
    conn_id: u64,
) -> (usize, bool) {
    let mut consumed = 0;
    let mut keep_open = true;
    loop {
        match wire::frame_bounds(buf, consumed, inner.max_frame_bytes) {
            Ok(None) => break,
            Ok(Some((start, end))) => {
                consumed = end;
                match Command::decode(&buf[start..end]) {
                    Ok(command) => {
                        let op = op_of(&command);
                        let started = Instant::now();
                        let response = execute(&command, inner);
                        let elapsed = started.elapsed();
                        emit(&response, out);
                        inner.metrics.observe_request(op, elapsed);
                        record_frame(inner, conn_id, &command, &response, elapsed);
                        inner.requests_served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(err) => {
                        inner.metrics.protocol_errors.inc();
                        emit(&Response::Error(format!("protocol error: {err}")), out);
                        keep_open = false;
                        break;
                    }
                }
            }
            Err(err) => {
                inner.metrics.protocol_errors.inc();
                emit(&Response::Error(format!("protocol error: {err}")), out);
                keep_open = false;
                break;
            }
        }
    }
    (consumed, keep_open)
}

/// Serialises one response into `out`, falling back to a short `ERROR`
/// frame when the response itself will not fit the wire format (e.g. a
/// count past `u32::MAX`). The fallible encode truncates its partial frame
/// on failure, so the stream stays self-delimiting either way.
fn emit(response: &Response, out: &mut Vec<u8>) {
    if let Err(err) = response.encode(out) {
        Response::Error(format!("response unencodable: {err}"))
            .encode(out)
            .expect("short error response always frames");
    }
}

/// Feeds one executed frame into the forensic layer: item-bearing commands
/// become `batch` flight-recorder events carrying the fresh-bit yield the
/// response reported, inserts additionally fold that yield into the
/// per-connection suspect table (queries and deletes set no bits, so they
/// carry no attribution signal), and any command whose execution crossed
/// the slow-request threshold is logged at `warn` and recorded.
fn record_frame(
    inner: &Inner,
    conn_id: u64,
    command: &Command<'_>,
    response: &Response,
    elapsed: Duration,
) {
    let latency_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    let opcode = command.opcode();
    // Item count, plus the fresh-bit yield of an acknowledged insert.
    let executed = match (command, response) {
        (Command::Insert(_), Response::Inserted { fresh_bits }) => {
            Some((1, Some(u64::from(*fresh_bits))))
        }
        (Command::InsertBatch(items), Response::BatchInserted { fresh_bits, .. }) => {
            Some((items.len(), Some(*fresh_bits)))
        }
        (Command::Query(_) | Command::Delete(_), _) => Some((1, None)),
        (Command::QueryBatch(items) | Command::DeleteBatch(items), _) => Some((items.len(), None)),
        _ => None,
    };
    if let Some((items, inserted)) = executed {
        let items = items as u64;
        if let Some(fresh_bits) = inserted {
            inner.suspects.record_batch(conn_id, items, fresh_bits);
        }
        inner.recorder.record(TraceEvent::BatchExecuted {
            conn_id,
            opcode,
            items,
            fresh_bits: inserted.unwrap_or(0),
            latency_ns,
        });
    }
    if elapsed >= inner.slow_request_threshold {
        inner.recorder.record(TraceEvent::SlowRequest { conn_id, opcode, latency_ns });
        log_warn!(
            "slow request: conn={conn_id} op=0x{opcode:02x} took {}ms (threshold {}ms)",
            elapsed.as_millis(),
            inner.slow_request_threshold.as_millis()
        );
    }
}

/// Executes one decoded command against the store. Batch commands pass the
/// borrowed item slices straight through to the store's batch APIs, which
/// visit each shard lock exactly once per frame.
pub(crate) fn execute(command: &Command<'_>, inner: &Inner) -> Response {
    let store = inner.store.as_ref();
    // Maps a typed write refusal from the serving layer onto the wire:
    // degraded read-only mode becomes DEGRADED (retryable after a repair
    // snapshot; counted), a capability refusal stays UNSUPPORTED. Both
    // leave the connection open.
    let refused = |refusal: WriteRefusal| match refusal {
        WriteRefusal::Degraded(reason) => {
            inner.metrics.degraded_refusals.inc();
            Response::Degraded(format!("store is in degraded read-only mode: {reason}"))
        }
        WriteRefusal::Unsupported(op) => Response::Unsupported(op.to_string()),
    };
    match command {
        Command::Ping => Response::Pong,
        // Single-item writes are one-item batches: the same store path,
        // WAL record and degraded-mode guard as MINSERT/MDELETE.
        Command::Insert(item) => match store.insert_batch(std::slice::from_ref(item)) {
            Ok(outcome) => Response::Inserted { fresh_bits: outcome.fresh_bits as u32 },
            Err(refusal) => refused(refusal),
        },
        Command::Query(item) => Response::Found(store.contains(item)),
        Command::InsertBatch(items) => match wire::wire_count("batch item count", items.len()) {
            Ok(count) => match store.insert_batch(items) {
                Ok(outcome) => {
                    Response::BatchInserted { items: count, fresh_bits: outcome.fresh_bits }
                }
                Err(refusal) => refused(refusal),
            },
            Err(err) => Response::Error(format!("protocol error: {err}")),
        },
        Command::QueryBatch(items) => Response::BatchFound(store.query_batch(items)),
        // Deletion is a *capability*, not a protocol feature: non-deletable
        // families answer UNSUPPORTED (typed, connection stays open), so a
        // remote deletion adversary learns the family refuses rather than
        // tripping a protocol error.
        Command::Delete(item) => match store.remove_batch(std::slice::from_ref(item)) {
            Ok(answers) => Response::Deleted { was_present: answers[0] },
            Err(refusal) => refused(refusal),
        },
        Command::DeleteBatch(items) => match store.remove_batch(items) {
            Ok(answers) => Response::BatchDeleted(answers),
            Err(refusal) => refused(refusal),
        },
        Command::Stats => Response::Stats(store.stats()),
        Command::Metrics => {
            // A scrape refreshes the sampled store gauges (per-shard fill,
            // alarms, the drift series) and the uptime gauge before
            // rendering, so the exposition is taken at scrape time.
            store.sample_metrics();
            inner.metrics.uptime_seconds.set(inner.started.elapsed().as_secs_f64());
            Response::Metrics(evilbloom_metrics::Registry::render_merged(&[
                inner.metrics.registry(),
                store.metrics().registry(),
            ]))
        }
        Command::Snapshot => match store.snapshot_to_disk() {
            Ok(info) => Response::Snapshotted(info),
            Err(err) => Response::Error(format!("snapshot failed: {err}")),
        },
        Command::RotateBegin { shard } => match checked_shard(store, *shard) {
            Err(error) => error,
            Ok(shard) => {
                let generation = {
                    let mut rng = inner.rotation_rng.lock().expect("rotation rng poisoned");
                    store.begin_rotation_dyn(shard, &mut *rng)
                };
                if let Some(generation) = generation {
                    inner
                        .recorder
                        .record(TraceEvent::RotationBegun { shard: shard as u64, generation });
                }
                Response::Rotated { generation }
            }
        },
        Command::RotateComplete { shard } => match checked_shard(store, *shard) {
            Err(error) => error,
            Ok(shard) => {
                let dropped = store.complete_rotation(shard);
                if dropped {
                    inner.recorder.record(TraceEvent::RotationCompleted { shard: shard as u64 });
                }
                Response::RotationCompleted(dropped)
            }
        },
        Command::Trace => {
            // Like `METRICS`, a trace scrape refreshes the sampled store
            // gauges first: alarm transitions are detected (and recorded as
            // events) at sample time, so the scrape that asks "who did
            // this?" is also the one that notices the alarm.
            store.sample_metrics();
            // Fields evaluate in the order written: the counters are read
            // after the events, so they cover every retained event.
            Response::Trace(WireTrace {
                events: inner.recorder.snapshot(),
                suspects: inner.suspects.top(SUSPECT_TOP_K),
                drift: store.metrics().drift_series(),
                recorded: inner.recorder.recorded(),
                dropped: inner.recorder.dropped(),
                overwritten: inner.recorder.overwritten(),
            })
        }
    }
}

fn checked_shard(store: &dyn evilbloom_store::ServeStore, shard: u32) -> Result<usize, Response> {
    let index = shard as usize;
    if index >= store.shard_count() {
        return Err(Response::Error(format!(
            "shard {index} out of range (store has {} shards)",
            store.shard_count()
        )));
    }
    Ok(index)
}

/// Once this many response bytes are pending un-sent, the connection
/// stops *reading* until the peer drains them — a peer that pipelines
/// without ever receiving gets backpressure instead of ballooning the
/// server's write buffer without bound.
const OUT_HIGH_WATER: usize = 4 * 1024 * 1024;

/// What a readiness event did to the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Still serving; re-arm with [`Connection::wants_read`] /
    /// [`Connection::wants_write`].
    Open,
    /// EOF, fatal I/O error, or a protocol violation whose `ERROR`
    /// response has been fully flushed: deregister and drop.
    Closed,
}

/// One non-blocking connection: a receive accumulator, a pending-write
/// buffer with a flush cursor, and the closing flag that keeps a
/// protocol-violation `ERROR` alive until it has been flushed.
pub(crate) struct Connection {
    stream: TcpStream,
    conn_id: u64,
    acc: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    closing: bool,
    /// When the connection first hit the pending-write high-water mark
    /// without draining since — the slow-consumer eviction clock.
    /// Cleared whenever a flush makes progress.
    stalled_since: Option<Instant>,
}

impl Connection {
    /// Wraps an accepted stream (already set non-blocking) with pooled
    /// buffers, under the forensic connection id the reactor allocated.
    pub(crate) fn new(stream: TcpStream, conn_id: u64, acc: Vec<u8>, out: Vec<u8>) -> Connection {
        Connection { stream, conn_id, acc, out, out_pos: 0, closing: false, stalled_since: None }
    }

    /// The forensic connection id this connection records under.
    pub(crate) fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Reclaims the pooled buffers when the connection closes.
    pub(crate) fn into_buffers(self) -> (Vec<u8>, Vec<u8>) {
        let Connection { acc, mut out, .. } = self;
        out.clear();
        (acc, out)
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Whether the reactor should watch this connection for readability.
    pub(crate) fn wants_read(&self) -> bool {
        !self.closing && self.pending_out() < OUT_HIGH_WATER
    }

    /// Whether the reactor should watch this connection for writability
    /// (only while a flush came up short — `EPOLLOUT` on an idle
    /// connection would busy-loop a level-triggered poll).
    pub(crate) fn wants_write(&self) -> bool {
        self.pending_out() > 0
    }

    /// How long this connection has been pinned at the pending-write
    /// high-water mark without the peer draining anything. `None` while
    /// healthy. The reactor evicts connections stalled past the
    /// configured slow-consumer grace period.
    pub(crate) fn stalled_for(&self, now: Instant) -> Option<Duration> {
        self.stalled_since.map(|since| now.saturating_duration_since(since))
    }

    /// Readable readiness: read until `WouldBlock` (or the backpressure
    /// high-water mark), execute every complete frame, flush.
    pub(crate) fn on_readable(&mut self, scratch: &mut [u8], inner: &Inner) -> Status {
        loop {
            if fault::check_io(FaultPoint::SocketRead).is_err() {
                return Status::Closed;
            }
            match self.stream.read(scratch) {
                Ok(0) => {
                    // EOF. The peer may have half-closed (shutdown of
                    // its write side) and still be reading: responses
                    // already executed must reach it, so route through
                    // the flush-then-close path instead of dropping
                    // pending bytes.
                    self.closing = true;
                    break;
                }
                Ok(n) => {
                    inner.metrics.bytes_read.add(n as u64);
                    let keep_open = if self.acc.is_empty() {
                        // Zero-copy fast path (the common case: no
                        // partial frame pending): serve complete frames
                        // straight from the scratch buffer and copy
                        // only a trailing partial frame into the
                        // accumulator.
                        let (consumed, keep_open) =
                            drain_frame_slice(&scratch[..n], &mut self.out, inner, self.conn_id);
                        if keep_open {
                            self.acc.extend_from_slice(&scratch[consumed..n]);
                        }
                        keep_open
                    } else {
                        self.acc.extend_from_slice(&scratch[..n]);
                        drain_frames(&mut self.acc, &mut self.out, inner, self.conn_id)
                    };
                    if !keep_open {
                        // Protocol violation: flush the ERROR response,
                        // then close (see `flush`).
                        self.closing = true;
                        break;
                    }
                    if !self.wants_read() {
                        // Backpressure: pending writes first. Start the
                        // slow-consumer clock; a flush that makes
                        // progress resets it.
                        inner.metrics.reactor_backpressure.inc();
                        if self.stalled_since.is_none() {
                            self.stalled_since = Some(Instant::now());
                        }
                        break;
                    }
                    if n < scratch.len() {
                        break; // socket very likely drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Status::Closed,
            }
        }
        self.flush(inner)
    }

    /// Writable readiness (or an opportunistic flush after executing
    /// frames): write pending response bytes until done or `WouldBlock`.
    pub(crate) fn flush(&mut self, inner: &Inner) -> Status {
        while self.out_pos < self.out.len() {
            let pending = self.out.len() - self.out_pos;
            // An injected short write sends a truncated prefix and then
            // drops the connection mid-frame: the client must see a
            // connection error, never a silently short answer.
            let Ok(allowed) = fault::check_write(FaultPoint::SocketWrite, pending) else {
                return Status::Closed;
            };
            match self.stream.write(&self.out[self.out_pos..self.out_pos + allowed]) {
                Ok(0) => return Status::Closed,
                Ok(n) => {
                    inner.metrics.bytes_written.add(n as u64);
                    self.out_pos += n;
                    if allowed < pending {
                        return Status::Closed;
                    }
                    // The peer is draining again: restart the
                    // slow-consumer grace period.
                    self.stalled_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Status::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Status::Closed,
            }
        }
        self.out.clear();
        self.out_pos = 0;
        if self.closing {
            // The protocol-violation ERROR is on the wire; now close.
            return Status::Closed;
        }
        Status::Open
    }
}
