//! The evilbloom wire protocol: compact length-prefixed binary frames shared
//! by the server and the client.
//!
//! ## Frame layout
//!
//! ```text
//! +----------------+-----------+----------+------------------+
//! | len: u32 LE    | version:  | opcode:  | body (len - 2    |
//! | (payload size) | u8 (= 2)  | u8       | bytes)           |
//! +----------------+-----------+----------+------------------+
//! ```
//!
//! The length prefix counts the payload (version byte onwards), so a frame
//! occupies `4 + len` bytes on the wire. All integers are little-endian;
//! floats travel as their IEEE-754 bit patterns. Frames above a configurable
//! cap ([`DEFAULT_MAX_FRAME_BYTES`]) are rejected before any allocation, so
//! a hostile length prefix cannot balloon memory.
//!
//! Every reply has exactly one layout per [`PROTOCOL_VERSION`], and the
//! decoder reads every field of it or fails with [`WireError::Malformed`].
//! There are no optional tails: adding, removing or reordering a field
//! bumps the version byte, which a peer of any other version refuses with
//! [`WireError::BadVersion`].
//!
//! ## Commands and responses
//!
//! | Opcode | Command | Body | Response |
//! |---|---|---|---|
//! | `0x01` | `PING` | — | `0x81 PONG` |
//! | `0x02` | `INSERT` | item bytes | `0x82 INSERTED` (fresh bits `u32`) |
//! | `0x03` | `QUERY` | item bytes | `0x83 FOUND` (`u8` bool) |
//! | `0x04` | `MINSERT` | item list | `0x84 MINSERTED` (`u32` items, `u64` fresh bits) |
//! | `0x05` | `MQUERY` | item list | `0x85 MFOUND` (`u32` count + bitmap) |
//! | `0x06` | `STATS` | — | `0x86 STATS` (see below) |
//! | `0x07` | `ROTATE` | `u8` phase, `u32` shard | `0x87 ROTATED` |
//! | `0x08` | `SNAPSHOT` | — | `0x88 SNAPSHOTTED` (seq `u64`, WAL seq `u64`, shards `u32`, bytes `u64`) |
//! | `0x09` | `METRICS` | — | `0x89 METRICS` (UTF-8 text exposition) |
//! | `0x0A` | `DELETE` | item bytes | `0x8A DELETED` (`u8` was-present) |
//! | `0x0B` | `MDELETE` | item list | `0x8B MDELETED` (`u32` count + bitmap) |
//! | `0x0C` | `TRACE` | — | `0x8C TRACE` (flight-recorder events + suspect table + drift timeline) |
//! | — | — | — | `0xEE ERROR` (UTF-8 message) |
//! | — | — | — | `0xEF UNSUPPORTED` (UTF-8 message) |
//! | — | — | — | `0xED BUSY` (`u32` retry-after hint, ms) |
//! | — | — | — | `0xEC DEGRADED` (UTF-8 reason) |
//!
//! `DELETE`/`MDELETE` are honoured only by deletable filter families
//! (counting backends); elsewhere the server answers `UNSUPPORTED` — a typed
//! capability refusal that, unlike `ERROR` on a protocol violation, leaves
//! the connection open. `BUSY` (admission control tripped; retry after the
//! hinted backoff) and `DEGRADED` (the store's WAL broke, writes are
//! refused until a snapshot repairs it — queries still serve) are typed
//! refusals of the same kind: the connection stays open.
//!
//! An *item list* is a `u32` count followed by `count` entries of `u32`
//! length then bytes. The `MFOUND` bitmap packs answer `i` into bit `i % 8`
//! of byte `i / 8`, padding bits zero.
//!
//! The `STATS` body is [`evilbloom_store::StoreStats`]: the `u8` hardened
//! flag, `u64` total inserted, `f64` mean fill, `f64` max estimated FPP,
//! `u32` alarm count, `u32` shard count, one 54-byte record per shard
//! (`u64` generation, `u8` rotating, `u64` m, `u32` k, `u64` inserted,
//! `u64` weight, `f64` fill, `f64` estimated FPP, `u8` pollution alarm; the
//! shard index is the record's position), then the `u8` backend code and
//! the `u8` degraded flag. Server uptime is not part of it: it is the
//! `evilbloom_server_uptime_seconds` gauge of `METRICS`.
//!
//! Decoding is allocation-bounded and panic-free on arbitrary input: every
//! malformed, truncated or oversized frame surfaces as a [`WireError`].
//! Commands borrow their item bytes from the receive buffer
//! ([`Command<'a>`]), so the server hands slices straight from the socket
//! buffer to the store's batch APIs without copying.

use std::io::{self, Read};

use evilbloom_store::{BackendKind, ShardStats, SnapshotInfo, StoreStats};
use evilbloom_trace::{ConnDrift, RecordedEvent, TraceEvent, EVENT_PAYLOAD_WORDS};

/// Version byte every payload starts with. Bumped whenever any frame's
/// layout changes (see the module docs).
pub const PROTOCOL_VERSION: u8 = 2;

/// Default cap on the payload length a peer will accept (16 MiB) — large
/// enough for tens of thousands of URLs per batch frame, small enough that a
/// hostile length prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

const OP_PING: u8 = 0x01;
const OP_INSERT: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_MINSERT: u8 = 0x04;
const OP_MQUERY: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_ROTATE: u8 = 0x07;
const OP_SNAPSHOT: u8 = 0x08;
const OP_METRICS: u8 = 0x09;
const OP_DELETE: u8 = 0x0A;
const OP_MDELETE: u8 = 0x0B;
const OP_TRACE: u8 = 0x0C;

const OP_PONG: u8 = 0x81;
const OP_INSERTED: u8 = 0x82;
const OP_FOUND: u8 = 0x83;
const OP_MINSERTED: u8 = 0x84;
const OP_MFOUND: u8 = 0x85;
const OP_STATS_REPLY: u8 = 0x86;
const OP_ROTATED: u8 = 0x87;
const OP_SNAPSHOT_REPLY: u8 = 0x88;
const OP_METRICS_REPLY: u8 = 0x89;
const OP_DELETED: u8 = 0x8A;
const OP_MDELETED: u8 = 0x8B;
const OP_TRACE_REPLY: u8 = 0x8C;
const OP_ERROR: u8 = 0xEE;
const OP_UNSUPPORTED: u8 = 0xEF;
const OP_BUSY: u8 = 0xED;
const OP_DEGRADED: u8 = 0xEC;

const ROTATE_BEGIN: u8 = 0;
const ROTATE_COMPLETE: u8 = 1;

/// A protocol violation found while decoding a frame. Decoders return these
/// instead of panicking, whatever bytes the peer sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the structure it announced was complete.
    Truncated,
    /// The version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Unknown opcode for this direction (command vs. response).
    BadOpcode(u8),
    /// The length prefix exceeds the configured frame cap. `len` is a `u64`
    /// so the *true* offending size reaches operators even when a payload
    /// under construction exceeds what the `u32` prefix could express.
    Oversized {
        /// Announced (or attempted) payload length, unclamped.
        len: u64,
        /// The cap it violates.
        max: u32,
    },
    /// A count or length on the encode side exceeds what its `u32` wire
    /// field can carry — surfaced instead of silently truncating the frame.
    TooLarge {
        /// Which field overflowed.
        what: &'static str,
        /// The value that did not fit.
        value: u64,
    },
    /// Structurally invalid body (counts or lengths that do not add up,
    /// stray trailing bytes, non-UTF-8 error text, …).
    Malformed(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload is truncated"),
            WireError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {PROTOCOL_VERSION})")
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::TooLarge { what, value } => {
                write!(f, "{what} of {value} exceeds the u32 wire field")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A request frame. Item bytes are borrowed from the receive buffer, so the
/// server can feed them to the store's batch APIs without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command<'a> {
    /// Liveness probe.
    Ping,
    /// Insert one item; the response carries the number of fresh bits set.
    Insert(&'a [u8]),
    /// Membership query for one item.
    Query(&'a [u8]),
    /// Batch insert: one frame visits each store shard at most once.
    InsertBatch(Vec<&'a [u8]>),
    /// Batch query; answers come back in input order as a bitmap.
    QueryBatch(Vec<&'a [u8]>),
    /// Health snapshot: per-shard fill, FPP estimates and pollution alarms.
    Stats,
    /// Start a key rotation on one shard (the old generation keeps
    /// answering; replay the item set, then send `RotateComplete`).
    RotateBegin {
        /// Shard index.
        shard: u32,
    },
    /// Drop a shard's draining generation, finishing its rotation.
    RotateComplete {
        /// Shard index.
        shard: u32,
    },
    /// Write a durable snapshot of the store while serving continues
    /// (requires the server to have persistence attached).
    Snapshot,
    /// Scrape the server's runtime telemetry as a text exposition.
    Metrics,
    /// Delete one item (deletable filter families only; elsewhere the
    /// server answers [`Response::Unsupported`]).
    Delete(&'a [u8]),
    /// Batch delete; answers come back in input order as a bitmap.
    DeleteBatch(Vec<&'a [u8]>),
    /// Fetch the server's forensic trace: recent flight-recorder events,
    /// the per-connection suspect ranking and the drift timeline.
    Trace,
}

impl<'a> Command<'a> {
    /// Appends the complete frame (length prefix included) to `out`.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] when a count or length exceeds its `u32` wire
    /// field (`out` is left exactly as it was), instead of silently encoding
    /// a truncated frame.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = begin_frame(out);
        let result = (|| {
            match self {
                Command::Ping => out.push(OP_PING),
                Command::Insert(item) => {
                    out.push(OP_INSERT);
                    out.extend_from_slice(item);
                }
                Command::Query(item) => {
                    out.push(OP_QUERY);
                    out.extend_from_slice(item);
                }
                Command::InsertBatch(items) => {
                    out.push(OP_MINSERT);
                    put_items(out, items)?;
                }
                Command::QueryBatch(items) => {
                    out.push(OP_MQUERY);
                    put_items(out, items)?;
                }
                Command::Stats => out.push(OP_STATS),
                Command::RotateBegin { shard } => {
                    out.push(OP_ROTATE);
                    out.push(ROTATE_BEGIN);
                    out.extend_from_slice(&shard.to_le_bytes());
                }
                Command::RotateComplete { shard } => {
                    out.push(OP_ROTATE);
                    out.push(ROTATE_COMPLETE);
                    out.extend_from_slice(&shard.to_le_bytes());
                }
                Command::Snapshot => out.push(OP_SNAPSHOT),
                Command::Metrics => out.push(OP_METRICS),
                Command::Delete(item) => {
                    out.push(OP_DELETE);
                    out.extend_from_slice(item);
                }
                Command::DeleteBatch(items) => {
                    out.push(OP_MDELETE);
                    put_items(out, items)?;
                }
                Command::Trace => out.push(OP_TRACE),
            }
            finish_frame(out, start)
        })();
        if result.is_err() {
            out.truncate(start);
        }
        result
    }

    /// The command's wire opcode byte, as recorded in forensic trace
    /// events (both rotation phases share `ROTATE`).
    #[cfg(target_os = "linux")]
    pub(crate) fn opcode(&self) -> u8 {
        match self {
            Command::Ping => OP_PING,
            Command::Insert(_) => OP_INSERT,
            Command::Query(_) => OP_QUERY,
            Command::InsertBatch(_) => OP_MINSERT,
            Command::QueryBatch(_) => OP_MQUERY,
            Command::Stats => OP_STATS,
            Command::RotateBegin { .. } | Command::RotateComplete { .. } => OP_ROTATE,
            Command::Snapshot => OP_SNAPSHOT,
            Command::Metrics => OP_METRICS,
            Command::Delete(_) => OP_DELETE,
            Command::DeleteBatch(_) => OP_MDELETE,
            Command::Trace => OP_TRACE,
        }
    }

    /// Decodes a command from a frame payload (length prefix already
    /// stripped). Borrows item bytes from `payload`.
    pub fn decode(payload: &'a [u8]) -> Result<Command<'a>, WireError> {
        let mut r = Reader::new(payload)?;
        let command = match r.opcode {
            OP_PING => Command::Ping,
            OP_INSERT => Command::Insert(r.rest()),
            OP_QUERY => Command::Query(r.rest()),
            OP_MINSERT => Command::InsertBatch(r.items()?),
            OP_MQUERY => Command::QueryBatch(r.items()?),
            OP_STATS => Command::Stats,
            OP_SNAPSHOT => Command::Snapshot,
            OP_METRICS => Command::Metrics,
            OP_DELETE => Command::Delete(r.rest()),
            OP_MDELETE => Command::DeleteBatch(r.items()?),
            OP_TRACE => Command::Trace,
            OP_ROTATE => {
                let phase = r.u8()?;
                let shard = r.u32()?;
                match phase {
                    ROTATE_BEGIN => Command::RotateBegin { shard },
                    ROTATE_COMPLETE => Command::RotateComplete { shard },
                    _ => return Err(WireError::Malformed("unknown rotate phase")),
                }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        r.done()?;
        Ok(command)
    }
}

/// A response frame (owned: the client keeps it after the receive buffer is
/// reused).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Command::Ping`].
    Pong,
    /// Reply to [`Command::Insert`].
    Inserted {
        /// Bits this insertion flipped 0 → 1.
        fresh_bits: u32,
    },
    /// Reply to [`Command::Query`].
    Found(bool),
    /// Reply to [`Command::InsertBatch`].
    BatchInserted {
        /// Items inserted.
        items: u32,
        /// Bits the batch flipped 0 → 1 across all shards.
        fresh_bits: u64,
    },
    /// Reply to [`Command::QueryBatch`], answers in input order.
    BatchFound(Vec<bool>),
    /// Reply to [`Command::Stats`].
    Stats(StoreStats),
    /// Reply to [`Command::RotateBegin`]: the new generation id, or `None`
    /// if a rotation was already draining on that shard.
    Rotated {
        /// New active generation id, when the rotation started.
        generation: Option<u64>,
    },
    /// Reply to [`Command::RotateComplete`]: whether a draining generation
    /// was actually dropped.
    RotationCompleted(bool),
    /// Reply to [`Command::Snapshot`]: where the snapshot landed.
    Snapshotted(SnapshotInfo),
    /// Reply to [`Command::Metrics`]: the telemetry text exposition.
    Metrics(String),
    /// Reply to [`Command::Delete`]: whether the item was (probably)
    /// present before removal.
    Deleted {
        /// Every index of the item held a live cell before the decrement.
        was_present: bool,
    },
    /// Reply to [`Command::DeleteBatch`], answers in input order.
    BatchDeleted(Vec<bool>),
    /// Reply to [`Command::Trace`]: the server's forensic trace.
    Trace(WireTrace),
    /// The served filter family cannot honour the request (e.g. `DELETE`
    /// against a plain Bloom backend). Unlike [`Response::Error`] for a
    /// protocol violation, the connection stays open.
    Unsupported(String),
    /// The server is overloaded (admission control tripped): retry after
    /// roughly the hinted backoff. A typed, retryable refusal — the
    /// connection (when one was admitted at all) stays open.
    Busy {
        /// How long the client should wait before retrying, milliseconds.
        retry_after_ms: u32,
    },
    /// The store is in degraded read-only mode (its WAL broke): the write
    /// was refused, queries still serve. Carries the operator-facing reason.
    /// The connection stays open; a successful `SNAPSHOT` repairs the store.
    Degraded(String),
    /// The server could not serve the request (protocol violation, shard
    /// out of range, …). Protocol violations also close the connection.
    Error(String),
}

impl Response {
    /// Short constant name of the variant (used in mismatch diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            Response::Pong => "PONG",
            Response::Inserted { .. } => "INSERTED",
            Response::Found(_) => "FOUND",
            Response::BatchInserted { .. } => "MINSERTED",
            Response::BatchFound(_) => "MFOUND",
            Response::Stats(_) => "STATS",
            Response::Rotated { .. } => "ROTATED",
            Response::RotationCompleted(_) => "ROTATION_COMPLETED",
            Response::Snapshotted(_) => "SNAPSHOTTED",
            Response::Metrics(_) => "METRICS",
            Response::Deleted { .. } => "DELETED",
            Response::BatchDeleted(_) => "MDELETED",
            Response::Trace(_) => "TRACE",
            Response::Unsupported(_) => "UNSUPPORTED",
            Response::Busy { .. } => "BUSY",
            Response::Degraded(_) => "DEGRADED",
            Response::Error(_) => "ERROR",
        }
    }

    /// Appends the complete frame (length prefix included) to `out`.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] when a count or length exceeds its `u32` wire
    /// field (`out` is left exactly as it was), instead of silently encoding
    /// a truncated frame.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = begin_frame(out);
        let result = (|| {
            match self {
                Response::Pong => out.push(OP_PONG),
                Response::Inserted { fresh_bits } => {
                    out.push(OP_INSERTED);
                    out.extend_from_slice(&fresh_bits.to_le_bytes());
                }
                Response::Found(found) => {
                    out.push(OP_FOUND);
                    out.push(u8::from(*found));
                }
                Response::BatchInserted { items, fresh_bits } => {
                    out.push(OP_MINSERTED);
                    out.extend_from_slice(&items.to_le_bytes());
                    out.extend_from_slice(&fresh_bits.to_le_bytes());
                }
                Response::BatchFound(answers) => {
                    out.push(OP_MFOUND);
                    put_bitmap(out, answers)?;
                }
                Response::Stats(stats) => {
                    out.push(OP_STATS_REPLY);
                    encode_stats(stats, out)?;
                }
                Response::Rotated { generation } => {
                    out.push(OP_ROTATED);
                    out.push(ROTATE_BEGIN);
                    out.push(u8::from(generation.is_some()));
                    out.extend_from_slice(&generation.unwrap_or(0).to_le_bytes());
                }
                Response::RotationCompleted(completed) => {
                    out.push(OP_ROTATED);
                    out.push(ROTATE_COMPLETE);
                    out.push(u8::from(*completed));
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
                Response::Snapshotted(info) => {
                    out.push(OP_SNAPSHOT_REPLY);
                    out.extend_from_slice(&info.seq.to_le_bytes());
                    out.extend_from_slice(&info.wal_seq.to_le_bytes());
                    out.extend_from_slice(&info.shards.to_le_bytes());
                    out.extend_from_slice(&info.bytes.to_le_bytes());
                }
                Response::Metrics(text) => {
                    out.push(OP_METRICS_REPLY);
                    out.extend_from_slice(text.as_bytes());
                }
                Response::Deleted { was_present } => {
                    out.push(OP_DELETED);
                    out.push(u8::from(*was_present));
                }
                Response::BatchDeleted(answers) => {
                    out.push(OP_MDELETED);
                    put_bitmap(out, answers)?;
                }
                Response::Trace(trace) => {
                    out.push(OP_TRACE_REPLY);
                    trace.encode(out)?;
                }
                Response::Unsupported(message) => {
                    out.push(OP_UNSUPPORTED);
                    out.extend_from_slice(message.as_bytes());
                }
                Response::Busy { retry_after_ms } => {
                    out.push(OP_BUSY);
                    out.extend_from_slice(&retry_after_ms.to_le_bytes());
                }
                Response::Degraded(reason) => {
                    out.push(OP_DEGRADED);
                    out.extend_from_slice(reason.as_bytes());
                }
                Response::Error(message) => {
                    out.push(OP_ERROR);
                    out.extend_from_slice(message.as_bytes());
                }
            }
            finish_frame(out, start)
        })();
        if result.is_err() {
            out.truncate(start);
        }
        result
    }

    /// Decodes a response from a frame payload (length prefix stripped).
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload)?;
        let response = match r.opcode {
            OP_PONG => Response::Pong,
            OP_INSERTED => Response::Inserted { fresh_bits: r.u32()? },
            OP_FOUND => Response::Found(r.flag()?),
            OP_MINSERTED => Response::BatchInserted { items: r.u32()?, fresh_bits: r.u64()? },
            OP_MFOUND => Response::BatchFound(r.bitmap()?),
            OP_DELETED => Response::Deleted { was_present: r.flag()? },
            OP_MDELETED => Response::BatchDeleted(r.bitmap()?),
            OP_STATS_REPLY => Response::Stats(decode_stats(&mut r)?),
            OP_TRACE_REPLY => Response::Trace(WireTrace::decode(&mut r)?),
            OP_SNAPSHOT_REPLY => Response::Snapshotted(SnapshotInfo {
                seq: r.u64()?,
                wal_seq: r.u64()?,
                shards: r.u32()?,
                bytes: r.u64()?,
            }),
            OP_ROTATED => {
                let phase = r.u8()?;
                let flag = r.flag()?;
                let generation = r.u64()?;
                match phase {
                    ROTATE_BEGIN => Response::Rotated { generation: flag.then_some(generation) },
                    ROTATE_COMPLETE => {
                        if generation != 0 {
                            return Err(WireError::Malformed(
                                "rotation-completed carries a generation",
                            ));
                        }
                        Response::RotationCompleted(flag)
                    }
                    _ => return Err(WireError::Malformed("unknown rotate phase")),
                }
            }
            OP_METRICS_REPLY => Response::Metrics(
                String::from_utf8(r.rest().to_vec())
                    .map_err(|_| WireError::Malformed("metrics exposition is not UTF-8"))?,
            ),
            OP_UNSUPPORTED => Response::Unsupported(
                String::from_utf8(r.rest().to_vec())
                    .map_err(|_| WireError::Malformed("unsupported message is not UTF-8"))?,
            ),
            OP_BUSY => Response::Busy { retry_after_ms: r.u32()? },
            OP_DEGRADED => Response::Degraded(
                String::from_utf8(r.rest().to_vec())
                    .map_err(|_| WireError::Malformed("degraded reason is not UTF-8"))?,
            ),
            OP_ERROR => Response::Error(
                String::from_utf8(r.rest().to_vec())
                    .map_err(|_| WireError::Malformed("error message is not UTF-8"))?,
            ),
            other => return Err(WireError::BadOpcode(other)),
        };
        r.done()?;
        Ok(response)
    }
}

/// The server's forensic trace as it travels over the wire: the flight
/// recorder's counters and retained events, the suspect ranking and the
/// drift timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTrace {
    /// Events ever recorded (including overwritten and dropped ones).
    pub recorded: u64,
    /// Events lost to recorder write contention.
    pub dropped: u64,
    /// Events that scrolled out of the ring, overwritten by newer ones.
    pub overwritten: u64,
    /// The retained events, oldest first.
    pub events: Vec<RecordedEvent>,
    /// The top-K suspect ranking, most suspicious first.
    pub suspects: Vec<ConnDrift>,
    /// The recent `(inserts, fresh_bits)` drift timeline, oldest sample
    /// first (see `StoreMetrics::drift_series`).
    pub drift: Vec<(u64, u64)>,
}

/// Encoded size of one shard record: two `u8` flags, one `u32` and six
/// `u64`-sized fields (the shard index is the record's position).
const SHARD_RECORD_BYTES: usize = 8 + 1 + 8 + 4 + 8 + 8 + 8 + 8 + 1;
/// Encoded size of one event record: seq + timestamp + kind byte + payload.
const TRACE_EVENT_BYTES: usize = 8 + 8 + 1 + 8 * EVENT_PAYLOAD_WORDS;
/// Encoded size of one suspect row.
const TRACE_SUSPECT_BYTES: usize = 8 + 8 + 8 + 8 + 8;
/// Encoded size of one drift sample.
const TRACE_DRIFT_BYTES: usize = 8 + 8;

fn encode_stats(stats: &StoreStats, out: &mut Vec<u8>) -> Result<(), WireError> {
    out.push(u8::from(stats.hardened));
    out.extend_from_slice(&stats.total_inserted.to_le_bytes());
    out.extend_from_slice(&stats.mean_fill.to_bits().to_le_bytes());
    out.extend_from_slice(&stats.max_estimated_fpp.to_bits().to_le_bytes());
    out.extend_from_slice(&wire_count("alarm count", stats.alarms)?.to_le_bytes());
    out.extend_from_slice(&wire_count("shard count", stats.shards.len())?.to_le_bytes());
    for shard in &stats.shards {
        out.extend_from_slice(&shard.generation.to_le_bytes());
        out.push(u8::from(shard.rotating));
        out.extend_from_slice(&shard.m.to_le_bytes());
        out.extend_from_slice(&shard.k.to_le_bytes());
        out.extend_from_slice(&shard.inserted.to_le_bytes());
        out.extend_from_slice(&shard.weight.to_le_bytes());
        out.extend_from_slice(&shard.fill.to_bits().to_le_bytes());
        out.extend_from_slice(&shard.estimated_fpp.to_bits().to_le_bytes());
        out.push(u8::from(shard.pollution_alarm));
    }
    out.push(stats.backend.code());
    out.push(u8::from(stats.degraded));
    Ok(())
}

fn decode_stats(r: &mut Reader<'_>) -> Result<StoreStats, WireError> {
    let hardened = r.flag()?;
    let total_inserted = r.u64()?;
    let mean_fill = r.f64()?;
    let max_estimated_fpp = r.f64()?;
    let alarms = r.u32()? as usize;
    let count = r.u32()? as usize;
    // Reject counts the body cannot hold before allocating.
    if count > r.remaining() / SHARD_RECORD_BYTES {
        return Err(WireError::Malformed("shard count exceeds frame"));
    }
    let mut shards = Vec::with_capacity(count);
    for shard in 0..count {
        shards.push(ShardStats {
            shard,
            generation: r.u64()?,
            rotating: r.flag()?,
            m: r.u64()?,
            k: r.u32()?,
            inserted: r.u64()?,
            weight: r.u64()?,
            fill: r.f64()?,
            estimated_fpp: r.f64()?,
            pollution_alarm: r.flag()?,
        });
    }
    let backend = BackendKind::from_code(r.u8()?)
        .ok_or(WireError::Malformed("unknown backend code in stats"))?;
    let degraded = r.flag()?;
    Ok(StoreStats {
        backend,
        hardened,
        degraded,
        shards,
        total_inserted,
        mean_fill,
        max_estimated_fpp,
        alarms,
    })
}

impl WireTrace {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.extend_from_slice(&self.recorded.to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        out.extend_from_slice(&self.overwritten.to_le_bytes());
        out.extend_from_slice(&wire_count("event count", self.events.len())?.to_le_bytes());
        for event in &self.events {
            out.extend_from_slice(&event.seq.to_le_bytes());
            out.extend_from_slice(&event.ts_ms.to_le_bytes());
            let (kind, payload) = event.event.to_raw();
            out.push(kind);
            for word in payload {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        out.extend_from_slice(&wire_count("suspect count", self.suspects.len())?.to_le_bytes());
        for suspect in &self.suspects {
            out.extend_from_slice(&suspect.conn_id.to_le_bytes());
            out.extend_from_slice(&suspect.ewma_bits_per_item.to_bits().to_le_bytes());
            out.extend_from_slice(&suspect.batches.to_le_bytes());
            out.extend_from_slice(&suspect.items.to_le_bytes());
            out.extend_from_slice(&suspect.fresh_bits.to_le_bytes());
        }
        out.extend_from_slice(&wire_count("drift count", self.drift.len())?.to_le_bytes());
        for (inserts, fresh_bits) in &self.drift {
            out.extend_from_slice(&inserts.to_le_bytes());
            out.extend_from_slice(&fresh_bits.to_le_bytes());
        }
        Ok(())
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let recorded = r.u64()?;
        let dropped = r.u64()?;
        let overwritten = r.u64()?;
        let count = r.u32()? as usize;
        if count > r.remaining() / TRACE_EVENT_BYTES {
            return Err(WireError::Malformed("event count exceeds frame"));
        }
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let seq = r.u64()?;
            let ts_ms = r.u64()?;
            let kind = r.u8()?;
            let mut payload = [0u64; EVENT_PAYLOAD_WORDS];
            for word in &mut payload {
                *word = r.u64()?;
            }
            let event = TraceEvent::from_raw(kind, payload)
                .ok_or(WireError::Malformed("unknown trace event kind"))?;
            events.push(RecordedEvent { seq, ts_ms, event });
        }
        let count = r.u32()? as usize;
        if count > r.remaining() / TRACE_SUSPECT_BYTES {
            return Err(WireError::Malformed("suspect count exceeds frame"));
        }
        let mut suspects = Vec::with_capacity(count);
        for _ in 0..count {
            suspects.push(ConnDrift {
                conn_id: r.u64()?,
                ewma_bits_per_item: r.f64()?,
                batches: r.u64()?,
                items: r.u64()?,
                fresh_bits: r.u64()?,
            });
        }
        let count = r.u32()? as usize;
        if count > r.remaining() / TRACE_DRIFT_BYTES {
            return Err(WireError::Malformed("drift count exceeds frame"));
        }
        let mut drift = Vec::with_capacity(count);
        for _ in 0..count {
            drift.push((r.u64()?, r.u64()?));
        }
        Ok(WireTrace { recorded, dropped, overwritten, events, suspects, drift })
    }

    /// Renders the trace as a deterministic text exposition: the retained
    /// events, the suspect table and the drift timeline, in a fixed layout
    /// an operator can diff between scrapes.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== evilbloom trace: recorded={} dropped={} overwritten={} retained={} ==",
            self.recorded,
            self.dropped,
            self.overwritten,
            self.events.len(),
        );
        out.push_str("-- events (oldest first) --\n");
        for e in &self.events {
            let _ = write!(out, "[{:>8}ms] #{:<6} {:<15}", e.ts_ms, e.seq, e.event.tag());
            let _ = match e.event {
                TraceEvent::ConnOpened { conn_id } | TraceEvent::ConnClosed { conn_id } => {
                    writeln!(out, " conn={conn_id}")
                }
                TraceEvent::BatchExecuted { conn_id, opcode, items, fresh_bits, latency_ns } => {
                    writeln!(
                        out,
                        " conn={conn_id} op={} items={items} fresh_bits={fresh_bits} \
                         latency_ns={latency_ns}",
                        op_name(opcode)
                    )
                }
                TraceEvent::AlarmTripped { shard } => writeln!(out, " shard={shard}"),
                TraceEvent::RotationBegun { shard, generation } => {
                    writeln!(out, " shard={shard} generation={generation}")
                }
                TraceEvent::RotationCompleted { shard } => writeln!(out, " shard={shard}"),
                TraceEvent::WalFsyncStall { latency_ns } => {
                    writeln!(out, " latency_ns={latency_ns}")
                }
                TraceEvent::SnapshotTaken { seq, bytes } => {
                    writeln!(out, " seq={seq} bytes={bytes}")
                }
                TraceEvent::SlowRequest { conn_id, opcode, latency_ns } => {
                    writeln!(out, " conn={conn_id} op={} latency_ns={latency_ns}", op_name(opcode))
                }
                TraceEvent::DegradedEntered { wal_seq } => {
                    writeln!(out, " wal_seq={wal_seq}")
                }
                TraceEvent::DegradedExited { snapshot_seq } => {
                    writeln!(out, " snapshot_seq={snapshot_seq}")
                }
            };
        }
        out.push_str("-- suspects (fresh-bits-per-insert EWMA, rank order) --\n");
        for (rank, s) in self.suspects.iter().enumerate() {
            let _ = writeln!(
                out,
                "#{} conn={} ewma={:.3} batches={} items={} fresh_bits={}",
                rank + 1,
                s.conn_id,
                s.ewma_bits_per_item,
                s.batches,
                s.items,
                s.fresh_bits,
            );
        }
        out.push_str("-- drift timeline (inserts, fresh_bits) --\n");
        for (inserts, fresh_bits) in &self.drift {
            let _ = writeln!(out, "({inserts}, {fresh_bits})");
        }
        out
    }
}

/// Human-readable command name for a wire opcode (used by the trace
/// exposition; unknown opcodes — from a newer server — render as `?`).
fn op_name(op: u8) -> &'static str {
    match op {
        OP_PING => "PING",
        OP_INSERT => "INSERT",
        OP_QUERY => "QUERY",
        OP_MINSERT => "MINSERT",
        OP_MQUERY => "MQUERY",
        OP_STATS => "STATS",
        OP_ROTATE => "ROTATE",
        OP_SNAPSHOT => "SNAPSHOT",
        OP_METRICS => "METRICS",
        OP_DELETE => "DELETE",
        OP_MDELETE => "MDELETE",
        OP_TRACE => "TRACE",
        _ => "?",
    }
}

/// Reserves the 4-byte length prefix; returns the frame's start offset.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(PROTOCOL_VERSION);
    start
}

/// Patches the length prefix reserved by [`begin_frame`]. A payload too
/// large for the `u32` prefix is an error — writing a wrapped length would
/// desynchronise the stream for every frame after it.
fn finish_frame(out: &mut [u8], start: usize) -> Result<(), WireError> {
    let len = wire_count("frame payload length", out.len() - start - 4)?;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Encodes a boolean list as its `u32` count plus a packed bitmap (answer
/// `i` in bit `i % 8` of byte `i / 8`) — the shared `MFOUND`/`MDELETED`
/// body layout.
fn put_bitmap(out: &mut Vec<u8>, answers: &[bool]) -> Result<(), WireError> {
    let count = wire_count("answer count", answers.len())?;
    out.extend_from_slice(&count.to_le_bytes());
    let mut byte = 0u8;
    for (i, &answer) in answers.iter().enumerate() {
        byte |= u8::from(answer) << (i % 8);
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !answers.len().is_multiple_of(8) {
        out.push(byte);
    }
    Ok(())
}

fn put_items(out: &mut Vec<u8>, items: &[&[u8]]) -> Result<(), WireError> {
    out.extend_from_slice(&wire_count("item count", items.len())?.to_le_bytes());
    for item in items {
        out.extend_from_slice(&wire_count("item length", item.len())?.to_le_bytes());
        out.extend_from_slice(item);
    }
    Ok(())
}

/// Converts a host-side count or length to its `u32` wire form, returning
/// [`WireError::TooLarge`] instead of silently truncating values above
/// `u32::MAX` (a truncated count desynchronises or corrupts the frame).
pub fn wire_count(what: &'static str, value: usize) -> Result<u32, WireError> {
    u32::try_from(value).map_err(|_| WireError::TooLarge { what, value: value as u64 })
}

/// Bounds-checked payload cursor; every accessor returns [`WireError`]
/// instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    opcode: u8,
}

impl<'a> Reader<'a> {
    fn new(payload: &'a [u8]) -> Result<Self, WireError> {
        if payload.len() < 2 {
            return Err(WireError::Truncated);
        }
        if payload[0] != PROTOCOL_VERSION {
            return Err(WireError::BadVersion(payload[0]));
        }
        Ok(Reader { buf: payload, pos: 2, opcode: payload[1] })
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean byte is neither 0 nor 1")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Decodes the count-plus-bitmap body shared by `MFOUND` and `MDELETED`.
    fn bitmap(&mut self) -> Result<Vec<bool>, WireError> {
        let count = self.u32()? as usize;
        let bitmap = self.bytes(count.div_ceil(8))?;
        Ok((0..count).map(|i| bitmap[i / 8] >> (i % 8) & 1 == 1).collect())
    }

    fn items(&mut self) -> Result<Vec<&'a [u8]>, WireError> {
        let count = self.u32()? as usize;
        // Every item costs at least its 4-byte length field, so a count the
        // remaining body cannot hold is rejected before allocating.
        if count > self.remaining() / 4 {
            return Err(WireError::Malformed("item count exceeds frame"));
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            let len = self.u32()? as usize;
            items.push(self.bytes(len)?);
        }
        Ok(items)
    }

    /// Asserts the payload was fully consumed (canonical encoding only).
    fn done(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed("trailing bytes after body"));
        }
        Ok(())
    }
}

/// If `acc[offset..]` starts with a complete frame, returns the payload's
/// absolute `(start, end)` within `acc`. `Ok(None)` means more bytes are
/// needed; an oversized length prefix is an error (the connection should
/// close rather than buffer without bound).
pub fn frame_bounds(
    acc: &[u8],
    offset: usize,
    max_frame_bytes: u32,
) -> Result<Option<(usize, usize)>, WireError> {
    let avail = &acc[offset..];
    if avail.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
    if len > max_frame_bytes {
        return Err(WireError::Oversized { len: u64::from(len), max: max_frame_bytes });
    }
    let len = len as usize;
    if avail.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((offset + 4, offset + 4 + len)))
}

/// Reads one complete frame payload from a blocking stream into `buf`
/// (overwritten). Returns `Ok(false)` on clean end-of-stream before any
/// byte; EOF inside a frame is an [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame<R: Read>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max_frame_bytes: u32,
) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > max_frame_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized { len: u64::from(len), max: max_frame_bytes }.to_string(),
        ));
    }
    buf.resize(len as usize, 0);
    reader.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_command(command: &Command<'_>) {
        let mut frame = Vec::new();
        command.encode(&mut frame).expect("encodes");
        let (start, end) =
            frame_bounds(&frame, 0, DEFAULT_MAX_FRAME_BYTES).expect("valid").expect("complete");
        assert_eq!(end, frame.len(), "frame is self-delimiting");
        assert_eq!(&Command::decode(&frame[start..end]).expect("decodes"), command);
    }

    fn roundtrip_response(response: &Response) {
        let mut frame = Vec::new();
        response.encode(&mut frame).expect("encodes");
        let (start, end) =
            frame_bounds(&frame, 0, DEFAULT_MAX_FRAME_BYTES).expect("valid").expect("complete");
        assert_eq!(&Response::decode(&frame[start..end]).expect("decodes"), response);
    }

    #[test]
    fn commands_roundtrip() {
        roundtrip_command(&Command::Ping);
        roundtrip_command(&Command::Insert(b"http://example.com/a"));
        roundtrip_command(&Command::Query(b""));
        roundtrip_command(&Command::InsertBatch(vec![b"a".as_slice(), b"", b"ccc"]));
        roundtrip_command(&Command::QueryBatch(vec![]));
        roundtrip_command(&Command::Stats);
        roundtrip_command(&Command::RotateBegin { shard: 7 });
        roundtrip_command(&Command::RotateComplete { shard: u32::MAX });
        roundtrip_command(&Command::Snapshot);
        roundtrip_command(&Command::Metrics);
        roundtrip_command(&Command::Delete(b"http://example.com/victim"));
        roundtrip_command(&Command::DeleteBatch(vec![b"a".as_slice(), b"", b"ccc"]));
        roundtrip_command(&Command::DeleteBatch(vec![]));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(&Response::Pong);
        roundtrip_response(&Response::Inserted { fresh_bits: 9 });
        roundtrip_response(&Response::Found(true));
        roundtrip_response(&Response::Found(false));
        roundtrip_response(&Response::BatchInserted { items: 3, fresh_bits: 21 });
        roundtrip_response(&Response::BatchFound(vec![]));
        roundtrip_response(&Response::BatchFound(vec![true; 8]));
        roundtrip_response(&Response::BatchFound(vec![true, false, true]));
        roundtrip_response(&Response::Rotated { generation: Some(4) });
        roundtrip_response(&Response::Rotated { generation: None });
        roundtrip_response(&Response::RotationCompleted(true));
        roundtrip_response(&Response::Snapshotted(SnapshotInfo {
            seq: 12,
            wal_seq: 40,
            shards: 8,
            bytes: 1 << 20,
        }));
        roundtrip_response(&Response::Deleted { was_present: true });
        roundtrip_response(&Response::Deleted { was_present: false });
        roundtrip_response(&Response::BatchDeleted(vec![]));
        roundtrip_response(&Response::BatchDeleted(vec![true, false, true, true]));
        roundtrip_response(&Response::Unsupported(
            "the bloom backend does not support delete".to_string(),
        ));
        roundtrip_response(&Response::Busy { retry_after_ms: 0 });
        roundtrip_response(&Response::Busy { retry_after_ms: 25_000 });
        roundtrip_response(&Response::Degraded(String::new()));
        roundtrip_response(&Response::Degraded(
            "store is in degraded read-only mode: injected fault at wal-fsync".to_string(),
        ));
        roundtrip_response(&Response::Error("shard 9 out of range".to_string()));
        roundtrip_response(&Response::Metrics(String::new()));
        roundtrip_response(&Response::Metrics(
            "# TYPE evilbloom_store_inserts_total counter\nevilbloom_store_inserts_total 4\n"
                .to_string(),
        ));
    }

    #[test]
    fn non_utf8_metrics_exposition_is_rejected() {
        let payload = [PROTOCOL_VERSION, OP_METRICS_REPLY, 0xFF, 0xFE];
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::Malformed("metrics exposition is not UTF-8"))
        );
    }

    fn sample_stats() -> StoreStats {
        let shard =
            |shard: usize, generation: u64, inserted: u64, weight: u64, fill: f64| ShardStats {
                shard,
                generation,
                rotating: generation > 0,
                m: 9586,
                k: 7,
                inserted,
                weight,
                fill,
                estimated_fpp: if generation > 0 { 0.005 } else { 0.28 },
                pollution_alarm: generation == 0,
            };
        StoreStats {
            backend: BackendKind::Counting,
            hardened: true,
            degraded: true,
            shards: vec![shard(0, 3, 1000, 4500, 0.4694), shard(1, 0, 1200, 8000, 0.8345)],
            total_inserted: 2200,
            mean_fill: 0.65195,
            max_estimated_fpp: 0.28,
            alarms: 1,
        }
    }

    #[test]
    fn stats_roundtrip() {
        roundtrip_response(&Response::Stats(sample_stats()));
        let empty = StoreStats { shards: vec![], alarms: 0, ..sample_stats() };
        roundtrip_response(&Response::Stats(empty));
    }

    /// Encodes `response` and strips the length prefix.
    fn payload_of(response: &Response) -> Vec<u8> {
        let mut frame = Vec::new();
        response.encode(&mut frame).expect("encodes");
        frame.split_off(4)
    }

    /// A version-1 frame's payload (length prefix stripped) from its hex.
    fn v1_payload(hex: &str) -> Vec<u8> {
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect();
        assert_eq!(bytes[4], 1, "fixture is a version-1 frame");
        bytes[4..].to_vec()
    }

    // Version-1 frames of the fixed replies below, recorded from the
    // encoder that still carried them in per-reply wire structs.
    const V1_SNAPSHOTTED: &str =
        "1e00000001880c000000000000002800000000000000080000000000100000000000";
    const V1_MINSERTED: &str = "0e0000000184030000001500000000000000";
    const V1_TRACE: &str = "\
        41010000018c28000000000000000100000000000000080000000000000003000000200000000000\
        00000500000000000000010500000000000000000000000000000000000000000000000000000000\
        00000000000000000000002100000000000000060000000000000003050000000000000004000000\
        000000006400000000000000b50200000000000010a400000000000024000000000000000c000000\
        00000000090300000000000000060000000000000009000000000000000000000000000000000000\
        0000000000020000000500000000000000b81e85eb51b81b40060000000000000058020000000000\
        004010000000000000020000000000000066666666666600400500000000000000f4010000000000\
        004c04000000000000020000006400000000000000b502000000000000c8000000000000000a0500\
        0000000000";
    const V1_STATS: &str = "\
        a100000001860198080000000000000612143fc6dce43fec51b81e85ebd13f010000000200000003\
        0000000000000001722500000000000007000000e80300000000000094110000000000007b832f4c\
        a60ade3f7b14ae47e17a743f00000000000000000000722500000000000007000000b00400000000\
        0000401f0000000000004e62105839b4ea3fec51b81e85ebd13f010300000000000000201c000000\
        0000000101";

    /// Field-by-field check of the version-2 encoders against the version-1
    /// ones: `SNAPSHOTTED`, `MINSERTED` and `TRACE` differ only in the
    /// version byte; `STATS` also lost its top-level generation and uptime
    /// words, which sat between the shard records and the backend byte.
    #[test]
    fn reply_bytes_match_the_version_1_fixtures() {
        let snapshot = SnapshotInfo { seq: 12, wal_seq: 40, shards: 8, bytes: 1 << 20 };
        let minserted = Response::BatchInserted { items: 3, fresh_bits: 21 };
        let fixtures = [
            (V1_SNAPSHOTTED, Response::Snapshotted(snapshot)),
            (V1_MINSERTED, minserted),
            (V1_TRACE, Response::Trace(fixture_trace())),
        ];
        for (hex, response) in fixtures {
            let mut expected = v1_payload(hex);
            expected[0] = PROTOCOL_VERSION;
            assert_eq!(payload_of(&response), expected, "{}", response.name());
        }
        let mut expected = v1_payload(V1_STATS);
        expected[0] = PROTOCOL_VERSION;
        let tail = expected.len() - 2;
        expected.drain(tail - 16..tail);
        assert_eq!(payload_of(&Response::Stats(sample_stats())), expected);
    }

    /// The `STATS` payload cut off before its backend byte and degraded
    /// flag, i.e. right after the shard records.
    fn stats_after_shards() -> Vec<u8> {
        let stats = payload_of(&Response::Stats(sample_stats()));
        stats[..stats.len() - 2].to_vec()
    }

    /// The generation and uptime words version 1 wrote after the shards.
    fn v1_generation_uptime() -> Vec<u8> {
        [2u64, 60].iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// A sample `TRACE` payload and the byte lengths of its suspect table
    /// (with the drift timeline after it) and of its drift timeline.
    fn trace_and_tails() -> (Vec<u8>, usize, usize) {
        let trace = sample_trace();
        let bytes = payload_of(&Response::Trace(trace.clone()));
        let drift_tail = 4 + trace.drift.len() * TRACE_DRIFT_BYTES;
        let suspect_tail = 4 + trace.suspects.len() * TRACE_SUSPECT_BYTES + drift_tail;
        (bytes, suspect_tail, drift_tail)
    }

    // The five tests below pin short layouts the version-1 decoder once
    // tolerated from older servers: each is now an error.

    #[test]
    fn stats_from_old_servers_decode_with_zero_tail_fields() {
        assert_eq!(Response::decode(&stats_after_shards()), Err(WireError::Truncated));
    }

    #[test]
    fn stats_without_the_backend_byte_decode_as_bloom() {
        let payload = [stats_after_shards(), v1_generation_uptime()].concat();
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::Malformed("trailing bytes after body"))
        );
    }

    #[test]
    fn stats_without_the_degraded_flag_decode_as_healthy() {
        let backend = vec![BackendKind::Counting.code()];
        let payload = [stats_after_shards(), v1_generation_uptime(), backend].concat();
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::Malformed("trailing bytes after body"))
        );
    }

    #[test]
    fn trace_without_the_suspect_tail_decodes_with_empty_tables() {
        let (bytes, suspect_tail, _) = trace_and_tails();
        let payload = &bytes[..bytes.len() - suspect_tail];
        assert_eq!(Response::decode(payload), Err(WireError::Truncated));
    }

    #[test]
    fn trace_without_the_drift_tail_decodes_with_an_empty_timeline() {
        let (bytes, _, drift_tail) = trace_and_tails();
        let payload = &bytes[..bytes.len() - drift_tail];
        assert_eq!(Response::decode(payload), Err(WireError::Truncated));
    }

    #[test]
    fn version_1_frames_are_refused() {
        assert_eq!(Response::decode(&v1_payload(V1_STATS)), Err(WireError::BadVersion(1)));
    }

    #[test]
    fn unknown_backend_codes_in_stats_are_rejected() {
        let mut frame = Vec::new();
        Response::Stats(sample_stats()).encode(&mut frame).expect("encodes");
        // The backend byte sits just before the trailing degraded flag.
        let backend_at = frame.len() - 2;
        frame[backend_at] = 0x7F;
        assert_eq!(
            Response::decode(&frame[4..]),
            Err(WireError::Malformed("unknown backend code in stats"))
        );
    }

    fn sample_trace() -> WireTrace {
        WireTrace {
            recorded: 40,
            dropped: 1,
            overwritten: 8,
            events: vec![
                RecordedEvent { seq: 32, ts_ms: 5, event: TraceEvent::ConnOpened { conn_id: 5 } },
                RecordedEvent {
                    seq: 33,
                    ts_ms: 6,
                    event: TraceEvent::BatchExecuted {
                        conn_id: 5,
                        opcode: 0x04,
                        items: 100,
                        fresh_bits: 693,
                        latency_ns: 42_000,
                    },
                },
                RecordedEvent { seq: 34, ts_ms: 9, event: TraceEvent::AlarmTripped { shard: 2 } },
                RecordedEvent {
                    seq: 35,
                    ts_ms: 11,
                    event: TraceEvent::RotationBegun { shard: 2, generation: 1 },
                },
                RecordedEvent {
                    seq: 36,
                    ts_ms: 12,
                    event: TraceEvent::SlowRequest { conn_id: 3, opcode: 0x06, latency_ns: 9 },
                },
            ],
            suspects: vec![
                ConnDrift {
                    conn_id: 5,
                    ewma_bits_per_item: 6.93,
                    batches: 6,
                    items: 600,
                    fresh_bits: 4160,
                },
                ConnDrift {
                    conn_id: 2,
                    ewma_bits_per_item: 2.05,
                    batches: 5,
                    items: 500,
                    fresh_bits: 1100,
                },
            ],
            drift: vec![(100, 693), (200, 1290)],
        }
    }

    /// [`sample_trace`] without the alarm and rotation events: the `TRACE`
    /// reply of the version-1 fixture.
    fn fixture_trace() -> WireTrace {
        let mut trace = sample_trace();
        trace.events.retain(|e| matches!(e.seq, 32 | 33 | 36));
        trace
    }

    #[test]
    fn trace_roundtrips() {
        roundtrip_response(&Response::Trace(sample_trace()));
        roundtrip_response(&Response::Trace(WireTrace {
            recorded: 0,
            dropped: 0,
            overwritten: 0,
            events: vec![],
            suspects: vec![],
            drift: vec![],
        }));
        roundtrip_command(&Command::Trace);
    }

    #[test]
    fn unknown_trace_event_kinds_are_rejected() {
        let trace = WireTrace {
            recorded: 1,
            dropped: 0,
            overwritten: 0,
            events: vec![RecordedEvent {
                seq: 0,
                ts_ms: 0,
                event: TraceEvent::ConnOpened { conn_id: 1 },
            }],
            suspects: vec![],
            drift: vec![],
        };
        let mut frame = Vec::new();
        Response::Trace(trace).encode(&mut frame).expect("encodes");
        // The kind byte sits after the length prefix (4), version + opcode
        // (2), three u64 counters (24), the event count (4) and the event's
        // seq + ts (16).
        frame[4 + 2 + 24 + 4 + 16] = 0xFE;
        assert_eq!(
            Response::decode(&frame[4..]),
            Err(WireError::Malformed("unknown trace event kind"))
        );
    }

    #[test]
    fn hostile_trace_counts_are_rejected_before_allocation() {
        // An event count the body cannot hold.
        let mut payload = vec![PROTOCOL_VERSION, OP_TRACE_REPLY];
        payload.extend_from_slice(&[0u8; 24]); // recorded/dropped/overwritten
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0; 16]);
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::Malformed("event count exceeds frame"))
        );
        // A suspect count the tail cannot hold.
        let mut payload = vec![PROTOCOL_VERSION, OP_TRACE_REPLY];
        payload.extend_from_slice(&[0u8; 24]);
        payload.extend_from_slice(&0u32.to_le_bytes()); // no events
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0; 8]);
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::Malformed("suspect count exceeds frame"))
        );
    }

    #[test]
    fn trace_render_is_deterministic_and_names_the_suspect() {
        let rendered = sample_trace().render();
        assert_eq!(rendered, sample_trace().render());
        assert!(rendered.contains("recorded=40 dropped=1 overwritten=8 retained=5"), "{rendered}");
        assert!(rendered.contains("#1 conn=5 ewma=6.930"), "{rendered}");
        assert!(rendered.contains("op=MINSERT"), "{rendered}");
        assert!(rendered.contains("alarm"), "{rendered}");
        assert!(rendered.contains("rotate-begin"), "{rendered}");
        assert!(rendered.contains("(200, 1290)"), "{rendered}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut frame = Vec::new();
        Command::Ping.encode(&mut frame).expect("encodes");
        frame[4] = 99;
        assert_eq!(Command::decode(&frame[4..]), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn unknown_opcodes_are_rejected_per_direction() {
        // A command opcode is not a valid response and vice versa.
        let payload = [PROTOCOL_VERSION, OP_PING];
        assert_eq!(Response::decode(&payload), Err(WireError::BadOpcode(OP_PING)));
        let payload = [PROTOCOL_VERSION, OP_PONG];
        assert_eq!(Command::decode(&payload), Err(WireError::BadOpcode(OP_PONG)));
    }

    #[test]
    fn hostile_item_count_is_rejected_before_allocation() {
        // MINSERT claiming u32::MAX items in a 10-byte body.
        let mut payload = vec![PROTOCOL_VERSION, OP_MINSERT];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0; 10]);
        assert_eq!(
            Command::decode(&payload),
            Err(WireError::Malformed("item count exceeds frame"))
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut acc = Vec::new();
        acc.extend_from_slice(&(1024u32).to_le_bytes());
        assert_eq!(frame_bounds(&acc, 0, 512), Err(WireError::Oversized { len: 1024, max: 512 }));
    }

    #[test]
    fn oversized_error_carries_true_u64_lengths() {
        // Regression: lengths past `u32::MAX` used to be clamped before
        // reaching the error, so "how far over the cap" was unknowable.
        let err = WireError::Oversized { len: u64::from(u32::MAX) + 123, max: 1024 };
        let shown = err.to_string();
        assert!(shown.contains("4294967418"), "{shown}");
    }

    #[test]
    fn wire_count_errors_exactly_past_the_u32_boundary() {
        // The encode-side guard behind the `as u32` bugfix sweep: values up
        // to u32::MAX pass through unchanged, one past errors with the true
        // value instead of silently truncating to 0.
        assert_eq!(wire_count("count", 0), Ok(0));
        assert_eq!(wire_count("count", u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            wire_count("count", u32::MAX as usize + 1),
            Err(WireError::TooLarge { what: "count", value: u64::from(u32::MAX) + 1 })
        );
    }

    #[test]
    fn from_stats_rejects_alarm_counts_past_u32() {
        // A STATS reply built from store stats whose alarm count exceeds
        // the u32 wire field must fail to encode, not truncate, and leave
        // the output buffer as it was. (Reaching it for real needs more
        // than u32::MAX shards; the host-side struct gets us to the
        // boundary without them.)
        let stats =
            StoreStats { shards: Vec::new(), alarms: u32::MAX as usize + 1, ..sample_stats() };
        let mut out = vec![0xAB];
        assert_eq!(
            Response::Stats(stats.clone()).encode(&mut out),
            Err(WireError::TooLarge { what: "alarm count", value: u64::from(u32::MAX) + 1 })
        );
        assert_eq!(out, [0xAB]);
        roundtrip_response(&Response::Stats(StoreStats { alarms: u32::MAX as usize, ..stats }));
    }

    #[test]
    fn encoded_frames_stay_self_delimiting_back_to_back() {
        // The frame boundary contract the fallible encoders preserve: two
        // frames written into one buffer parse back independently.
        let mut out = Vec::new();
        Response::Pong.encode(&mut out).expect("encodes");
        let first_len = out.len();
        Response::Found(true).encode(&mut out).expect("encodes");
        let (s1, e1) = frame_bounds(&out, 0, 1024).expect("valid").expect("complete");
        assert_eq!(Response::decode(&out[s1..e1]), Ok(Response::Pong));
        assert_eq!(e1, first_len);
        let (s2, e2) = frame_bounds(&out, e1, 1024).expect("valid").expect("complete");
        assert_eq!(Response::decode(&out[s2..e2]), Ok(Response::Found(true)));
        assert_eq!(e2, out.len());
    }

    #[test]
    fn partial_frames_ask_for_more_bytes() {
        let mut frame = Vec::new();
        Command::Insert(b"abcdef").encode(&mut frame).expect("encodes");
        for cut in 0..frame.len() {
            assert_eq!(frame_bounds(&frame[..cut], 0, 1024), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let payload = [PROTOCOL_VERSION, OP_PING, 0xFF];
        assert_eq!(
            Command::decode(&payload),
            Err(WireError::Malformed("trailing bytes after body"))
        );
    }

    #[test]
    fn read_frame_reports_clean_and_dirty_eof() {
        let mut frame = Vec::new();
        Command::Ping.encode(&mut frame).expect("encodes");

        let mut buf = Vec::new();
        let mut empty: &[u8] = &[];
        assert!(!read_frame(&mut empty, &mut buf, 1024).expect("clean EOF"));

        let mut cut: &[u8] = &frame[..2];
        let err = read_frame(&mut cut, &mut buf, 1024).expect_err("EOF in prefix");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut cut: &[u8] = &frame[..5];
        let err = read_frame(&mut cut, &mut buf, 1024).expect_err("EOF in payload");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut whole: &[u8] = &frame;
        assert!(read_frame(&mut whole, &mut buf, 1024).expect("complete"));
        assert_eq!(Command::decode(&buf), Ok(Command::Ping));
    }
}
