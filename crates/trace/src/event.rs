//! The typed events a flight recorder retains.
//!
//! Every variant flattens to a `(kind, [u64; 5])` raw form so one event fits
//! a fixed set of atomic ring-buffer slots and a fixed-width wire record.
//! The mapping is total in both directions for well-formed input; unknown
//! kinds decode to `None`, which the wire layer surfaces as a malformed
//! frame rather than a panic.

/// Payload words in an event's raw form (and in its wire record).
pub const EVENT_PAYLOAD_WORDS: usize = 5;

/// One forensic event, as recorded by the server or the store.
///
/// `conn_id`s are allocated per accepted connection, starting at 1, by
/// the reactor shard that serves the socket; 0 means "no connection" and is
/// never allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A client connection was accepted.
    ConnOpened {
        /// The accepted connection's id.
        conn_id: u64,
    },
    /// A client connection was closed (either side).
    ConnClosed {
        /// The closed connection's id.
        conn_id: u64,
    },
    /// An item-bearing command (insert/query/delete, single or batch)
    /// finished executing.
    BatchExecuted {
        /// Connection the batch arrived on.
        conn_id: u64,
        /// Wire opcode of the command.
        opcode: u8,
        /// Items in the batch (1 for the single-item opcodes).
        items: u64,
        /// Fresh filter bits the batch set (0 for queries and deletes).
        fresh_bits: u64,
        /// Store execution latency.
        latency_ns: u64,
    },
    /// A shard's pollution alarm went from clear to raised.
    AlarmTripped {
        /// The alarming shard.
        shard: u64,
    },
    /// A key rotation started draining a shard.
    RotationBegun {
        /// The rotating shard.
        shard: u64,
        /// The fresh generation id now accepting writes.
        generation: u64,
    },
    /// A shard's draining rotation completed.
    RotationCompleted {
        /// The rotated shard.
        shard: u64,
    },
    /// A WAL group-commit fsync exceeded the stall threshold.
    WalFsyncStall {
        /// How long the fsync took.
        latency_ns: u64,
    },
    /// A durable snapshot was written.
    SnapshotTaken {
        /// WAL sequence number the snapshot covers.
        seq: u64,
        /// Snapshot size on disk.
        bytes: u64,
    },
    /// A request exceeded the server's slow-request latency threshold.
    SlowRequest {
        /// Connection the request arrived on.
        conn_id: u64,
        /// Wire opcode of the slow command.
        opcode: u8,
        /// How long executing it took.
        latency_ns: u64,
    },
    /// The store entered degraded read-only mode: a WAL write failed, so
    /// writes are refused until a snapshot repairs the log.
    DegradedEntered {
        /// WAL segment sequence that broke.
        wal_seq: u64,
    },
    /// The store exited degraded mode: a snapshot captured the applied
    /// state and the WAL switched to a fresh segment.
    DegradedExited {
        /// Sequence of the snapshot that repaired the log.
        snapshot_seq: u64,
    },
}

const KIND_CONN_OPENED: u8 = 1;
const KIND_CONN_CLOSED: u8 = 2;
const KIND_BATCH_EXECUTED: u8 = 3;
const KIND_ALARM_TRIPPED: u8 = 4;
const KIND_ROTATION_BEGUN: u8 = 5;
const KIND_ROTATION_COMPLETED: u8 = 6;
const KIND_WAL_FSYNC_STALL: u8 = 7;
const KIND_SNAPSHOT_TAKEN: u8 = 8;
const KIND_SLOW_REQUEST: u8 = 9;
const KIND_DEGRADED_ENTERED: u8 = 10;
const KIND_DEGRADED_EXITED: u8 = 11;

impl TraceEvent {
    /// Flattens the event to its raw `(kind, payload)` form.
    pub fn to_raw(self) -> (u8, [u64; EVENT_PAYLOAD_WORDS]) {
        match self {
            TraceEvent::ConnOpened { conn_id } => (KIND_CONN_OPENED, [conn_id, 0, 0, 0, 0]),
            TraceEvent::ConnClosed { conn_id } => (KIND_CONN_CLOSED, [conn_id, 0, 0, 0, 0]),
            TraceEvent::BatchExecuted { conn_id, opcode, items, fresh_bits, latency_ns } => {
                (KIND_BATCH_EXECUTED, [conn_id, u64::from(opcode), items, fresh_bits, latency_ns])
            }
            TraceEvent::AlarmTripped { shard } => (KIND_ALARM_TRIPPED, [shard, 0, 0, 0, 0]),
            TraceEvent::RotationBegun { shard, generation } => {
                (KIND_ROTATION_BEGUN, [shard, generation, 0, 0, 0])
            }
            TraceEvent::RotationCompleted { shard } => {
                (KIND_ROTATION_COMPLETED, [shard, 0, 0, 0, 0])
            }
            TraceEvent::WalFsyncStall { latency_ns } => {
                (KIND_WAL_FSYNC_STALL, [latency_ns, 0, 0, 0, 0])
            }
            TraceEvent::SnapshotTaken { seq, bytes } => {
                (KIND_SNAPSHOT_TAKEN, [seq, bytes, 0, 0, 0])
            }
            TraceEvent::SlowRequest { conn_id, opcode, latency_ns } => {
                (KIND_SLOW_REQUEST, [conn_id, u64::from(opcode), latency_ns, 0, 0])
            }
            TraceEvent::DegradedEntered { wal_seq } => {
                (KIND_DEGRADED_ENTERED, [wal_seq, 0, 0, 0, 0])
            }
            TraceEvent::DegradedExited { snapshot_seq } => {
                (KIND_DEGRADED_EXITED, [snapshot_seq, 0, 0, 0, 0])
            }
        }
    }

    /// Rebuilds an event from its raw form; `None` for unknown kinds or
    /// payload words outside a field's range (a hostile wire frame, or a
    /// torn ring slot that slipped past the seqlock check).
    pub fn from_raw(kind: u8, payload: [u64; EVENT_PAYLOAD_WORDS]) -> Option<TraceEvent> {
        let [a, b, c, d, e] = payload;
        Some(match kind {
            KIND_CONN_OPENED => TraceEvent::ConnOpened { conn_id: a },
            KIND_CONN_CLOSED => TraceEvent::ConnClosed { conn_id: a },
            KIND_BATCH_EXECUTED => TraceEvent::BatchExecuted {
                conn_id: a,
                opcode: u8::try_from(b).ok()?,
                items: c,
                fresh_bits: d,
                latency_ns: e,
            },
            KIND_ALARM_TRIPPED => TraceEvent::AlarmTripped { shard: a },
            KIND_ROTATION_BEGUN => TraceEvent::RotationBegun { shard: a, generation: b },
            KIND_ROTATION_COMPLETED => TraceEvent::RotationCompleted { shard: a },
            KIND_WAL_FSYNC_STALL => TraceEvent::WalFsyncStall { latency_ns: a },
            KIND_SNAPSHOT_TAKEN => TraceEvent::SnapshotTaken { seq: a, bytes: b },
            KIND_SLOW_REQUEST => {
                TraceEvent::SlowRequest { conn_id: a, opcode: u8::try_from(b).ok()?, latency_ns: c }
            }
            KIND_DEGRADED_ENTERED => TraceEvent::DegradedEntered { wal_seq: a },
            KIND_DEGRADED_EXITED => TraceEvent::DegradedExited { snapshot_seq: a },
            _ => return None,
        })
    }

    /// Short lowercase tag for text expositions (`"batch"`, `"alarm"`, …).
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::ConnOpened { .. } => "conn-open",
            TraceEvent::ConnClosed { .. } => "conn-close",
            TraceEvent::BatchExecuted { .. } => "batch",
            TraceEvent::AlarmTripped { .. } => "alarm",
            TraceEvent::RotationBegun { .. } => "rotate-begin",
            TraceEvent::RotationCompleted { .. } => "rotate-complete",
            TraceEvent::WalFsyncStall { .. } => "fsync-stall",
            TraceEvent::SnapshotTaken { .. } => "snapshot",
            TraceEvent::SlowRequest { .. } => "slow-request",
            TraceEvent::DegradedEntered { .. } => "degraded-enter",
            TraceEvent::DegradedExited { .. } => "degraded-exit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ConnOpened { conn_id: 7 },
            TraceEvent::ConnClosed { conn_id: u64::MAX },
            TraceEvent::BatchExecuted {
                conn_id: 3,
                opcode: 0x05,
                items: 100,
                fresh_bits: 693,
                latency_ns: 12_345,
            },
            TraceEvent::AlarmTripped { shard: 2 },
            TraceEvent::RotationBegun { shard: 1, generation: 4 },
            TraceEvent::RotationCompleted { shard: 1 },
            TraceEvent::WalFsyncStall { latency_ns: 25_000_000 },
            TraceEvent::SnapshotTaken { seq: 900, bytes: 65_536 },
            TraceEvent::SlowRequest { conn_id: 5, opcode: 0x07, latency_ns: 200_000_000 },
            TraceEvent::DegradedEntered { wal_seq: 12 },
            TraceEvent::DegradedExited { snapshot_seq: 13 },
        ]
    }

    #[test]
    fn raw_roundtrip_is_identity_for_every_variant() {
        for event in all_variants() {
            let (kind, payload) = event.to_raw();
            assert_eq!(TraceEvent::from_raw(kind, payload), Some(event));
        }
    }

    #[test]
    fn unknown_kinds_decode_to_none() {
        assert_eq!(TraceEvent::from_raw(0, [0; 5]), None);
        assert_eq!(TraceEvent::from_raw(12, [1, 2, 3, 4, 5]), None);
        assert_eq!(TraceEvent::from_raw(0xFF, [0; 5]), None);
    }

    #[test]
    fn out_of_range_opcode_words_decode_to_none() {
        // A hostile frame can claim an opcode above u8::MAX in the payload
        // word; decoding must reject it instead of truncating.
        assert_eq!(TraceEvent::from_raw(3, [1, 256, 0, 0, 0]), None);
        assert_eq!(TraceEvent::from_raw(9, [1, u64::MAX, 0, 0, 0]), None);
    }

    #[test]
    fn tags_are_distinct() {
        let tags: std::collections::BTreeSet<&str> =
            all_variants().iter().map(TraceEvent::tag).collect();
        assert_eq!(tags.len(), all_variants().len());
    }
}
