//! Seeded property tests for the wire protocol: encode→decode identity over
//! randomly generated command/response variants, and rejection — never a
//! panic — of truncated and corrupted frames.

use evilbloom_server::wire::{frame_bounds, DEFAULT_MAX_FRAME_BYTES};
use evilbloom_server::{
    Command, ConnDrift, RecordedEvent, Response, ShardStats, SnapshotInfo, StoreStats, TraceEvent,
    WireTrace,
};
use evilbloom_store::BackendKind;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Random byte strings, biased toward URL-ish lengths but including empty.
fn random_item(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0usize..64);
    (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect()
}

fn random_items(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let count = rng.gen_range(0usize..20);
    (0..count).map(|_| random_item(rng)).collect()
}

/// Draws one command over owned storage (the borrowed `Command` views into
/// it).
enum OwnedCommand {
    Ping,
    Insert(Vec<u8>),
    Query(Vec<u8>),
    InsertBatch(Vec<Vec<u8>>),
    QueryBatch(Vec<Vec<u8>>),
    Delete(Vec<u8>),
    DeleteBatch(Vec<Vec<u8>>),
    Stats,
    RotateBegin(u32),
    RotateComplete(u32),
    Snapshot,
    Metrics,
    Trace,
}

impl OwnedCommand {
    fn random(rng: &mut StdRng) -> Self {
        match rng.gen_range(0u32..13) {
            0 => OwnedCommand::Ping,
            1 => OwnedCommand::Insert(random_item(rng)),
            2 => OwnedCommand::Query(random_item(rng)),
            3 => OwnedCommand::InsertBatch(random_items(rng)),
            4 => OwnedCommand::QueryBatch(random_items(rng)),
            5 => OwnedCommand::Stats,
            6 => OwnedCommand::RotateBegin(rng.gen_range(0u64..1 << 32) as u32),
            7 => OwnedCommand::Snapshot,
            8 => OwnedCommand::Metrics,
            9 => OwnedCommand::Delete(random_item(rng)),
            10 => OwnedCommand::DeleteBatch(random_items(rng)),
            11 => OwnedCommand::Trace,
            _ => OwnedCommand::RotateComplete(rng.gen_range(0u64..1 << 32) as u32),
        }
    }

    fn borrow(&self) -> Command<'_> {
        match self {
            OwnedCommand::Ping => Command::Ping,
            OwnedCommand::Insert(item) => Command::Insert(item),
            OwnedCommand::Query(item) => Command::Query(item),
            OwnedCommand::InsertBatch(items) => {
                Command::InsertBatch(items.iter().map(Vec::as_slice).collect())
            }
            OwnedCommand::QueryBatch(items) => {
                Command::QueryBatch(items.iter().map(Vec::as_slice).collect())
            }
            OwnedCommand::Delete(item) => Command::Delete(item),
            OwnedCommand::DeleteBatch(items) => {
                Command::DeleteBatch(items.iter().map(Vec::as_slice).collect())
            }
            OwnedCommand::Stats => Command::Stats,
            OwnedCommand::RotateBegin(shard) => Command::RotateBegin { shard: *shard },
            OwnedCommand::RotateComplete(shard) => Command::RotateComplete { shard: *shard },
            OwnedCommand::Snapshot => Command::Snapshot,
            OwnedCommand::Metrics => Command::Metrics,
            OwnedCommand::Trace => Command::Trace,
        }
    }
}

/// A random shard record at position `shard` (the wire carries the index
/// as the record's position, so only that value round-trips).
fn random_shard_stats(rng: &mut StdRng, shard: usize) -> ShardStats {
    ShardStats {
        shard,
        generation: rng.next_u64(),
        rotating: rng.gen_range(0u32..2) == 1,
        m: rng.next_u64(),
        k: rng.gen_range(0u64..1 << 32) as u32,
        inserted: rng.next_u64(),
        weight: rng.next_u64(),
        fill: rng.gen_range(0.0f64..1.0),
        estimated_fpp: rng.gen_range(0.0f64..1.0),
        pollution_alarm: rng.gen_range(0u32..2) == 1,
    }
}

fn random_backend(rng: &mut StdRng) -> BackendKind {
    match rng.gen_range(0u32..3) {
        0 => BackendKind::Bloom,
        1 => BackendKind::Counting,
        _ => BackendKind::Scalable,
    }
}

fn random_trace_event(rng: &mut StdRng) -> TraceEvent {
    match rng.gen_range(0u32..9) {
        0 => TraceEvent::ConnOpened { conn_id: rng.next_u64() },
        1 => TraceEvent::ConnClosed { conn_id: rng.next_u64() },
        2 => TraceEvent::BatchExecuted {
            conn_id: rng.next_u64(),
            opcode: rng.gen_range(0u64..256) as u8,
            items: rng.next_u64(),
            fresh_bits: rng.next_u64(),
            latency_ns: rng.next_u64(),
        },
        3 => TraceEvent::AlarmTripped { shard: rng.next_u64() },
        4 => TraceEvent::RotationBegun { shard: rng.next_u64(), generation: rng.next_u64() },
        5 => TraceEvent::RotationCompleted { shard: rng.next_u64() },
        6 => TraceEvent::WalFsyncStall { latency_ns: rng.next_u64() },
        7 => TraceEvent::SnapshotTaken { seq: rng.next_u64(), bytes: rng.next_u64() },
        _ => TraceEvent::SlowRequest {
            conn_id: rng.next_u64(),
            opcode: rng.gen_range(0u64..256) as u8,
            latency_ns: rng.next_u64(),
        },
    }
}

fn random_trace(rng: &mut StdRng) -> WireTrace {
    let events = rng.gen_range(0usize..12);
    let suspects = rng.gen_range(0usize..6);
    let drift = rng.gen_range(0usize..10);
    WireTrace {
        recorded: rng.next_u64(),
        dropped: rng.next_u64(),
        overwritten: rng.next_u64(),
        events: (0..events)
            .map(|_| RecordedEvent {
                seq: rng.next_u64(),
                ts_ms: rng.next_u64(),
                event: random_trace_event(rng),
            })
            .collect(),
        suspects: (0..suspects)
            .map(|_| ConnDrift {
                conn_id: rng.next_u64(),
                ewma_bits_per_item: rng.gen_range(0.0f64..16.0),
                batches: rng.next_u64(),
                items: rng.next_u64(),
                fresh_bits: rng.next_u64(),
            })
            .collect(),
        drift: (0..drift).map(|_| (rng.next_u64(), rng.next_u64())).collect(),
    }
}

fn random_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0u32..17) {
        0 => Response::Pong,
        1 => Response::Inserted { fresh_bits: rng.gen_range(0u64..1 << 32) as u32 },
        2 => Response::Found(rng.gen_range(0u32..2) == 1),
        3 => Response::BatchInserted {
            items: rng.gen_range(0u64..1 << 32) as u32,
            fresh_bits: rng.next_u64(),
        },
        4 => {
            let count = rng.gen_range(0usize..40);
            Response::BatchFound((0..count).map(|_| rng.gen_range(0u32..2) == 1).collect())
        }
        5 => {
            let shards = rng.gen_range(0usize..9);
            Response::Stats(StoreStats {
                hardened: rng.gen_range(0u32..2) == 1,
                total_inserted: rng.next_u64(),
                mean_fill: rng.gen_range(0.0f64..1.0),
                max_estimated_fpp: rng.gen_range(0.0f64..1.0),
                alarms: rng.gen_range(0u64..1 << 32) as usize,
                backend: random_backend(rng),
                degraded: rng.gen_range(0u32..2) == 1,
                shards: (0..shards).map(|shard| random_shard_stats(rng, shard)).collect(),
            })
        }
        6 => {
            Response::Rotated { generation: (rng.gen_range(0u32..2) == 1).then(|| rng.next_u64()) }
        }
        7 => Response::RotationCompleted(rng.gen_range(0u32..2) == 1),
        8 => Response::Snapshotted(SnapshotInfo {
            seq: rng.next_u64(),
            wal_seq: rng.next_u64(),
            shards: rng.gen_range(0u64..1 << 32) as u32,
            bytes: rng.next_u64(),
        }),
        9 => {
            let len = rng.gen_range(0usize..160);
            let text: String = (0..len).map(|_| rng.gen_range(b' '..b'~') as char).collect();
            Response::Metrics(text)
        }
        10 => Response::Deleted { was_present: rng.gen_range(0u32..2) == 1 },
        11 => {
            let count = rng.gen_range(0usize..40);
            Response::BatchDeleted((0..count).map(|_| rng.gen_range(0u32..2) == 1).collect())
        }
        12 => {
            let len = rng.gen_range(0usize..48);
            let message: String = (0..len).map(|_| rng.gen_range(b' '..b'~') as char).collect();
            Response::Unsupported(message)
        }
        13 => Response::Trace(random_trace(rng)),
        14 => Response::Busy { retry_after_ms: rng.gen_range(0u64..1 << 32) as u32 },
        15 => {
            let len = rng.gen_range(0usize..48);
            let reason: String = (0..len).map(|_| rng.gen_range(b' '..b'~') as char).collect();
            Response::Degraded(reason)
        }
        _ => {
            let len = rng.gen_range(0usize..48);
            let message: String = (0..len).map(|_| rng.gen_range(b' '..b'~') as char).collect();
            Response::Error(message)
        }
    }
}

fn payload(frame: &[u8]) -> &[u8] {
    let (start, end) = frame_bounds(frame, 0, DEFAULT_MAX_FRAME_BYTES)
        .expect("own encodings stay under the cap")
        .expect("own encodings are complete frames");
    assert_eq!(end, frame.len(), "encoder emitted trailing garbage");
    &frame[start..end]
}

#[test]
fn commands_encode_decode_identity() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for round in 0..2_000 {
        let owned = OwnedCommand::random(&mut rng);
        let command = owned.borrow();
        let mut frame = Vec::new();
        command.encode(&mut frame).expect("encodes");
        let decoded = Command::decode(payload(&frame))
            .unwrap_or_else(|e| panic!("round {round}: own encoding rejected: {e}"));
        assert_eq!(decoded, command, "round {round}");
    }
}

#[test]
fn responses_encode_decode_identity() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for round in 0..2_000 {
        let response = random_response(&mut rng);
        let mut frame = Vec::new();
        response.encode(&mut frame).expect("encodes");
        let decoded = Response::decode(payload(&frame))
            .unwrap_or_else(|e| panic!("round {round}: own encoding rejected: {e}"));
        assert_eq!(decoded, response, "round {round}");
    }
}

/// Truncating a payload must never panic. When the truncation still decodes
/// (`INSERT`/`QUERY` carry free-form tails, so a shorter tail is a valid
/// shorter command), the result must be self-consistent: re-encoding it
/// reproduces the truncated frame exactly.
#[test]
fn truncated_command_frames_are_rejected_or_self_consistent() {
    let mut rng = StdRng::seed_from_u64(0x7421);
    for _ in 0..300 {
        let owned = OwnedCommand::random(&mut rng);
        let mut frame = Vec::new();
        owned.borrow().encode(&mut frame).expect("encodes");
        let body = payload(&frame).to_vec();
        for cut in 0..body.len() {
            match Command::decode(&body[..cut]) {
                Err(_) => {}
                Ok(reinterpreted) => {
                    let mut reencoded = Vec::new();
                    reinterpreted.encode(&mut reencoded).expect("encodes");
                    assert_eq!(
                        payload(&reencoded),
                        &body[..cut],
                        "truncation at {cut} decoded to something it does not re-encode to"
                    );
                }
            }
        }
    }
}

#[test]
fn truncated_response_frames_are_rejected_or_self_consistent() {
    let mut rng = StdRng::seed_from_u64(0x7422);
    for _ in 0..300 {
        let response = random_response(&mut rng);
        let mut frame = Vec::new();
        response.encode(&mut frame).expect("encodes");
        let body = payload(&frame).to_vec();
        for cut in 0..body.len() {
            match Response::decode(&body[..cut]) {
                Err(_) => {}
                Ok(reinterpreted) => {
                    let mut reencoded = Vec::new();
                    reinterpreted.encode(&mut reencoded).expect("encodes");
                    assert_eq!(
                        payload(&reencoded),
                        &body[..cut],
                        "truncation at {cut} decoded to something it does not re-encode to"
                    );
                }
            }
        }
    }
}

/// Flipping arbitrary bytes of a valid payload must yield `Ok` or `Err`,
/// never a panic or runaway allocation.
#[test]
fn corrupted_frames_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xBADBEEF);
    for _ in 0..600 {
        let owned = OwnedCommand::random(&mut rng);
        let mut frame = Vec::new();
        owned.borrow().encode(&mut frame).expect("encodes");
        let mut body = payload(&frame).to_vec();
        if body.is_empty() {
            continue;
        }
        for _ in 0..4 {
            let at = rng.gen_range(0usize..body.len());
            body[at] ^= rng.gen_range(1u64..256) as u8;
        }
        drop(Command::decode(&body));
        drop(Response::decode(&body));
    }
}

/// Pure random byte soup must decode (either direction) without panicking.
#[test]
fn random_bytes_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x50FA);
    for _ in 0..2_000 {
        let len = rng.gen_range(0usize..128);
        let soup: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        drop(Command::decode(&soup));
        drop(Response::decode(&soup));
        drop(frame_bounds(&soup, 0, DEFAULT_MAX_FRAME_BYTES));
    }
}
