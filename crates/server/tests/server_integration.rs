//! End-to-end tests of the TCP serving layer over loopback: every command,
//! pipelining, concurrent clients, protocol-violation handling, graceful
//! shutdown, byte-at-a-time partial-frame delivery and ≥1000 concurrent
//! connections.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use evilbloom_server::{
    Client, ClientError, ClientPool, Command, Response, Server, ServerConfig, ServerHandle,
    POOL_FRAME_ITEMS,
};
use evilbloom_store::{
    BackendKind, BloomStore, ConcurrentCountingFilter, FilterBackend, PersistConfig, StoreBuilder,
};

/// Unique scratch directory, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("evilbloom-server-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn_on(hardened: bool, shards: usize) -> (ServerHandle, Arc<BloomStore>) {
    let builder = BloomStore::builder().shards(shards).capacity(4_000).target_fpp(0.01).seed(42);
    let builder = if hardened { builder.hardened() } else { builder.unhardened() };
    let store = Arc::new(builder.build());
    let handle = Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    (handle, store)
}

#[test]
fn every_command_round_trips() {
    let (handle, store) = spawn_on(true, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    client.ping().expect("ping");
    assert!(client.insert(b"item-a").expect("insert") > 0);
    assert!(client.query(b"item-a").expect("query"));
    assert!(!client.query(b"item-b").expect("query"));

    let members: Vec<String> = (0..200).map(|i| format!("batch-{i}")).collect();
    let outcome = client.insert_batch(&members).expect("minsert");
    assert_eq!(outcome.items, 200);
    assert!(outcome.fresh_bits > 0);
    let answers = client.query_batch(&members).expect("mquery");
    assert!(answers.iter().all(|&a| a), "no false negatives");

    // The wire stats must agree with the in-process view.
    let remote = client.stats().expect("stats");
    assert!(remote.hardened);
    assert_eq!(remote.backend, BackendKind::Bloom);
    assert_eq!(remote, store.stats());

    handle.shutdown();
}

#[test]
fn rotation_over_the_wire_drops_polluted_bits() {
    let (handle, _store) = spawn_on(true, 2);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let members: Vec<String> = (0..100).map(|i| format!("keep-{i}")).collect();
    client.insert_batch(&members).expect("minsert");
    client.insert(b"pollution").expect("insert");

    for shard in 0..2 {
        assert_eq!(client.rotate_begin(shard).expect("begin"), Some(1));
        // A second begin while draining is refused, not an error.
        assert_eq!(client.rotate_begin(shard).expect("begin again"), None);
    }
    // Mid-rotation the old generation still answers.
    assert!(client.query(b"pollution").expect("query"));
    client.insert_batch(&members).expect("replay");
    for shard in 0..2 {
        assert!(client.rotate_complete(shard).expect("complete"));
        assert!(!client.rotate_complete(shard).expect("nothing left"));
    }
    assert!(client.query_batch(&members).expect("mquery").iter().all(|&a| a));
    assert!(!client.query(b"pollution").expect("query"), "unreplayed pollution is gone");

    handle.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (handle, _store) = spawn_on(true, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let items: Vec<String> = (0..50).map(|i| format!("pipeline-{i}")).collect();
    client.insert_batch(&items).expect("minsert");

    // Queue 100 single queries (alternating hit/miss) without reading.
    for (i, item) in items.iter().enumerate() {
        client.send(&Command::Query(item.as_bytes())).expect("send hit");
        client.send(&Command::Query(format!("absent-{i}").as_bytes())).expect("send miss");
    }
    for i in 0..50 {
        assert_eq!(client.recv().expect("hit"), Response::Found(true), "hit {i}");
        assert_eq!(client.recv().expect("miss"), Response::Found(false), "miss {i}");
    }
    handle.shutdown();
}

#[test]
fn concurrent_clients_share_the_store() {
    let (handle, store) = spawn_on(true, 4);
    let addr = handle.local_addr();
    std::thread::scope(|scope| {
        for worker in 0..4 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let items: Vec<String> = (0..100).map(|i| format!("worker-{worker}-{i}")).collect();
                client.insert_batch(&items).expect("minsert");
                assert!(client.query_batch(&items).expect("mquery").iter().all(|&a| a));
            });
        }
    });
    assert_eq!(store.stats().total_inserted, 400);
    assert_eq!(handle.requests_served(), 8);
    handle.shutdown();
}

#[test]
fn semantic_errors_keep_the_connection_alive() {
    let (handle, _store) = spawn_on(true, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    match client.rotate_begin(99) {
        Err(ClientError::Remote(message)) => assert!(message.contains("out of range")),
        other => panic!("expected a remote error, got {other:?}"),
    }
    client.ping().expect("connection still serves");
    handle.shutdown();
}

#[test]
fn protocol_violations_get_an_error_and_a_close() {
    let (handle, _store) = spawn_on(true, 4);
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    // A frame with a bad version byte.
    stream.write_all(&[2u8, 0, 0, 0, 99, 0x01]).expect("write");
    stream.flush().expect("flush");

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("server closes after the error frame");
    let (start, end) = evilbloom_server::wire::frame_bounds(&raw, 0, 1 << 20)
        .expect("cap")
        .expect("one complete error frame");
    match Response::decode(&raw[start..end]).expect("decodes") {
        Response::Error(message) => assert!(message.contains("version"), "{message}"),
        other => panic!("expected ERROR, got {other:?}"),
    }
    assert_eq!(end, raw.len(), "nothing after the error frame");
    handle.shutdown();
}

#[test]
fn oversized_frames_are_refused_without_allocation() {
    let store = Arc::new(
        BloomStore::builder().shards(2).capacity(1_000).target_fpp(0.01).hardened().seed(1).build(),
    );
    let config = ServerConfig { max_frame_bytes: 1024, ..ServerConfig::default() };
    let handle = Server::spawn(store, "127.0.0.1:0", config).expect("bind");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    // Claim a 1 GiB payload; send only the prefix.
    stream.write_all(&(1u32 << 30).to_le_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("server answers and closes");
    let (start, end) =
        evilbloom_server::wire::frame_bounds(&raw, 0, 1 << 20).expect("cap").expect("error frame");
    match Response::decode(&raw[start..end]).expect("decodes") {
        Response::Error(message) => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected ERROR, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn shutdown_is_graceful_and_bounded() {
    let (handle, _store) = spawn_on(true, 4);
    let addr = handle.local_addr();
    // An idle connection is open when shutdown starts.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");

    let started = std::time::Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with an idle connection open",
        started.elapsed()
    );

    // The idle connection was closed by the server side.
    assert!(client.ping().is_err(), "server should be gone");
    // New connections are refused or immediately closed.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            assert!(late.ping().is_err(), "no thread should serve a late client")
        }
    }
}

#[test]
fn oversized_commands_are_rejected_client_side_before_sending() {
    let (handle, _store) = spawn_on(true, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.set_max_frame_bytes(256);
    let big = vec![0xAAu8; 1024];
    let err = client.send(&Command::Insert(&big)).expect_err("must reject locally");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // Regression: the error reports the *true* payload length (1026 =
    // version + opcode + item), not a value clamped to `u32::MAX`.
    assert!(err.to_string().contains("1026"), "true length missing: {err}");
    // The connection was never poisoned: normal traffic still works.
    client.set_max_frame_bytes(evilbloom_server::DEFAULT_MAX_FRAME_BYTES);
    client.ping().expect("connection unaffected");
    handle.shutdown();
}

#[test]
fn unhardened_server_reports_its_posture() {
    let (handle, _store) = spawn_on(false, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    assert!(!client.stats().expect("stats").hardened);
    handle.shutdown();
}

/// A peer delivering its bytes one at a time must be reassembled correctly:
/// every readiness event hands the state machine a partial frame, and no
/// response may be emitted before the frame completes. (This is the
/// edge-triggering/partial-read regression test for the reactor.)
#[test]
fn byte_at_a_time_partial_frame_delivery() {
    let (handle, _store) = spawn_on(true, 4);
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Three pipelined frames, delivered byte by byte.
    let mut bytes = Vec::new();
    Command::Ping.encode(&mut bytes).expect("encodes");
    Command::Insert(b"https://drip.example/slow").encode(&mut bytes).expect("encodes");
    Command::QueryBatch(vec![b"https://drip.example/slow".as_slice(), b"absent".as_slice()])
        .encode(&mut bytes)
        .expect("encodes");
    for &byte in &bytes {
        stream.write_all(&[byte]).expect("write one byte");
        stream.flush().expect("flush");
    }

    let mut payload = Vec::new();
    let mut read_response = || {
        assert!(
            evilbloom_server::wire::read_frame(&mut stream, &mut payload, 1 << 20)
                .expect("read frame"),
            "connection stays open"
        );
        Response::decode(&payload).expect("decodes")
    };
    assert_eq!(read_response(), Response::Pong);
    match read_response() {
        Response::Inserted { fresh_bits } => assert!(fresh_bits > 0),
        other => panic!("expected INSERTED, got {other:?}"),
    }
    assert_eq!(read_response(), Response::BatchFound(vec![true, false]));
    handle.shutdown();
}

/// The C10k claim, scaled to a unit test: the server holds ≥1000
/// concurrent loopback connections — every one of them *served*, not just
/// accepted — on a handful of reactor threads, and stays responsive while
/// they are all open.
#[test]
fn async_backend_sustains_1000_concurrent_connections() {
    const CONNECTIONS: usize = 1000;
    if let Some(budget) = evilbloom_server::loopback_connection_budget() {
        if budget < CONNECTIONS as u64 {
            eprintln!("skipping: fd budget {budget} too low for {CONNECTIONS} connections");
            return;
        }
    }

    let (handle, store) = spawn_on(true, 4);
    let addr = handle.local_addr();

    let mut clients: Vec<Client> = Vec::with_capacity(CONNECTIONS);
    for i in 0..CONNECTIONS {
        match Client::connect(addr) {
            Ok(client) => clients.push(client),
            Err(e) => panic!("connect {i} failed: {e}"),
        }
    }

    // Every connection is served, not merely accepted: one request each.
    for (i, client) in clients.iter_mut().enumerate() {
        client.ping().unwrap_or_else(|e| panic!("ping on connection {i} failed: {e}"));
    }

    // With all 1000 still open, the server keeps doing real work.
    let items: Vec<String> = (0..100).map(|i| format!("c10k-{i}")).collect();
    clients[0].insert_batch(&items).expect("insert under load");
    let answers = clients[CONNECTIONS - 1].query_batch(&items).expect("query under load");
    assert!(answers.iter().all(|&a| a), "no false negatives under 1000-connection load");
    assert_eq!(store.stats().total_inserted, 100);
    assert!(handle.requests_served() >= CONNECTIONS as u64 + 2);

    drop(clients);
    handle.shutdown();
}

/// The tentpole acceptance path: populate an unhardened persistent store
/// over TCP, `SNAPSHOT` it remotely, keep inserting (those land only in the
/// WAL), shut the server down, recover the store from disk, serve it again
/// — and every query must answer bit-for-bit identically over the wire,
/// false positives included.
#[test]
fn restarted_server_answers_bit_for_bit_identically() {
    let tmp = TempDir::new("restart");
    let persist = PersistConfig::new(&tmp.0);

    let mut store = BloomStore::builder()
        .shards(4)
        .capacity(4_000)
        .target_fpp(0.01)
        .unhardened()
        .seed(7)
        .build();
    store.enable_persistence(&persist).expect("enable persistence");
    let handle =
        Server::spawn(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let before_snapshot: Vec<String> = (0..600).map(|i| format!("pre-snap-{i}")).collect();
    client.insert_batch(&before_snapshot).expect("minsert");
    let info = client.snapshot().expect("remote snapshot");
    assert!(info.seq > 0 && info.wal_seq > 0 && info.bytes > 0);
    assert_eq!(info.shards, 4);

    // These inserts exist only in the write-ahead log.
    let after_snapshot: Vec<String> = (0..400).map(|i| format!("post-snap-{i}")).collect();
    client.insert_batch(&after_snapshot).expect("minsert");

    // Probe set: every member plus absent items (some of which may be
    // false positives — recovery must reproduce those too).
    let mut probes: Vec<String> = Vec::new();
    probes.extend(before_snapshot.iter().cloned());
    probes.extend(after_snapshot.iter().cloned());
    probes.extend((0..2_000).map(|i| format!("absent-{i}")));
    let original = client.query_batch(&probes).expect("mquery");
    assert!(original[..1_000].iter().all(|&a| a), "members must all answer true");

    drop(client);
    handle.shutdown();

    let (recovered, report): (BloomStore, _) = BloomStore::recover(&persist).expect("recover");
    assert_eq!(report.replayed_inserts, 400, "WAL tail replays");
    let handle =
        Server::spawn(Arc::new(recovered), "127.0.0.1:0", ServerConfig::default()).expect("rebind");
    let mut client = Client::connect(handle.local_addr()).expect("reconnect");
    let replayed = client.query_batch(&probes).expect("mquery after restart");
    assert_eq!(replayed, original, "bit-for-bit equivalence over TCP");
    handle.shutdown();
}

/// `SNAPSHOT` against a server whose store has no persistence enabled is a
/// typed remote error, and the connection survives it.
#[test]
fn snapshot_without_persistence_is_a_remote_error() {
    let (handle, _store) = spawn_on(false, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    match client.snapshot() {
        Err(ClientError::Remote(message)) => {
            assert!(message.contains("persistence"), "{message}")
        }
        other => panic!("expected a remote error, got {other:?}"),
    }
    client.ping().expect("connection still serves");
    handle.shutdown();
}

/// The pooled variant drives the same opcode through `ClientPool`.
#[test]
fn pooled_snapshot_round_trips() {
    let tmp = TempDir::new("pooled-snap");
    let persist = PersistConfig::new(&tmp.0);
    let mut store = BloomStore::builder()
        .shards(2)
        .capacity(2_000)
        .target_fpp(0.01)
        .unhardened()
        .seed(3)
        .build();
    store.enable_persistence(&persist).expect("enable persistence");
    let handle =
        Server::spawn(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).expect("bind");

    let mut pool = ClientPool::connect(handle.local_addr(), 2).expect("pool");
    let items: Vec<String> = (0..300).map(|i| format!("pooled-{i}")).collect();
    pool.minsert_pooled(&items, 64).expect("pooled insert");
    let info = pool.with_connection(|c| c.snapshot()).expect("pooled snapshot");
    assert!(info.seq > 0);
    assert!(pool.mquery_pooled(&items, 64).expect("pooled query").iter().all(|&a| a));
    handle.shutdown();
}

/// A peer that pipelines a burst, half-closes its write side, and then
/// reads must still receive every response: EOF with responses pending (or
/// executing) takes the flush-then-close path instead of dropping
/// undelivered bytes.
#[test]
fn half_close_still_delivers_pending_responses() {
    let (handle, _store) = spawn_on(true, 4);
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");

    const BURST: usize = 200;
    let mut bytes = Vec::new();
    Command::Insert(b"half-close-item").encode(&mut bytes).expect("encodes");
    for _ in 0..BURST {
        Command::Query(b"half-close-item").encode(&mut bytes).expect("encodes");
    }
    stream.write_all(&bytes).expect("write burst");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");

    let mut payload = Vec::new();
    assert!(evilbloom_server::wire::read_frame(&mut stream, &mut payload, 1 << 20)
        .expect("read INSERTED"));
    for i in 0..BURST {
        assert!(
            evilbloom_server::wire::read_frame(&mut stream, &mut payload, 1 << 20)
                .unwrap_or_else(|e| panic!("response {i} after half-close: {e}")),
            "connection closed before response {i}"
        );
        assert_eq!(
            Response::decode(&payload).expect("decodes"),
            Response::Found(true),
            "response {i}"
        );
    }
    // After the last response the server closes cleanly.
    assert!(
        !evilbloom_server::wire::read_frame(&mut stream, &mut payload, 1 << 20).expect("clean EOF"),
        "nothing after the final response"
    );
    handle.shutdown();
}

#[test]
fn metrics_scrape_round_trips_with_every_layer_present() {
    let (handle, _store) = spawn_on(true, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Generate traffic across opcodes so counters move before scraping.
    let members: Vec<String> = (0..100).map(|i| format!("metrics-{i}")).collect();
    client.insert_batch(&members).expect("minsert");
    client.query_batch(&members).expect("mquery");
    client.stats().expect("stats");

    // Scrape twice: a scrape's own request is counted after it renders,
    // so the first exposition shows op="metrics" at 0 and the second at
    // 1 — the counter reflects requests *completed* before the scrape.
    let first = client.metrics().expect("metrics");
    assert!(first.contains(r#"evilbloom_server_requests_total{op="metrics"} 0"#), "{first}");
    let text = client.metrics().expect("metrics");
    // At least one metric family from every instrumented layer renders —
    // persist families at zero where the configuration leaves them idle.
    for family in [
        "evilbloom_server_requests_total",        // server
        "evilbloom_server_request_latency_ns",    // server histograms
        "evilbloom_reactor_wakeups_total",        // reactor
        "evilbloom_bufferpool_hits_total",        // buffer pool
        "evilbloom_store_inserts_total",          // store
        "evilbloom_store_bits_per_insert_recent", // drift gauge
        "evilbloom_persist_wal_append_ns",        // persist
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }

    // The exposition is structurally parseable: every non-comment line
    // is `name{labels} value` with a numeric value.
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("unparseable line {line:?}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "non-numeric sample value in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 20, "suspiciously few samples ({samples})");

    // The traffic above is visible in the scrape.
    assert!(text.contains(r#"evilbloom_server_requests_total{op="minsert"} 1"#), "{text}");
    assert!(text.contains(r#"evilbloom_server_requests_total{op="metrics"} 1"#), "{text}");
    assert!(text.contains("evilbloom_store_inserts_total 100"), "{text}");

    handle.shutdown();
}

#[test]
fn stats_report_generation_and_uptime() {
    let (handle, _store) = spawn_on(true, 2);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let before = client.stats().expect("stats");
    assert!(before.shards.iter().all(|s| s.generation == 0), "fresh store starts at generation 0");

    // Rotating a shard must be visible in that shard's reported generation.
    let generation = client.rotate_begin(0).expect("rotate").expect("fresh rotation");
    assert!(generation > 0);
    let after = client.stats().expect("stats");
    assert_eq!(after.shards[0].generation, generation);
    assert!(after.shards[0].rotating);
    assert_eq!(after.shards[1].generation, 0);
    // Uptime is not part of STATS: it is reported once, as a METRICS gauge.
    let text = client.metrics().expect("metrics");
    let uptime: f64 = text
        .lines()
        .find_map(|line| line.strip_prefix("evilbloom_server_uptime_seconds "))
        .expect("uptime gauge")
        .parse()
        .expect("uptime is a number");
    assert!((0.0..3600.0).contains(&uptime), "implausible uptime {uptime}");

    handle.shutdown();
}

#[test]
fn pooled_metrics_scrape_round_trips() {
    let (handle, _store) = spawn_on(true, 4);
    let mut pool = ClientPool::connect(handle.local_addr(), 2).expect("pool");
    let text = pool.with_connection(|c| c.metrics()).expect("pooled metrics");
    assert!(text.contains("evilbloom_server_uptime_seconds"), "{text}");
    handle.shutdown();
}

/// `DELETE` against a family that cannot delete is a *typed* refusal
/// (`UNSUPPORTED`, surfacing as [`ClientError::Unsupported`]), not a
/// protocol error — and the connection keeps serving afterwards.
#[test]
fn delete_on_a_plain_bloom_server_is_typed_unsupported() {
    let (handle, _store) = spawn_on(true, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.insert(b"undeletable").expect("insert");
    match client.delete(b"undeletable") {
        Err(ClientError::Unsupported(message)) => {
            assert!(message.contains("bloom") && message.contains("remove"), "{message}")
        }
        other => panic!("expected UNSUPPORTED, got {other:?}"),
    }
    match client.delete_batch(&["a", "b"]) {
        Err(ClientError::Unsupported(_)) => {}
        other => panic!("expected UNSUPPORTED, got {other:?}"),
    }
    // The refusal changed nothing and poisoned nothing.
    assert!(client.query(b"undeletable").expect("query"));
    client.ping().expect("connection still serves");
    handle.shutdown();
}

/// The counting family end-to-end: populate over TCP, evict with `DELETE`
/// and `MDELETE`, snapshot remotely, keep mutating (WAL-only tail), restart
/// — and the recovered server answers bit-for-bit identically, deletions
/// and false positives included.
#[test]
fn counting_store_serves_deletes_and_recovers_over_tcp() {
    let tmp = TempDir::new("counting");
    let persist = PersistConfig::new(&tmp.0);
    let mut store = BloomStore::builder()
        .shards(4)
        .capacity(4_000)
        .target_fpp(0.01)
        .unhardened()
        .seed(9)
        .counting(4)
        .build();
    store.enable_persistence(&persist).expect("enable persistence");
    let handle =
        Server::spawn(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    assert_eq!(client.stats().expect("stats").backend, BackendKind::Counting);

    let members: Vec<String> = (0..500).map(|i| format!("member-{i}")).collect();
    let transient: Vec<String> = (0..200).map(|i| format!("transient-{i}")).collect();
    client.insert_batch(&members).expect("minsert members");
    client.insert_batch(&transient).expect("minsert transient");

    // Scalar and batch deletion both report the items as present.
    assert!(client.delete(transient[0].as_bytes()).expect("delete"));
    let answers = client.delete_batch(&transient[1..]).expect("mdelete");
    assert!(answers.iter().all(|&a| a), "present items evict as present");
    assert!(
        client.query_batch(&members).expect("mquery").iter().all(|&a| a),
        "members survive the eviction"
    );

    let info = client.snapshot().expect("remote snapshot");
    assert!(info.seq > 0 && info.bytes > 0);

    // This tail lives only in the WAL: inserts and one more delete.
    let post: Vec<String> = (0..100).map(|i| format!("post-{i}")).collect();
    client.insert_batch(&post).expect("minsert post-snapshot");
    assert!(client.delete(post[0].as_bytes()).expect("delete post-snapshot"));

    let mut probes: Vec<String> = Vec::new();
    probes.extend(members.iter().cloned());
    probes.extend(transient.iter().cloned());
    probes.extend(post.iter().cloned());
    probes.extend((0..2_000).map(|i| format!("absent-{i}")));
    let original = client.query_batch(&probes).expect("mquery");

    drop(client);
    handle.shutdown();

    let (recovered, report): (BloomStore<ConcurrentCountingFilter>, _) =
        BloomStore::recover(&persist).expect("recover counting");
    assert_eq!(report.replayed_inserts, 100);
    assert_eq!(report.replayed_removes, 1, "WAL delete tail replays");
    let handle =
        Server::spawn(Arc::new(recovered), "127.0.0.1:0", ServerConfig::default()).expect("rebind");
    let mut client = Client::connect(handle.local_addr()).expect("reconnect");
    let replayed = client.query_batch(&probes).expect("mquery after restart");
    assert_eq!(replayed, original, "bit-for-bit equivalence over TCP");
    handle.shutdown();
}

/// The scalable family end-to-end: a store sized for 500 items absorbs
/// 3 000 over TCP by growing levels, never false-negatives, reports its
/// family in `STATS`, and refuses `DELETE` with the typed error.
#[test]
fn scalable_store_serves_and_grows_over_tcp() {
    let store = Arc::new(
        BloomStore::builder()
            .shards(2)
            .capacity(500)
            .target_fpp(0.01)
            .unhardened()
            .seed(5)
            .scalable(0.9)
            .build(),
    );
    let handle =
        Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let items: Vec<String> = (0..3_000).map(|i| format!("grow-{i}")).collect();
    client.insert_batch(&items).expect("minsert past capacity");
    assert!(
        client.query_batch(&items).expect("mquery").iter().all(|&a| a),
        "no false negatives after growth"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.backend, BackendKind::Scalable);
    assert_eq!(stats.total_inserted, 3_000);
    match client.delete(items[0].as_bytes()) {
        Err(ClientError::Unsupported(message)) => {
            assert!(message.contains("scalable"), "{message}")
        }
        other => panic!("expected UNSUPPORTED, got {other:?}"),
    }
    handle.shutdown();
}

/// What a remote operator reads over `STATS` is exactly what the store
/// holds: one `assert_eq!` over every field, for each family, hardened and
/// not, on a quiescent store with a rotation in flight.
#[test]
fn remote_stats_equal_the_store_stats() {
    fn check<B: FilterBackend + 'static>(builder: StoreBuilder<B>, hardened: bool) {
        let builder = if hardened { builder.hardened() } else { builder.unhardened() };
        let store = Arc::new(builder.build());
        let handle = Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("bind loopback");
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let items: Vec<String> = (0..1_500).map(|i| format!("remote-local-{i}")).collect();
        client.insert_batch(&items).expect("minsert");
        client.rotate_begin(1).expect("rotate").expect("fresh rotation");
        let remote = client.stats().expect("stats");
        assert_eq!(remote, store.stats(), "{} hardened={hardened}", store.backend_kind());
        assert_eq!(remote.hardened, hardened);
        drop(client);
        handle.shutdown();
    }
    let builder = || BloomStore::builder().shards(4).capacity(1_000).target_fpp(0.01).seed(9);
    for hardened in [false, true] {
        check(builder(), hardened);
        check(builder().counting(4), hardened);
        check(builder().scalable(0.9), hardened);
    }
}

/// The served family is visible to a metrics scraper as the
/// `evilbloom_store_backend_info` info metric.
#[test]
fn metrics_expose_the_served_family() {
    let store = Arc::new(
        BloomStore::builder()
            .shards(2)
            .capacity(1_000)
            .target_fpp(0.01)
            .seed(2)
            .counting(4)
            .build(),
    );
    let handle = Server::spawn(store, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let text = client.metrics().expect("metrics");
    assert!(
        text.contains(r#"evilbloom_store_backend_info{backend="counting"} 1"#),
        "family info metric missing in:\n{text}"
    );
    handle.shutdown();
}

/// A `TRACE` scrape surfaces the forensic layer
/// end-to-end: conn-open and batch events in the flight recorder, the
/// inserting connection in the suspect ranking (with its fresh-bits EWMA),
/// slow-request events under a zero threshold, and a deterministic text
/// rendering.
#[test]
fn trace_scrape_surfaces_events_and_suspects() {
    let store =
        Arc::new(BloomStore::builder().shards(4).capacity(4_000).target_fpp(0.01).seed(42).build());
    // A zero threshold classifies every request as slow, so the test
    // exercises the slow-request path deterministically.
    let config = ServerConfig { slow_request_threshold: Duration::ZERO, ..ServerConfig::default() };
    let handle = Server::spawn(store, "127.0.0.1:0", config).expect("bind loopback");

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let members: Vec<String> = (0..100).map(|i| format!("trace-{i}")).collect();
    let outcome = client.insert_batch(&members).expect("minsert");
    assert!(outcome.fresh_bits > 0);
    client.query_batch(&members).expect("mquery");

    let trace = client.trace().expect("trace");
    assert!(trace.recorded > 0, "recorder saw nothing");
    let events: Vec<_> = trace.events.iter().map(|e| &e.event).collect();
    assert!(
        events.iter().any(|e| matches!(e, evilbloom_server::TraceEvent::ConnOpened { .. })),
        "no conn-open event in {events:?}"
    );
    let insert_event =
        events
            .iter()
            .find_map(|e| match e {
                evilbloom_server::TraceEvent::BatchExecuted {
                    conn_id, items, fresh_bits, ..
                } if *fresh_bits > 0 => Some((*conn_id, *items, *fresh_bits)),
                _ => None,
            })
            .expect("a batch event carrying fresh bits");
    assert_eq!(insert_event.1, 100);
    assert_eq!(insert_event.2, outcome.fresh_bits);
    assert!(
        events.iter().any(|e| matches!(e, evilbloom_server::TraceEvent::SlowRequest { .. })),
        "zero threshold produced no slow-request event"
    );
    // Sequence numbers come back oldest-first and strictly increasing.
    assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));

    // The inserting connection tops the (one-row) suspect ranking, its
    // EWMA seeded at the observed fresh-bits-per-item rate.
    assert_eq!(trace.suspects.len(), 1, "{:?}", trace.suspects);
    assert_eq!(trace.suspects[0].conn_id, insert_event.0);
    assert_eq!(trace.suspects[0].items, 100);
    let expected_rate = outcome.fresh_bits as f64 / 100.0;
    assert!(
        (trace.suspects[0].ewma_bits_per_item - expected_rate).abs() < 1e-9,
        "ewma {} != seeded rate {expected_rate}",
        trace.suspects[0].ewma_bits_per_item
    );

    // The scrape itself samples the store, so the drift timeline has at
    // least one point covering the inserts above.
    assert!(!trace.drift.is_empty(), "empty drift timeline");
    let (inserts, _fresh_bits) = *trace.drift.last().unwrap();
    assert_eq!(inserts, 100);

    let text = trace.render();
    assert!(text.contains("== evilbloom trace:"), "{text}");
    assert!(text.contains("slow-request"), "{text}");
    assert!(text.contains("-- suspects"), "{text}");

    drop(client);
    handle.shutdown();
}

/// `TRACE` is also reachable through a pool.
#[test]
fn pooled_trace_scrape_round_trips() {
    let (handle, _store) = spawn_on(true, 2);
    let mut pool = ClientPool::connect(handle.local_addr(), 2).expect("pool");
    pool.minsert_pooled(&["pooled-a", "pooled-b"], POOL_FRAME_ITEMS).expect("minsert");
    let trace = pool.with_connection(|c| c.trace()).expect("trace");
    assert!(trace.recorded > 0);
    assert!(trace.events.iter().any(|e| {
        matches!(e.event, evilbloom_server::TraceEvent::BatchExecuted { fresh_bits, .. } if fresh_bits > 0)
    }));
    drop(pool);
    handle.shutdown();
}
