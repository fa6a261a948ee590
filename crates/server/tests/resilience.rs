//! Client-resilience and graceful-degradation tests: connect deadlines
//! against a blackholed listener, reconnect-and-retry behaviour, injected
//! short writes, the degraded read-only mode observed over the wire, and
//! both overload paths — `BUSY` admission past the connection cap and
//! slow-consumer eviction.

use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evilbloom_fault::{self as fault, ArmedPlan, FaultPlan, FaultPoint};
use evilbloom_server::{
    Client, ClientConfig, ClientError, Command, ResilientClient, RetryPolicy, Server, ServerConfig,
    ServerHandle, TraceEvent,
};
use evilbloom_store::{BloomStore, PersistConfig};

/// Fault plans are process-wide, so every test here that moves bytes
/// through a server holds the fault session while it does (an empty plan
/// when it injects nothing): a socket fault armed by one test can then
/// never land on another test's connection.
fn fault_session() -> ArmedPlan {
    fault::arm(FaultPlan::new(0))
}

fn small_store(seed: u64) -> Arc<BloomStore> {
    Arc::new(BloomStore::builder().shards(2).capacity(4_000).target_fpp(0.01).seed(seed).build())
}

/// The OS-default connect timeout against a peer that never answers is
/// minutes; `ClientConfig::connect_timeout` must bound it. A listener
/// whose accept backlog has been filled (and is never drained) drops
/// further SYNs — the classic local blackhole.
#[test]
fn connect_timeout_fails_fast_against_a_blackholed_listener() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // Fill the accept backlog; the listener never accepts. Once full, a
    // probe connect times out instead of completing.
    let mut parked = Vec::new();
    let mut blackholed = false;
    for _ in 0..512 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
            Ok(stream) => parked.push(stream),
            Err(_) => {
                blackholed = true;
                break;
            }
        }
    }

    let config = ClientConfig {
        connect_timeout: Some(Duration::from_millis(200)),
        ..ClientConfig::default()
    };
    let started = Instant::now();
    let result = Client::connect_with(addr, &config);
    let elapsed = started.elapsed();

    // The regression being guarded: without the deadline this call hangs
    // for the OS default (minutes). With it, it must return promptly —
    // and with the backlog verifiably full, it must be a timeout error.
    assert!(elapsed < Duration::from_secs(5), "connect deadline not honoured: {elapsed:?}");
    if blackholed {
        assert!(result.is_err(), "connect into a full backlog must time out");
    }
    drop(parked);
}

/// `ResilientClient` re-dials and replays idempotent requests when the
/// server restarts underneath it; the counters expose the churn.
#[test]
fn resilient_client_survives_a_server_restart() {
    let _faults = fault_session();
    let store = small_store(3);
    let handle = Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = handle.local_addr();

    let config = ClientConfig {
        retry: RetryPolicy {
            max_retries: 20,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            seed: 1,
            retry_writes: false,
        },
        ..ClientConfig::default()
    };
    let mut client = ResilientClient::connect(addr, config).expect("dial");
    client.ping().expect("first ping");

    // Restart the server under the client: the pooled socket dies.
    handle.shutdown();
    let handle = Server::spawn(store, addr, ServerConfig::default()).expect("rebind the same port");

    client.ping().expect("ping after restart is retried onto a fresh connection");
    assert!(client.reconnects() >= 1, "the restart must have forced a re-dial");
    handle.shutdown();
}

/// Writes are not replayed by default after a connection-level failure —
/// the error surfaces once the budget is spent on reconnecting.
#[test]
fn writes_do_not_retry_without_explicit_opt_in() {
    let _faults = fault_session();
    let handle = Server::spawn(small_store(3), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = handle.local_addr();
    let config = ClientConfig {
        connect_timeout: Some(Duration::from_millis(200)),
        retry: RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            seed: 1,
            retry_writes: false,
        },
        ..ClientConfig::default()
    };
    let mut client = ResilientClient::connect(addr, config).expect("dial");
    client.ping().expect("ping");

    // Kill the server for good: the next write fails at the connection
    // level and must NOT be retried (retry_writes is off), so exactly
    // zero retry delays are consumed by it.
    handle.shutdown();
    let err = client.insert(b"lost-ack").expect_err("write into a dead server fails");
    match err {
        ClientError::Io(_) | ClientError::Disconnected => {}
        other => panic!("expected a transport error, got {other}"),
    }
    assert_eq!(client.retries(), 0, "a non-idempotent write must not be replayed");
}

fn spawn_persistent(dir: &std::path::Path) -> (ServerHandle, Arc<BloomStore>) {
    let mut store = BloomStore::builder()
        .shards(2)
        .capacity(4_000)
        .target_fpp(0.01)
        .unhardened()
        .seed(9)
        .build();
    store.enable_persistence(&PersistConfig::new(dir)).expect("enable persistence");
    let store = Arc::new(store);
    let handle = Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    (handle, store)
}

/// The full degraded lifecycle over the wire: a WAL break turns writes
/// into typed `DEGRADED` refusals while queries stay served, `STATS` raises
/// the degraded flag, a remote `SNAPSHOT` repairs the log, and the trace
/// records entry before exit.
#[test]
fn degraded_read_only_mode_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("evilbloom-degraded-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");

    let (handle, _store) = spawn_persistent(&dir);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let faults = fault_session();
    client.insert(b"healthy-write").expect("insert before the break");
    drop(faults);

    // Break the WAL on the next fsync: the commit of the write below
    // fails, the store enters degraded read-only mode, and the write
    // is refused (never acked).
    {
        let _chaos = fault::arm(FaultPlan::new(5).fail_nth(FaultPoint::WalFsync, 1));
        let err = client.insert(b"breaking-write").expect_err("the breaking write is refused");
        match err {
            ClientError::Degraded(reason) => {
                assert!(reason.contains("degraded"), "refusal names the mode: {reason}")
            }
            other => panic!("expected DEGRADED, got {other}"),
        }
    }
    let _faults = fault_session();

    // The connection survived the typed refusal; reads are served.
    // (The breaking write itself was applied in-memory before its
    // commit failed — refused means *unacked*, not invisible — but
    // every later write is refused by the pre-guard before applying.)
    assert!(client.query(b"healthy-write").expect("queries still served"));
    let err = client.insert_batch(&[b"still-refused".as_slice()]).expect_err("still degraded");
    assert!(matches!(err, ClientError::Degraded(_)), "{err}");
    assert!(
        !client.query(b"still-refused").expect("query the refused item"),
        "a pre-guard-refused write must not be applied"
    );

    let stats = client.stats().expect("stats while degraded");
    assert!(stats.degraded, "STATS must raise the degraded flag");

    // Operator repair: SNAPSHOT rewrites the state and rotates onto a
    // fresh WAL segment; the store exits degraded mode.
    client.snapshot().expect("repair snapshot");
    let stats = client.stats().expect("stats after repair");
    assert!(!stats.degraded, "repair must clear the degraded flag");
    client.insert(b"post-repair-write").expect("writes accepted again");

    // Entry before exit on the flight recorder.
    let trace = client.trace().expect("trace");
    let entered = trace
        .events
        .iter()
        .position(|e| matches!(e.event, TraceEvent::DegradedEntered { .. }))
        .unwrap_or_else(|| panic!("DegradedEntered not recorded"));
    let exited = trace
        .events
        .iter()
        .position(|e| matches!(e.event, TraceEvent::DegradedExited { .. }))
        .unwrap_or_else(|| panic!("DegradedExited not recorded"));
    assert!(entered < exited, "degraded exit recorded before entry");

    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deletes are writes too: on a degraded counting server, scalar `DELETE`
/// and `MDELETE` draw the same typed `DEGRADED` refusal as `INSERT` and
/// `MINSERT`, and a refused delete is not applied.
#[test]
fn degraded_counting_server_refuses_deletes_over_the_wire() {
    let dir =
        std::env::temp_dir().join(format!("evilbloom-degraded-deletes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    let mut store = BloomStore::builder()
        .shards(2)
        .capacity(4_000)
        .target_fpp(0.01)
        .unhardened()
        .seed(9)
        .counting(4)
        .build();
    store.enable_persistence(&PersistConfig::new(&dir)).expect("enable persistence");
    let handle = Server::spawn(Arc::new(store), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let faults = fault_session();
    client.insert_batch(&[b"member-a".as_slice(), b"member-b"]).expect("insert before the break");
    drop(faults);
    {
        let _chaos = fault::arm(FaultPlan::new(6).fail_nth(FaultPoint::WalFsync, 1));
        client.insert(b"breaking-write").expect_err("the breaking write is refused");
    }
    let _faults = fault_session();

    let scalar = client.delete(b"member-a").map(|_| ());
    let batch = client.delete_batch(&[b"member-b".as_slice()]).map(|_| ());
    for (name, result) in [("DELETE", scalar), ("MDELETE", batch)] {
        match result {
            Err(ClientError::Degraded(reason)) => {
                assert!(reason.contains("degraded"), "{name}: refusal names the mode: {reason}")
            }
            Err(other) => panic!("{name}: expected DEGRADED, got {other}"),
            Ok(()) => panic!("{name}: a degraded store accepted a delete"),
        }
    }
    assert!(client.query(b"member-a").expect("query"), "a refused DELETE must not apply");
    assert!(client.query(b"member-b").expect("query"), "a refused MDELETE must not apply");

    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `BUSY` admission past `max_conns`: with one slot, the held connection
/// is served, the next dial's first request draws the typed refusal with
/// the configured retry-after hint, and closing the held connection frees
/// its slot for a fresh dial.
#[test]
fn busy_rejections_surface_with_the_retry_after_hint() {
    let _faults = fault_session();
    let config = ServerConfig {
        max_conns: 1,
        busy_retry_after: Duration::from_millis(250),
        ..ServerConfig::default()
    };
    let handle = Server::spawn(small_store(11), "127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.local_addr();

    let mut held = Client::connect(addr).expect("dial the held connection");
    held.ping().expect("the connection under the cap is served");

    let mut refused = Client::connect(addr).expect("dial past the cap");
    match refused.ping() {
        Err(ClientError::Busy { retry_after_ms }) => {
            assert_eq!(retry_after_ms, 250, "hint must match busy_retry_after")
        }
        other => panic!("expected BUSY past max_conns, got {other:?}"),
    }

    // The reactor notices the close asynchronously; once it has, the slot
    // is free again.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut fresh = Client::connect(addr).expect("dial after the release");
        match fresh.ping() {
            Ok(()) => break,
            Err(ClientError::Busy { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5))
            }
            Err(err) => panic!("the released slot was never admitted again: {err}"),
        }
    }
    handle.shutdown();
}

/// An injected short write on a server socket sends a truncated prefix and
/// drops the connection: the client sees a connection error for that
/// request, never a short or misdecoded answer, and a `ResilientClient`
/// read succeeds after reconnecting.
#[test]
fn short_socket_writes_surface_as_connection_errors() {
    let handle = Server::spawn(small_store(13), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let mut resilient = ResilientClient::connect(
        addr,
        ClientConfig {
            retry: RetryPolicy {
                max_retries: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(5),
                seed: 1,
                retry_writes: false,
            },
            ..ClientConfig::default()
        },
    )
    .expect("dial");

    let faults = fault_session();
    client.insert(b"member").expect("insert before the faults");
    drop(faults);
    let _chaos = fault::arm(
        FaultPlan::new(13)
            .short_write_nth(FaultPoint::SocketWrite, 1)
            .short_write_nth(FaultPoint::SocketWrite, 2),
    );

    // The truncated prefix reaches the client before the close, so the
    // stream ends inside a frame rather than between frames.
    match client.query(b"member") {
        Err(ClientError::Io(err)) if err.kind() == std::io::ErrorKind::UnexpectedEof => {}
        other => panic!("a truncated response must be a mid-frame EOF, got {other:?}"),
    }
    assert!(resilient.query(b"member").expect("the read is retried onto a fresh connection"));
    assert!(resilient.reconnects() >= 1, "the truncated response must force a re-dial");
    assert_eq!(fault::injected(FaultPoint::SocketWrite), 2);
    handle.shutdown();
}

/// A peer that pipelines requests without ever reading its responses is
/// throttled at the pending-write high-water mark and, once it has sat
/// there past the slow-consumer grace period, evicted — counted in
/// `evilbloom_server_slow_consumer_evictions_total` — while a second
/// connection keeps being served.
#[test]
fn slow_consumers_are_evicted_while_others_are_served() {
    let _faults = fault_session();
    let config =
        ServerConfig { slow_consumer_grace: Duration::from_millis(200), ..ServerConfig::default() };
    let handle = Server::spawn(small_store(17), "127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.local_addr();
    let mut healthy = Client::connect(addr).expect("connect");

    // Empty MQUERY frames: each response is as large as its request, so
    // the unread responses reach the high-water mark after a few MB.
    let mut burst = Vec::new();
    for _ in 0..4096 {
        Command::QueryBatch(Vec::new()).encode(&mut burst).expect("encodes");
    }
    let hog = TcpStream::connect(addr).expect("connect the slow consumer");
    let writer = {
        let mut hog = hog.try_clone().expect("clone");
        std::thread::spawn(move || while hog.write_all(&burst).is_ok() {})
    };

    let deadline = Instant::now() + Duration::from_secs(30);
    let evictions = loop {
        healthy.ping().expect("the second connection keeps being served");
        let text = healthy.metrics().expect("metrics");
        let evictions: u64 = text
            .lines()
            .find_map(|line| line.strip_prefix("evilbloom_server_slow_consumer_evictions_total "))
            .expect("eviction counter rendered")
            .parse()
            .expect("numeric sample");
        if evictions >= 1 || Instant::now() > deadline {
            break evictions;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    // Unblocks the writer if the server never closed the hog.
    drop(hog.shutdown(Shutdown::Both));
    writer.join().expect("writer thread");
    assert!(evictions >= 1, "the slow consumer was never evicted");
    handle.shutdown();
}
