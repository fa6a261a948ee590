//! Smoke test for the TCP serving layer, sized for CI: starts a server on
//! an ephemeral loopback port, drives every protocol command through the
//! client (INSERT/QUERY, the MINSERT/MQUERY batch forms, STATS, ROTATE,
//! PING), asserts the responses, and shuts down cleanly. A watchdog thread
//! aborts the process if anything wedges, so the run is bounded even
//! without an external `timeout`.
//!
//! Run with: `cargo run --release --example server_smoke`

use std::sync::Arc;
use std::time::Duration;

use evilbloom::server::{Client, Server, ServerConfig};
use evilbloom::store::BloomStore;

fn main() {
    // Belt and braces against hangs: CI also wraps this in `timeout`.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(90));
        eprintln!("server_smoke: watchdog fired after 90s, aborting");
        std::process::exit(1);
    });

    let store = Arc::new(
        BloomStore::builder()
            .shards(4)
            .capacity(2_000)
            .target_fpp(0.01)
            .hardened()
            .seed(42)
            .build(),
    );
    let handle =
        Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    println!("serving on {}", handle.local_addr());

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.ping().expect("ping");

    // Single-op path.
    let fresh = client.insert(b"https://smoke.example/first").expect("insert");
    assert!(fresh > 0, "first insertion must set fresh bits");
    assert!(client.query(b"https://smoke.example/first").expect("query"));
    assert!(
        !client.query(b"https://smoke.example/never-inserted").expect("query"),
        "a near-empty 1% filter cannot plausibly false-positive here"
    );

    // Batch path: one frame per direction, each shard lock visited once.
    let members: Vec<String> =
        (0..500).map(|i| format!("https://smoke.example/page/{i}")).collect();
    let outcome = client.insert_batch(&members).expect("minsert");
    assert_eq!(outcome.items, 500);
    assert!(outcome.fresh_bits > 0);
    let probes: Vec<String> = members
        .iter()
        .cloned()
        .chain((0..100).map(|i| format!("https://absent.example/{i}")))
        .collect();
    let answers = client.query_batch(&probes).expect("mquery");
    assert!(answers[..500].iter().all(|&a| a), "no false negatives over the wire");

    // Stats expose the store's health, including pollution-alarm state.
    let stats = client.stats().expect("stats");
    assert!(stats.hardened);
    assert_eq!(stats.total_inserted, 501);
    assert_eq!(stats.alarms, 0, "honest smoke traffic must not alarm");
    assert_eq!(stats.shards.len(), 4);
    println!(
        "stats: {} inserted, mean fill {:.4}, alarms {}",
        stats.total_inserted, stats.mean_fill, stats.alarms
    );

    // Rotation over the wire: begin, replay, complete — members still answer.
    for shard in 0..4 {
        assert_eq!(client.rotate_begin(shard).expect("rotate begin"), Some(1));
    }
    client.insert_batch(&members).expect("replay");
    for shard in 0..4 {
        assert!(client.rotate_complete(shard).expect("rotate complete"));
    }
    assert!(client.query_batch(&members).expect("post-rotation mquery").iter().all(|&a| a));

    // Out-of-range shard is a clean remote error, not a dead connection.
    assert!(client.rotate_begin(99).is_err());
    client.ping().expect("connection survives a semantic error");

    let served = handle.requests_served();
    assert!(served >= 15, "only {served} requests recorded");
    drop(client);
    handle.shutdown();
    println!("server smoke OK ({served} requests served)");
}
