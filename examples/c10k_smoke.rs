//! High-connection-count smoke for the epoll reactor, sized for CI: opens
//! 1000 concurrent loopback connections against one server, proves every
//! one of them is *served* (one PING each), then does real batch work while
//! they all stay open. This is the C10k claim scaled to a smoke test.
//!
//! Run with: `cargo run --release --example c10k_smoke`
//! (the process needs a soft fd limit of at least ~2300; the example checks
//! `/proc/self/limits` and scales down rather than crashing into EMFILE).

use std::sync::Arc;
use std::time::{Duration, Instant};

use evilbloom::server::{loopback_connection_budget, Client, Server, ServerConfig};
use evilbloom::store::BloomStore;

const CONNECTIONS: usize = 1000;

fn main() {
    // Belt and braces against hangs: CI also wraps this in `timeout`.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(90));
        eprintln!("c10k_smoke: watchdog fired after 90s, aborting");
        std::process::exit(1);
    });

    let connections = match loopback_connection_budget() {
        Some(budget) if (budget as usize) < CONNECTIONS => {
            eprintln!("fd budget {budget}: scaling down from {CONNECTIONS} connections");
            (budget as usize).max(64)
        }
        _ => CONNECTIONS,
    };

    let store = Arc::new(
        BloomStore::builder()
            .shards(8)
            .capacity(50_000)
            .target_fpp(0.01)
            .hardened()
            .seed(42)
            .build(),
    );
    let handle =
        Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    println!("serving on {}, opening {connections} connections", handle.local_addr());

    let started = Instant::now();
    let mut clients: Vec<Client> = Vec::with_capacity(connections);
    for i in 0..connections {
        clients.push(
            Client::connect(handle.local_addr())
                .unwrap_or_else(|e| panic!("connect {i} failed: {e}")),
        );
        // Pace the storm just below the listen backlog so a single-core
        // host never drops a SYN into a 1s retransmission stall.
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    println!("opened  {connections} connections in {:?}", started.elapsed());

    // Served, not merely accepted: every connection answers a PING.
    let started = Instant::now();
    for (i, client) in clients.iter_mut().enumerate() {
        client.ping().unwrap_or_else(|e| panic!("ping on connection {i} failed: {e}"));
    }
    println!("pinged  {connections} connections in {:?}", started.elapsed());

    // Real work while the whole herd stays open.
    let members: Vec<String> = (0..2_000).map(|i| format!("https://c10k.example/{i}")).collect();
    clients[0].insert_batch(&members).expect("insert under load");
    let answers = clients[connections - 1].query_batch(&members).expect("query under load");
    assert!(answers.iter().all(|&a| a), "no false negatives under load");
    assert_eq!(store.stats().total_inserted, 2_000);

    let served = handle.requests_served();
    assert!(served >= connections as u64 + 2, "only {served} requests recorded");
    drop(clients);
    handle.shutdown();
    println!("c10k smoke OK ({connections} concurrent connections, {served} requests served)");
}
