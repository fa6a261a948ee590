//! Watches the `TRACE` forensic surface attribute a chosen-insertion
//! pollution attack to the one connection that carried it, sized for CI.
//!
//! One unhardened server receives traffic from five connections: four
//! honest clients inserting random URLs, and one attacker replaying a
//! crafted pollution set (every item's every index landing on a
//! currently-zero bit, the paper's attack). The forensic signal is the
//! per-connection fresh-bits-per-insert EWMA the server maintains from the
//! fresh-bit counts its own responses already carry:
//!
//! * the honest connections' EWMAs decay toward `k · (1 − fill)` as the
//!   filter fills;
//! * the attacker's EWMA pins at `k`, so its conn id rises to rank 1 of
//!   the suspect table — attribution, not just detection.
//!
//! The smoke drives the full incident timeline: honest warm-up → attack →
//! a `TRACE` scrape that samples the store (tripping the pollution alarm)
//! → operator rotates the alarming shard → a final scrape. It asserts the
//! attacker's conn id ranks top-1 with every honest connection below it,
//! and that the flight recorder replays the alarm → rotate-begin →
//! rotate-complete sequence in order.
//!
//! Run with: `cargo run --release --example forensics_watch`

use std::sync::Arc;

use evilbloom::server::{Client, Server, ServerConfig, ServerHandle, TraceEvent, WireTrace};
use evilbloom::store::{craft_store_pollution, BloomStore};
use evilbloom::urlgen::UrlGenerator;

const SHARDS: usize = 4;
const CAPACITY: u64 = 4_000;
const TARGET_FPP: f64 = 0.01;
/// Honest warm-up inserts, split over the four honest connections.
const HONEST: usize = 2_000;
/// Crafted attack inserts: enough that the per-shard weight crosses the
/// pollution-alarm midpoint between the honest and adversarial curves.
const ATTACK: usize = 1_200;
const BATCH: usize = 100;
const HONEST_CONNS: usize = 4;

fn spawn() -> (ServerHandle, Arc<BloomStore>) {
    let store = Arc::new(
        BloomStore::builder()
            .shards(SHARDS)
            .capacity(CAPACITY)
            .target_fpp(TARGET_FPP)
            .unhardened()
            .seed(42)
            .build(),
    );
    let handle = Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    (handle, store)
}

/// Connects one client and pings it. The ping forces the server to fully
/// register the connection (allocating its forensic conn id) before the
/// next connect is accepted, so ids are deterministic: honest connections
/// get 1..=4 in connect order, the attacker gets 5.
fn connect(handle: &ServerHandle) -> Client {
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.ping().expect("ping");
    client
}

fn seq_of(trace: &WireTrace, want: &TraceEvent) -> u64 {
    trace
        .events
        .iter()
        .find(|e| e.event == *want)
        .unwrap_or_else(|| panic!("event {want:?} missing from trace:\n{}", trace.render()))
        .seq
}

fn main() {
    // Craft the pollution set against a mirror of the server's exact state
    // at attack time: same config, same seed, same honest warm-up — the
    // reconstruction the paper's remote adversary performs from public
    // parameters.
    let mirror = BloomStore::builder()
        .shards(SHARDS)
        .capacity(CAPACITY)
        .target_fpp(TARGET_FPP)
        .unhardened()
        .seed(42)
        .build();
    let honest: Vec<String> =
        (0..HONEST).map(|i| format!("https://honest.example/page/{i}")).collect();
    for url in &honest {
        mirror.insert(url.as_bytes());
    }
    let plan =
        craft_store_pollution(&mirror, &UrlGenerator::new("evil.example"), ATTACK, 8_000_000)
            .expect("unhardened mirror yields an adversarial view");
    assert_eq!(plan.items.len(), ATTACK, "crafting fell short");

    let (handle, _store) = spawn();

    // Honest connections first (conn ids 1..=4), then the attacker (5).
    let mut honest_clients: Vec<Client> = (0..HONEST_CONNS).map(|_| connect(&handle)).collect();
    let mut attacker = connect(&handle);
    let attacker_id = (HONEST_CONNS + 1) as u64;

    // Honest warm-up: round-robin the batches over the honest connections
    // so each accumulates a decaying fresh-bits EWMA.
    for (i, chunk) in honest.chunks(BATCH).enumerate() {
        honest_clients[i % HONEST_CONNS].insert_batch(chunk).expect("honest minsert");
    }
    // The attack: crafted batches on the one attacking connection.
    for chunk in plan.items.chunks(BATCH) {
        attacker.insert_batch(chunk).expect("attack minsert");
    }

    // First scrape: samples the store, detecting (and recording) the
    // pollution alarm the crafted weight tripped.
    let mid = honest_clients[0].trace().expect("trace");
    let alarm_shard = mid
        .events
        .iter()
        .find_map(|e| match e.event {
            TraceEvent::AlarmTripped { shard } => Some(shard),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no pollution alarm in trace:\n{}", mid.render()));
    println!("alarm tripped on shard {alarm_shard}; rotating it");

    // The operator's response: rotate the alarming shard.
    let generation = honest_clients[0]
        .rotate_begin(alarm_shard as u32)
        .expect("rotate begin")
        .expect("shard was not already rotating");
    assert!(honest_clients[0].rotate_complete(alarm_shard as u32).expect("rotate complete"));

    // Final scrape: the full incident timeline plus the suspect ranking.
    let trace = honest_clients[0].trace().expect("trace");
    println!("{}", trace.render());

    // Attribution: the attacker's conn id ranks top-1, every honest
    // connection strictly below it.
    assert!(!trace.suspects.is_empty(), "empty suspect table");
    assert_eq!(
        trace.suspects[0].conn_id, attacker_id,
        "suspect rank 1 is conn {} (ewma {:.3}), expected the attacker conn {attacker_id}",
        trace.suspects[0].conn_id, trace.suspects[0].ewma_bits_per_item
    );
    for row in &trace.suspects[1..] {
        assert!(
            row.ewma_bits_per_item < trace.suspects[0].ewma_bits_per_item,
            "conn {} ties the attacker's EWMA {:.3}",
            row.conn_id,
            trace.suspects[0].ewma_bits_per_item
        );
    }
    assert_eq!(trace.suspects.len(), HONEST_CONNS + 1, "expected all five connections ranked");

    // The recorder replays the incident in order: alarm, then the
    // operator's rotation begin/complete.
    let alarm_seq = seq_of(&trace, &TraceEvent::AlarmTripped { shard: alarm_shard });
    let begin_seq = seq_of(&trace, &TraceEvent::RotationBegun { shard: alarm_shard, generation });
    let complete_seq = seq_of(&trace, &TraceEvent::RotationCompleted { shard: alarm_shard });
    assert!(
        alarm_seq < begin_seq && begin_seq < complete_seq,
        "incident out of order: alarm #{alarm_seq}, begin #{begin_seq}, complete #{complete_seq}"
    );

    println!(
        "forensics_watch: attacker conn {attacker_id} ranked #1 \
         (ewma {:.3} vs honest best {:.3}); alarm -> rotation sequence confirmed",
        trace.suspects[0].ewma_bits_per_item, trace.suspects[1].ewma_bits_per_item
    );

    drop(honest_clients);
    drop(attacker);
    handle.shutdown();
}
