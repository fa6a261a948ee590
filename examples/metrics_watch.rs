//! Watches the wire-exposed drift telemetry separate honest load from a
//! chosen-insertion pollution attack, sized for CI.
//!
//! Two in-process servers — one **unhardened** (public Murmur3 indexes, the
//! paper's victim) and one **hardened** (keyed SipHash routing and index
//! derivation) — receive the same traffic while this process polls the
//! `METRICS` opcode after every batch, exactly as a dashboard scraper
//! would. The signal under watch is fresh bits flipped per insert:
//!
//! * honest inserts set ≈ `k · (1 − fill)` fresh bits — the slope *decays*
//!   as the filter fills;
//! * the paper's crafted insertions (each item's every index landing on a
//!   currently-zero bit) set ≈ `k` fresh bits each — the slope *pins* at
//!   `k`, an anomaly that widens as fill grows (Table 2's pollution
//!   speed-up, seen from the operations side).
//!
//! The smoke asserts the separation: on the unhardened server the attack
//! phase's bits-per-insert slope rises well above the honest tail; on the
//! hardened server the very same crafted bytes behave like random items
//! and the slope keeps decaying.
//!
//! Run with: `cargo run --release --example metrics_watch`

use std::sync::Arc;

use evilbloom::server::{Client, Server, ServerConfig, ServerHandle};
use evilbloom::store::{craft_store_pollution, BloomStore};
use evilbloom::urlgen::UrlGenerator;

const SHARDS: usize = 4;
const CAPACITY: u64 = 4_000;
const TARGET_FPP: f64 = 0.01;
/// Honest warm-up inserts (fills the filters enough for the honest slope
/// to visibly decay below `k`).
const HONEST: usize = 2_000;
/// Crafted (or crafted-elsewhere, for the hardened server) attack inserts.
const ATTACK: usize = 600;
const BATCH: usize = 100;

fn spawn(hardened: bool) -> (ServerHandle, Arc<BloomStore>) {
    let builder =
        BloomStore::builder().shards(SHARDS).capacity(CAPACITY).target_fpp(TARGET_FPP).seed(42);
    let builder = if hardened { builder.hardened() } else { builder.unhardened() };
    let store = Arc::new(builder.build());
    let handle = Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    (handle, store)
}

/// One scraped sample of the drift-relevant counters.
#[derive(Clone, Copy)]
struct Sample {
    inserts: u64,
    fresh_bits: u64,
    gauge: f64,
}

/// Polls `METRICS` and extracts the drift counters from the exposition.
fn scrape(client: &mut Client) -> Sample {
    let text = client.metrics().expect("METRICS scrape");
    let value = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{text}"))
    };
    Sample {
        inserts: value("evilbloom_store_inserts_total") as u64,
        fresh_bits: value("evilbloom_store_fresh_bits_total") as u64,
        gauge: value("evilbloom_store_bits_per_insert_recent"),
    }
}

/// Fresh bits per insert between two scrapes.
fn slope(from: Sample, to: Sample) -> f64 {
    let inserts = to.inserts - from.inserts;
    assert!(inserts > 0, "phase inserted nothing");
    (to.fresh_bits - from.fresh_bits) as f64 / inserts as f64
}

/// Inserts `items` in `BATCH`-sized `MINSERT` frames, scraping after every
/// batch (feeding the server's sliding drift window like a real poller).
fn drive(client: &mut Client, items: &[String]) -> Sample {
    let mut last = scrape(client);
    for chunk in items.chunks(BATCH) {
        client.insert_batch(chunk).expect("minsert");
        last = scrape(client);
    }
    last
}

struct Run {
    honest_tail: f64,
    attack: f64,
    final_gauge: f64,
}

/// Feeds one server the honest warm-up then the attack set, returning the
/// honest-tail and attack-phase slopes.
fn run(hardened: bool, attack_items: &[String]) -> Run {
    let (handle, _store) = spawn(hardened);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let honest: Vec<String> =
        (0..HONEST).map(|i| format!("https://honest.example/page/{i}")).collect();
    // Honest phase, with a marked tail: the last quarter of the warm-up is
    // the "recent honest" baseline the attack slope is compared against.
    let split = HONEST * 3 / 4;
    drive(&mut client, &honest[..split]);
    let tail_start = scrape(&mut client);
    let tail_end = drive(&mut client, &honest[split..]);
    let honest_tail = slope(tail_start, tail_end);

    let attack_end = drive(&mut client, attack_items);
    let attack = slope(tail_end, attack_end);

    handle.shutdown();
    Run { honest_tail, attack, final_gauge: attack_end.gauge }
}

fn main() {
    // Craft the pollution set against a mirror of the unhardened store's
    // exact state at attack time: same config, same seed, same honest
    // warm-up. The paper's remote adversary reconstructs this mirror from
    // public parameters; the hardened store's keyed indexes make that
    // reconstruction impossible, so the same bytes hit it like noise.
    let mirror = BloomStore::builder()
        .shards(SHARDS)
        .capacity(CAPACITY)
        .target_fpp(TARGET_FPP)
        .unhardened()
        .seed(42)
        .build();
    for i in 0..HONEST {
        mirror.insert(format!("https://honest.example/page/{i}").as_bytes());
    }
    let plan =
        craft_store_pollution(&mirror, &UrlGenerator::new("evil.example"), ATTACK, 4_000_000)
            .expect("unhardened mirror yields an adversarial view");
    assert_eq!(plan.items.len(), ATTACK, "crafting fell short");

    let unhardened = run(false, &plan.items);
    let hardened = run(true, &plan.items);

    println!(
        "unhardened: honest tail {:.3} bits/insert -> attack {:.3} (gauge {:.3})",
        unhardened.honest_tail, unhardened.attack, unhardened.final_gauge
    );
    println!(
        "hardened:   honest tail {:.3} bits/insert -> attack {:.3} (gauge {:.3})",
        hardened.honest_tail, hardened.attack, hardened.final_gauge
    );

    // The separation the telemetry exists to surface: chosen insertions pin
    // the unhardened slope near k while the honest slope has decayed.
    assert!(
        unhardened.attack > unhardened.honest_tail * 1.25,
        "unhardened attack slope {:.3} does not stand out from honest tail {:.3}",
        unhardened.attack,
        unhardened.honest_tail
    );
    // On the hardened server the same bytes are just more honest-ish load:
    // the slope keeps decaying instead of rising.
    assert!(
        hardened.attack <= hardened.honest_tail * 1.10,
        "hardened attack slope {:.3} rose above honest tail {:.3}",
        hardened.attack,
        hardened.honest_tail
    );
    // And the wire-exposed gauge itself ranks the two servers correctly.
    assert!(
        unhardened.final_gauge > hardened.final_gauge,
        "drift gauge failed to rank unhardened ({:.3}) above hardened ({:.3})",
        unhardened.final_gauge,
        hardened.final_gauge
    );

    println!("metrics_watch: drift separation confirmed");
}
