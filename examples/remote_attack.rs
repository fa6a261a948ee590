//! The paper's threat model, end to end over TCP: a *remote* chosen-insertion
//! adversary degrades an unhardened Bloom-filter service purely through the
//! wire protocol, while a hardened server under the identical attack stays
//! on the honest curve.
//!
//! The scenario mirrors the paper's web-crawler setting: the service indexes
//! a *public* URL corpus (so the adversary knows exactly what was inserted),
//! and the unhardened deployment uses public, key-free routing and index
//! derivation. The adversary therefore rebuilds the server's state in a
//! local mirror — no access beyond the public corpus and the source code —
//! crafts items whose `k` indexes all land on unset bits, and delivers them
//! with pipelined `MINSERT` frames like any other client, striped over a
//! small pool of connections (`ClientPool`) the way a real crawler-facing
//! client would spread its load. The hardened server's keyed
//! routing/indexes make the mirror impossible; the same crafted traffic is
//! no better than random there.
//!
//! Run with: `cargo run --release --example remote_attack`

use std::sync::Arc;

use evilbloom::server::{ClientPool, Server, ServerConfig, ServerHandle, POOL_FRAME_ITEMS};
use evilbloom::store::{craft_store_pollution, BloomStore};
use evilbloom::urlgen::UrlGenerator;

const SHARDS: usize = 8;
const CAPACITY: u64 = 8_000;
const TARGET_FPP: f64 = 0.01;
/// Public URL corpus the honest service indexes (known to the adversary).
const CORPUS: u64 = 6_000;
/// Chosen insertions the adversary crafts and delivers over the wire.
const CRAFTED: usize = 4_000;
/// Non-member probes per false-positive measurement.
const PROBES: u64 = 60_000;
/// Pooled connections the adversary stripes its frames over.
const POOL: usize = 4;
/// Offline crafting budget (the run needs ~22M evaluations).
const CRAFT_BUDGET: u64 = 500_000_000;

fn spawn_server(hardened: bool, seed: u64) -> (ServerHandle, ClientPool) {
    let builder =
        BloomStore::builder().shards(SHARDS).capacity(CAPACITY).target_fpp(TARGET_FPP).seed(seed);
    let builder = if hardened { builder.hardened() } else { builder.unhardened() };
    let store = Arc::new(builder.build());
    let handle =
        Server::spawn(store, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let pool = ClientPool::connect(handle.local_addr(), POOL).expect("connect pool");
    (handle, pool)
}

/// Inserts `count` URLs from `namespace` through batch `MINSERT` frames.
fn load_remote(pool: &mut ClientPool, namespace: &str, count: u64) {
    let generator = UrlGenerator::new(namespace);
    let urls: Vec<String> = (0..count).map(|i| generator.url(i)).collect();
    send_batches(pool, &urls);
}

/// Delivers `items` as batch `MINSERT` traffic (the pool stripes the frames
/// over several sockets, all in flight before the first response).
fn send_batches(pool: &mut ClientPool, items: &[String]) {
    pool.minsert_pooled(items, POOL_FRAME_ITEMS).expect("remote MINSERT");
}

/// Observed false-positive rate over `PROBES` non-member URLs, measured
/// through `MQUERY` frames.
fn remote_fpp(pool: &mut ClientPool) -> f64 {
    let generator = UrlGenerator::new("probe-nonmember");
    let probes: Vec<String> = (0..PROBES).map(|i| generator.url(i)).collect();
    let answers = pool.mquery_pooled(&probes, POOL_FRAME_ITEMS).expect("remote MQUERY");
    answers.iter().filter(|&&a| a).count() as f64 / PROBES as f64
}

fn main() {
    println!(
        "available_parallelism: {}",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    println!(
        "remote chosen-insertion attack: {SHARDS} shards, capacity {CAPACITY}, \
         corpus {CORPUS}, {CRAFTED} crafted items, {PROBES} probes, \
         {POOL} pooled connections\n"
    );

    // Honest baseline: a server carrying the same *total* load, all honest.
    let (baseline_handle, mut baseline) = spawn_server(true, 3);
    load_remote(&mut baseline, "public-web", CORPUS);
    load_remote(&mut baseline, "extra-honest", CRAFTED as u64);
    let baseline_fpp = remote_fpp(&mut baseline);
    drop(baseline);
    baseline_handle.shutdown();
    println!("honest baseline at the same load      : {baseline_fpp:.5}");

    // The victims: one unhardened (the attacked deployments' posture), one
    // hardened (Section 8), both serving the public corpus.
    let (unhardened_handle, mut unhardened) = spawn_server(false, 2);
    let (hardened_handle, mut hardened) = spawn_server(true, 2);
    load_remote(&mut unhardened, "public-web", CORPUS);
    load_remote(&mut hardened, "public-web", CORPUS);

    // The adversary's side: rebuild the unhardened server's state in a local
    // mirror (routing and index derivation are public and key-free, and the
    // corpus is public), then craft items offline. Any seed works — an
    // unhardened store has no secrets.
    let mirror = BloomStore::builder()
        .shards(SHARDS)
        .capacity(CAPACITY)
        .target_fpp(TARGET_FPP)
        .unhardened()
        .seed(777)
        .build();
    let corpus_generator = UrlGenerator::new("public-web");
    let corpus: Vec<String> = (0..CORPUS).map(|i| corpus_generator.url(i)).collect();
    mirror.insert_batch(&corpus);
    let plan = craft_store_pollution(&mirror, &UrlGenerator::new("evil"), CRAFTED, CRAFT_BUDGET)
        .expect("unhardened stores can be mirrored");
    assert_eq!(plan.items.len(), CRAFTED, "crafting search exhausted its budget");
    println!(
        "offline crafting against the mirror   : {} hash evaluations for {CRAFTED} items",
        plan.stats.attempts
    );

    // Deliver the identical crafted traffic to both servers over the wire.
    send_batches(&mut unhardened, &plan.items);
    send_batches(&mut hardened, &plan.items);

    let attacked_unhardened = remote_fpp(&mut unhardened);
    let attacked_hardened = remote_fpp(&mut hardened);
    let unhardened_ratio = attacked_unhardened / baseline_fpp;
    let hardened_ratio = attacked_hardened / baseline_fpp;
    println!(
        "unhardened server after the attack    : {attacked_unhardened:.5}  ({unhardened_ratio:.1}x honest)"
    );
    println!(
        "hardened server after the same attack : {attacked_hardened:.5}  ({hardened_ratio:.1}x honest)"
    );

    // STATS carries the pollution alarms to the (remote) operator.
    let unhardened_stats = unhardened.with_connection(|c| c.stats()).expect("stats");
    let hardened_stats = hardened.with_connection(|c| c.stats()).expect("stats");
    println!(
        "pollution alarms over STATS           : unhardened {}/{SHARDS}, hardened {}/{SHARDS}",
        unhardened_stats.alarms, hardened_stats.alarms
    );

    assert!(
        unhardened_ratio >= 4.0,
        "remote attack must degrade the unhardened server at least 4x (got {unhardened_ratio:.2}x)"
    );
    assert!(
        hardened_ratio <= 1.3,
        "hardened server must stay near the honest curve (got {hardened_ratio:.2}x)"
    );
    assert!(unhardened_stats.alarms > 0, "the attacked store must raise alarms");
    assert_eq!(hardened_stats.alarms, 0, "the hardened store must not alarm");

    // Incident response over the wire: rotate every shard, replay the
    // corpus, complete — the polluted generations are dropped remotely.
    unhardened
        .with_connection(|c| (0..SHARDS as u32).try_for_each(|s| c.rotate_begin(s).map(drop)))
        .expect("rotate begin");
    load_remote(&mut unhardened, "public-web", CORPUS);
    unhardened
        .with_connection(|c| (0..SHARDS as u32).try_for_each(|s| c.rotate_complete(s).map(drop)))
        .expect("rotate complete");
    let rotated_fpp = remote_fpp(&mut unhardened);
    println!(
        "unhardened after ROTATE + replay      : {rotated_fpp:.5}  \
         (damage control only — the adversary can simply re-craft)"
    );

    drop(unhardened);
    drop(hardened);
    unhardened_handle.shutdown();
    hardened_handle.shutdown();
    println!("\nremote attack demonstrated: >= 4x drift over TCP, hardened posture held");
}
