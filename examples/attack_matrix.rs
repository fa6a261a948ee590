//! The scenario matrix over TCP: {filter family} × {attack} × {hardened?}.
//!
//! This is the paper's Table 2 run against live servers instead of local
//! filters. For each non-plain family the same crafted traffic is delivered
//! to an unhardened and a hardened deployment over the wire, and the drift
//! is measured remotely:
//!
//! * **counting × chosen insertions** — pollution drift: the unhardened
//!   server's false-positive rate leaves the honest curve, the hardened one
//!   stays at ~1.0x;
//! * **counting × deletion adversary** — `MDELETE` frames crafted against a
//!   public mirror evict a victim item (a false *negative*) from the
//!   unhardened server; the identical frames cannot find the victim's cells
//!   on the hardened one;
//! * **counting × ghost forgery** — a query-only adversary forges
//!   never-inserted items that the unhardened server answers "present" for
//!   over `MQUERY`; against the hardened server the same ghosts hit at the
//!   honest false-positive rate;
//! * **scalable × chosen insertions** — same pollution drift measurement on
//!   the growing family;
//! * **scalable × forced growth** — overfilling over the wire forces new
//!   slices, and the memory amplification is visible to a remote operator
//!   through `STATS`.
//!
//! Run with: `cargo run --release --example attack_matrix`

use std::sync::Arc;

use evilbloom::server::{ClientPool, Server, ServerConfig, ServerHandle, POOL_FRAME_ITEMS};
use evilbloom::store::{
    craft_store_pollution, forge_store_ghosts, plan_store_deletion, BackendKind, BloomStore,
    ConcurrentCountingFilter, ConcurrentScalableFilter, FilterBackend,
};
use evilbloom::urlgen::UrlGenerator;

const SHARDS: usize = 4;
const CAPACITY: u64 = 4_000;
const TARGET_FPP: f64 = 0.01;
/// Public URL corpus the honest service indexes (known to the adversary).
const CORPUS: u64 = 1_200;
/// Chosen insertions the adversary crafts and delivers over the wire.
const CRAFTED: usize = 1_800;
/// Non-member probes per false-positive measurement.
const PROBES: u64 = 200_000;
/// Pooled connections the adversary stripes its frames over.
const POOL: usize = 3;
/// Offline crafting budget.
const CRAFT_BUDGET: u64 = 500_000_000;

fn counting_store(hardened: bool, seed: u64) -> BloomStore<ConcurrentCountingFilter> {
    let builder =
        BloomStore::builder().shards(SHARDS).capacity(CAPACITY).target_fpp(TARGET_FPP).seed(seed);
    let builder = if hardened { builder.hardened() } else { builder.unhardened() };
    builder.counting(4).build()
}

fn scalable_store(hardened: bool, seed: u64) -> BloomStore<ConcurrentScalableFilter> {
    let builder =
        BloomStore::builder().shards(SHARDS).capacity(CAPACITY).target_fpp(TARGET_FPP).seed(seed);
    let builder = if hardened { builder.hardened() } else { builder.unhardened() };
    builder.scalable(0.9).build()
}

fn spawn<B: FilterBackend + 'static>(store: BloomStore<B>) -> (ServerHandle, ClientPool) {
    let handle = Server::spawn(Arc::new(store), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let pool = ClientPool::connect(handle.local_addr(), POOL).expect("connect pool");
    (handle, pool)
}

/// Inserts `count` URLs from `namespace` through batch `MINSERT` frames.
fn load(pool: &mut ClientPool, namespace: &str, count: u64) {
    let generator = UrlGenerator::new(namespace);
    let urls: Vec<String> = (0..count).map(|i| generator.url(i)).collect();
    pool.minsert_pooled(&urls, POOL_FRAME_ITEMS).expect("remote MINSERT");
}

/// Observed false-positive rate over `PROBES` non-member URLs.
fn remote_fpp(pool: &mut ClientPool) -> f64 {
    let generator = UrlGenerator::new("probe-nonmember");
    let probes: Vec<String> = (0..PROBES).map(|i| generator.url(i)).collect();
    let answers = pool.mquery_pooled(&probes, POOL_FRAME_ITEMS).expect("remote MQUERY");
    answers.iter().filter(|&&a| a).count() as f64 / PROBES as f64
}

/// The chosen-insertion arm of the matrix for one family: delivers the same
/// crafted items to an unhardened and a hardened server and returns their
/// drift ratios against an honest baseline at identical total load.
fn pollution_drift<B: FilterBackend + 'static>(
    family: &str,
    mk: impl Fn(bool, u64) -> BloomStore<B>,
) -> (f64, f64) {
    let (baseline_handle, mut baseline) = spawn(mk(true, 3));
    load(&mut baseline, "public-web", CORPUS);
    load(&mut baseline, "extra-honest", CRAFTED as u64);
    let baseline_fpp = remote_fpp(&mut baseline);
    drop(baseline);
    baseline_handle.shutdown();

    let (unhardened_handle, mut unhardened) = spawn(mk(false, 2));
    let (hardened_handle, mut hardened) = spawn(mk(true, 2));
    load(&mut unhardened, "public-web", CORPUS);
    load(&mut hardened, "public-web", CORPUS);

    // The adversary mirrors the unhardened server offline (public corpus,
    // public key-free routing and indexes) and crafts items that each set
    // `k` fresh bits. The same bytes then hit both deployments.
    let mirror = mk(false, 777);
    let generator = UrlGenerator::new("public-web");
    let corpus: Vec<String> = (0..CORPUS).map(|i| generator.url(i)).collect();
    mirror.insert_batch(&corpus);
    let plan = craft_store_pollution(
        &mirror,
        &UrlGenerator::new(&format!("evil-{family}")),
        CRAFTED,
        CRAFT_BUDGET,
    )
    .expect("unhardened stores can be mirrored");
    assert_eq!(plan.items.len(), CRAFTED, "crafting search exhausted its budget");
    unhardened.minsert_pooled(&plan.items, POOL_FRAME_ITEMS).expect("crafted MINSERT");
    hardened.minsert_pooled(&plan.items, POOL_FRAME_ITEMS).expect("crafted MINSERT");

    let unhardened_ratio = remote_fpp(&mut unhardened) / baseline_fpp;
    let hardened_ratio = remote_fpp(&mut hardened) / baseline_fpp;
    println!(
        "{family:<8} chosen insertions : unhardened {unhardened_ratio:.1}x honest, \
         hardened {hardened_ratio:.1}x honest"
    );

    drop(unhardened);
    drop(hardened);
    unhardened_handle.shutdown();
    hardened_handle.shutdown();
    (unhardened_ratio, hardened_ratio)
}

/// The deletion arm: crafted `MDELETE` frames evict a victim from the
/// unhardened counting server; on the hardened server the identical frames
/// decrement unrelated cells and the victim survives.
fn deletion_eviction() {
    let victim = b"http://victim.example/delisted";
    // The plan is pure geometry, computed once against a public mirror.
    let mirror = counting_store(false, 777);
    let plan = plan_store_deletion(&mirror, victim, &UrlGenerator::new("evict"), CRAFT_BUDGET)
        .expect("unhardened stores can be mirrored");
    assert!(!plan.items.is_empty(), "deletion plan must cover the victim");

    for hardened_posture in [false, true] {
        let (handle, mut pool) = spawn(counting_store(hardened_posture, 2));
        load(&mut pool, "public-web", CORPUS);
        let mut client = pool.checkout_validated().expect("lane");
        client.insert(victim).expect("insert victim");
        assert!(client.query(victim).expect("query"), "victim starts present");

        // Shared cells may hold counts above one, so the adversary replays
        // the plan a few times (the paper's "deletion of an item may require
        // other deletions" caveat).
        let mut rounds = 0;
        while client.query(victim).expect("query") && rounds < 8 {
            client.delete_batch(&plan.items).expect("crafted MDELETE");
            rounds += 1;
        }
        let evicted = !client.query(victim).expect("query");
        let posture = if hardened_posture { "hardened" } else { "unhardened" };
        println!(
            "counting deletion adversary: {posture} victim {} after {rounds} round(s)",
            if evicted { "EVICTED (false negative)" } else { "survives" }
        );
        if hardened_posture {
            assert!(!evicted, "keyed indexes must hide the victim's cells");
        } else {
            assert!(evicted, "the unhardened victim must become a false negative");
        }
        pool.checkin(client);
        drop(pool);
        handle.shutdown();
    }
}

/// The ghost-forgery arm (query-only adversary, Section 4.2): never-inserted
/// items forged against a mirror of the unhardened server's state all answer
/// "present" over `MQUERY`; against the hardened server the same ghosts are
/// just random probes and hit at the honest false-positive rate.
fn ghost_forgery() {
    const GHOSTS: usize = 200;
    let mirror = counting_store(false, 777);
    let generator = UrlGenerator::new("public-web");
    let corpus: Vec<String> = (0..CORPUS).map(|i| generator.url(i)).collect();
    mirror.insert_batch(&corpus);
    let forged = forge_store_ghosts(&mirror, &UrlGenerator::new("ghost"), GHOSTS, CRAFT_BUDGET)
        .expect("unhardened stores can be mirrored");
    assert_eq!(forged.items.len(), GHOSTS, "forgery search exhausted its budget");

    let mut rates = [0.0f64; 2];
    for (slot, hardened_posture) in [false, true].into_iter().enumerate() {
        let (handle, mut pool) = spawn(counting_store(hardened_posture, 2));
        load(&mut pool, "public-web", CORPUS);
        let answers = pool.mquery_pooled(&forged.items, POOL_FRAME_ITEMS).expect("remote MQUERY");
        rates[slot] = answers.iter().filter(|&&a| a).count() as f64 / GHOSTS as f64;
        drop(pool);
        handle.shutdown();
    }
    println!(
        "counting ghost forgery     : unhardened {:.0}% of ghosts answer present, \
         hardened {:.1}%",
        rates[0] * 100.0,
        rates[1] * 100.0
    );
    assert_eq!(rates[0], 1.0, "the mirror is exact, so every ghost must forge");
    assert!(rates[1] < 0.05, "hardened ghosts are random probes (got {:.3})", rates[1]);
}

/// The forced-growth arm: overfilling a scalable server over the wire
/// forces new slices, and the amplification is remotely visible in `STATS`.
fn forced_growth() {
    let (handle, mut pool) = spawn(scalable_store(false, 2));
    let before = pool.with_connection(|c| c.stats()).expect("stats");
    assert_eq!(before.backend, BackendKind::Scalable);
    let m_before: u64 = before.shards.iter().map(|s| s.m).sum();

    // Three times the configured capacity: every shard must grow slices.
    load(&mut pool, "overfill", 3 * CAPACITY);
    let after = pool.with_connection(|c| c.stats()).expect("stats");
    let m_after: u64 = after.shards.iter().map(|s| s.m).sum();
    println!(
        "scalable forced growth    : {m_before} -> {m_after} bits over STATS \
         ({:.1}x memory)",
        m_after as f64 / m_before as f64
    );
    assert!(m_after > m_before, "forced growth must be visible to a remote operator");
    assert_eq!(after.total_inserted, 3 * CAPACITY);

    drop(pool);
    handle.shutdown();
}

fn main() {
    println!(
        "attack matrix over TCP: {SHARDS} shards, capacity {CAPACITY}, corpus {CORPUS}, \
         {CRAFTED} crafted items, {PROBES} probes\n"
    );

    let (unhardened, hardened) = pollution_drift("counting", counting_store);
    assert!(unhardened >= 3.0, "counting drift must be measurable over TCP (got {unhardened:.2}x)");
    assert!(hardened <= 1.35, "hardened counting must stay ~1.0x (got {hardened:.2}x)");

    let (unhardened, hardened) = pollution_drift("scalable", scalable_store);
    assert!(unhardened >= 3.0, "scalable drift must be measurable over TCP (got {unhardened:.2}x)");
    assert!(hardened <= 1.35, "hardened scalable must stay ~1.0x (got {hardened:.2}x)");

    deletion_eviction();
    ghost_forgery();
    forced_growth();
    println!("\nattack matrix demonstrated over TCP");
}
