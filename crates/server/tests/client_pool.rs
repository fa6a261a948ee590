//! Tests of the client-side connection pool: checkout/checkin reuse,
//! dead-connection replacement after a server restart, and the pipelined
//! pooled batch helpers.

use std::sync::Arc;

use evilbloom_server::{ClientPool, Server, ServerConfig, ServerHandle};
use evilbloom_store::BloomStore;

fn spawn() -> (ServerHandle, Arc<BloomStore>) {
    let store = Arc::new(
        BloomStore::builder()
            .shards(4)
            .capacity(8_000)
            .target_fpp(0.01)
            .hardened()
            .seed(42)
            .build(),
    );
    let handle = Server::spawn(store.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    (handle, store)
}

#[test]
fn checkout_checkin_recycles_connections() {
    let (handle, _store) = spawn();
    let mut pool = ClientPool::connect(handle.local_addr(), 2).expect("pool");
    assert_eq!(pool.idle(), 2);

    let mut a = pool.checkout().expect("checkout");
    let mut b = pool.checkout().expect("checkout");
    a.ping().expect("a serves");
    b.ping().expect("b serves");
    // The pool is empty now; a third checkout dials fresh.
    assert_eq!(pool.idle(), 0);
    let mut c = pool.checkout().expect("fresh dial");
    c.ping().expect("c serves");

    pool.checkin(a);
    pool.checkin(b);
    pool.checkin(c); // beyond the target of 2: dropped, not retained
    assert_eq!(pool.idle(), 2);
    handle.shutdown();
}

#[test]
fn dead_connections_are_replaced_on_validated_checkout() {
    let (handle, store) = spawn();
    let addr = handle.local_addr();
    let mut pool = ClientPool::connect(addr, 2).expect("pool");

    // The server restarts under the pool: every pooled connection is dead.
    handle.shutdown();
    let restarted = Server::spawn(store, addr, ServerConfig::default())
        .expect("rebind the same port after shutdown");

    assert_eq!(pool.idle(), 2, "two stale connections are pooled");
    let mut client = pool.checkout_validated().expect("replacement");
    client.ping().expect("the replacement connection reaches the restarted server");
    // Eager replacement: both dead connections were discarded and the pool
    // refilled itself to target in the same checkout, on top of the fresh
    // connection handed to the caller.
    assert_eq!(pool.idle(), 2, "the pool replaced its dead connections eagerly");
    let health = pool.health();
    assert_eq!(health.dead_dropped, 2, "both stale connections failed the probe");
    assert_eq!(health.replacements, 3, "two eager refills plus the handed-out dial");
    pool.checkin(client); // beyond target: dropped
    assert_eq!(pool.idle(), 2);
    restarted.shutdown();
}

#[test]
fn pooled_batch_helpers_stripe_over_sockets() {
    let (handle, store) = spawn();
    let mut pool = ClientPool::connect(handle.local_addr(), 3).expect("pool");

    let members: Vec<String> = (0..2_000).map(|i| format!("pooled-{i}")).collect();
    let fresh = pool.minsert_pooled(&members, 128).expect("pooled minsert");
    assert!(fresh > 0, "fresh bits set");
    assert_eq!(store.stats().total_inserted, 2_000);

    // Probe mix: every member answers true, absent probes almost all
    // false; answers must come back in input order across the lanes.
    let mut probes = members.clone();
    probes.extend((0..500).map(|i| format!("absent-{i}")));
    let answers = pool.mquery_pooled(&probes, 128).expect("pooled mquery");
    assert_eq!(answers.len(), probes.len());
    assert!(answers[..2_000].iter().all(|&a| a), "no false negatives");
    let false_positives = answers[2_000..].iter().filter(|&&a| a).count();
    assert!(false_positives < 50, "{false_positives} false positives");

    // The helpers checked their lanes back in.
    assert_eq!(pool.idle(), 3);
    handle.shutdown();
}

#[test]
fn single_frame_pooled_calls_use_one_lane() {
    let (handle, _store) = spawn();
    let mut pool = ClientPool::connect(handle.local_addr(), 4).expect("pool");
    // Fewer frames than pool target: only one lane is checked out.
    let answers = pool.mquery_pooled(&["a", "b"], 16).expect("single-frame mquery");
    assert_eq!(answers, vec![false, false]);
    assert_eq!(pool.idle(), 4, "lanes were returned");
    handle.shutdown();
}
