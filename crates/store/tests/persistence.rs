//! Integration tests for the durability layer: snapshot/WAL roundtrips,
//! crash-shaped recovery, generation-aware replay and decoder robustness.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use evilbloom_fault::{self as fault, ArmedPlan, FaultPlan, FaultPoint};
use evilbloom_filters::ConcurrentCountingFilter;
use evilbloom_hashes::{hex, sha1::sha1};
use evilbloom_store::{
    BackendKind, BloomStore, FilterBackend, PersistConfig, PersistError, RecoveryReport,
};

/// Fault plans are process-wide, so every test here that does WAL or
/// snapshot I/O holds the fault session for its whole run (an empty plan
/// when it injects nothing): a fault armed by one test can then never fire
/// inside another test's I/O.
fn fault_session() -> ArmedPlan {
    fault::arm(FaultPlan::new(0))
}

/// A unique scratch directory per test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("evilbloom-persist-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        drop(fs::remove_dir_all(&self.0));
    }
}

fn unhardened_store() -> BloomStore {
    BloomStore::builder().shards(4).capacity(4_000).target_fpp(0.01).unhardened().seed(7).build()
}

/// `BloomStore::recover` pinned to the default (plain Bloom) backend, so
/// call sites that never bind the store still infer a type.
fn recover(config: &PersistConfig) -> Result<(BloomStore, RecoveryReport), PersistError> {
    BloomStore::recover(config)
}

fn items(prefix: &str, n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("{prefix}-{i}").into_bytes()).collect()
}

/// Asserts two stores answer bit-for-bit identically: same per-shard
/// hamming weight and generation, and identical answers over a probe set
/// that mixes members and non-members.
fn assert_equivalent<B: FilterBackend>(a: &BloomStore<B>, b: &BloomStore<B>, probes: &[Vec<u8>]) {
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(sa.shards.len(), sb.shards.len());
    for (x, y) in sa.shards.iter().zip(&sb.shards) {
        assert_eq!(x.weight, y.weight, "shard {} weight diverged", x.shard);
        assert_eq!(x.generation, y.generation, "shard {} generation diverged", x.shard);
        assert_eq!(x.inserted, y.inserted, "shard {} insert count diverged", x.shard);
    }
    assert_eq!(a.query_batch(probes), b.query_batch(probes));
}

#[test]
fn snapshot_only_roundtrip_is_bit_for_bit() {
    let _faults = fault_session();
    let dir = TempDir::new("roundtrip");
    let mut store = unhardened_store();
    store.insert_batch(&items("member", 800));
    store.enable_persistence(&PersistConfig::snapshot_only(dir.path())).expect("enable");
    let info = store.snapshot_to_disk().expect("snapshot");
    assert_eq!(info.shards, 4);
    assert_eq!(info.wal_seq, 0, "snapshot-only mode records no log to replay");

    let (recovered, report) = recover(&PersistConfig::snapshot_only(dir.path())).expect("recover");
    assert_eq!(report.replayed_inserts, 0);
    let probes: Vec<Vec<u8>> =
        items("member", 800).into_iter().chain(items("absent", 400)).collect();
    assert_equivalent(&store, &recovered, &probes);
    // No false negatives on members, ever.
    assert!(recovered.query_batch(&items("member", 800)).iter().all(|&a| a));
}

#[test]
fn wal_replays_inserts_after_the_last_snapshot() {
    let _faults = fault_session();
    let dir = TempDir::new("replay");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    store.insert_batch(&items("early", 300));
    store.snapshot_to_disk().expect("snapshot");
    // These land only in the WAL tail — the "crash" happens before any
    // further snapshot (no clean shutdown of `store`).
    store.insert_batch(&items("late", 300));
    for item in items("scalar", 50) {
        store.insert(&item);
    }

    let (recovered, report) = recover(&PersistConfig::new(dir.path())).expect("recover");
    assert_eq!(report.replayed_inserts, 350);
    assert!(!report.torn_tail);
    assert_eq!(report.discarded_stale, 0);
    let probes: Vec<Vec<u8>> = items("early", 300)
        .into_iter()
        .chain(items("late", 300))
        .chain(items("scalar", 50))
        .chain(items("absent", 200))
        .collect();
    assert_equivalent(&store, &recovered, &probes);
}

#[test]
fn replay_discards_rotated_out_generations() {
    let _faults = fault_session();
    let dir = TempDir::new("rotation");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    // Pollution lands in generation 0 and is logged there.
    store.insert_batch(&items("pollution", 200));
    // Rotate every shard and replay only the legitimate items.
    let mut rng = StdRng::seed_from_u64(1);
    for shard in 0..4 {
        store.begin_rotation(shard, &mut rng).expect("begin");
    }
    store.insert_batch(&items("legit", 200));
    for shard in 0..4 {
        assert!(store.complete_rotation(shard));
    }

    let (recovered, report) = recover(&PersistConfig::new(dir.path())).expect("recover");
    // Ordered replay re-applies the generation-0 inserts and then replays
    // the rotation that dropped them — ending bit-for-bit where the live
    // store did, with the pollution gone.
    assert_eq!(report.replayed_rotations, 8, "4 begins + 4 completes");
    assert!(recovered.query_batch(&items("legit", 200)).iter().all(|&a| a));
    let probes: Vec<Vec<u8>> =
        items("pollution", 200).into_iter().chain(items("legit", 200)).collect();
    assert_equivalent(&store, &recovered, &probes);
}

#[test]
fn stale_generation_records_in_the_tail_are_discarded() {
    let _faults = fault_session();
    // The snapshot race window: an insert logged to the fresh segment just
    // before the shard copy is both *in* the snapshot and *in* the tail. If
    // a rotation also completed in that window, the tail holds insert
    // records for a generation the snapshot has already rotated out —
    // replaying them would resurrect dropped pollution. Construct that tail
    // explicitly by grafting the generation-0 records onto the live
    // segment after rotating.
    let dir = TempDir::new("stale");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    store.insert_batch(&items("pollution", 200));
    let polluted_segment = wal_segments(dir.path()).pop().expect("a wal segment");
    let stale_records = fs::read(&polluted_segment).expect("read wal")[17..].to_vec();

    let mut rng = StdRng::seed_from_u64(3);
    for shard in 0..4 {
        store.begin_rotation(shard, &mut rng).expect("begin");
        assert!(store.complete_rotation(shard));
    }
    store.insert_batch(&items("legit", 200));
    store.snapshot_to_disk().expect("snapshot reflects the rotation");
    // Inserts after the snapshot keep the tail realistic.
    store.insert_batch(&items("late", 100));

    let live_segment = wal_segments(dir.path()).pop().expect("live segment");
    let mut tail = fs::read(&live_segment).expect("read live segment");
    tail.extend_from_slice(&stale_records);
    fs::write(&live_segment, &tail).expect("graft stale records");

    let (recovered, report) = recover(&PersistConfig::new(dir.path())).expect("recover");
    assert_eq!(report.discarded_stale, 200, "generation-0 records must be discarded");
    assert_eq!(report.replayed_inserts, 100);
    assert!(recovered.query_batch(&items("legit", 200)).iter().all(|&a| a));
    assert!(recovered.query_batch(&items("late", 100)).iter().all(|&a| a));
    // The discarded records resurrect nothing: the recovered store answers
    // exactly like the live one (which dropped the pollution on rotation).
    let probes: Vec<Vec<u8>> = items("pollution", 200)
        .into_iter()
        .chain(items("legit", 200))
        .chain(items("late", 100))
        .collect();
    assert_equivalent(&store, &recovered, &probes);
}

#[test]
fn mid_rotation_snapshot_records_both_generations() {
    let _faults = fault_session();
    let dir = TempDir::new("midrot");
    let mut store = unhardened_store();
    store.insert_batch(&items("old", 300));
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    // Begin (but do not complete) a rotation on shard 0, then snapshot: the
    // snapshot must capture the coherent generation *pair*, not a
    // half-rotated shard.
    let mut rng = StdRng::seed_from_u64(2);
    store.begin_rotation(0, &mut rng).expect("begin");
    store.insert_batch(&items("during", 100));
    store.snapshot_to_disk().expect("mid-rotation snapshot");

    let (recovered, _) = recover(&PersistConfig::new(dir.path())).expect("recover");
    let stats = recovered.stats();
    assert!(stats.shards[0].rotating, "restored shard 0 must still be mid-rotation");
    assert_eq!(stats.shards[0].generation, 1);
    // Old items answer via the restored draining generation; new ones via
    // the active generation.
    let probes: Vec<Vec<u8>> = items("old", 300).into_iter().chain(items("during", 100)).collect();
    assert!(recovered.query_batch(&probes).iter().all(|&a| a));
    assert_equivalent(&store, &recovered, &probes);
    // And the restored pair finishes its rotation normally.
    assert!(recovered.complete_rotation(0));
    assert!(!recovered.stats().shards[0].rotating);
}

#[test]
fn seeded_interleavings_of_rotation_and_snapshot() {
    let _faults = fault_session();
    // Satellite 3: drive every interleaving of (insert*, begin, insert*,
    // snapshot, insert*, complete) deterministically and require recovery
    // to answer every acknowledged insert.
    for seed in 0..8u64 {
        let dir = TempDir::new("interleave");
        let mut store = unhardened_store();
        store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acknowledged: Vec<Vec<u8>> = Vec::new();

        let before = items(&format!("s{seed}-before"), 50);
        store.insert_batch(&before);
        store.begin_rotation((seed % 4) as usize, &mut rng).expect("begin");
        // `before` items on the rotated shard now live in its draining
        // generation; the other shards are untouched.
        let during = items(&format!("s{seed}-during"), 50);
        store.insert_batch(&during);
        acknowledged.extend(during);
        if seed % 2 == 0 {
            store.snapshot_to_disk().expect("snapshot before complete");
        }
        let after = items(&format!("s{seed}-after"), 50);
        store.insert_batch(&after);
        acknowledged.extend(after);
        if seed % 3 == 0 {
            assert!(store.complete_rotation((seed % 4) as usize));
        }
        if seed % 2 == 1 {
            store.snapshot_to_disk().expect("snapshot after insert");
        }

        let (recovered, _) = recover(&PersistConfig::new(dir.path())).expect("recover");
        // Post-rotation inserts must all answer; `before` items only if the
        // rotation never completed — exactly like the live store.
        assert!(
            recovered.query_batch(&acknowledged).iter().all(|&a| a),
            "seed {seed}: lost an acknowledged insert"
        );
        let mut probes = acknowledged;
        probes.extend(before);
        probes.extend(items(&format!("s{seed}-absent"), 50));
        assert_equivalent(&store, &recovered, &probes);
    }
}

#[test]
fn group_commit_fsync_policy_roundtrips() {
    let _faults = fault_session();
    let dir = TempDir::new("fsync");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::fsync(dir.path())).expect("enable");
    store.insert_batch(&items("durable", 100));
    // Concurrent committers exercise the leader/follower group-commit path.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let store = &store;
            scope.spawn(move || {
                for item in items(&format!("thread{t}"), 50) {
                    store.insert(&item);
                }
            });
        }
    });
    let (recovered, report) = recover(&PersistConfig::fsync(dir.path())).expect("recover");
    assert_eq!(report.replayed_inserts, 300);
    for t in 0..4 {
        assert!(recovered.query_batch(&items(&format!("thread{t}"), 50)).iter().all(|&a| a));
    }
    assert_equivalent(&store, &recovered, &items("durable", 100));
}

#[test]
fn snapshot_while_inserting_never_loses_acknowledged_items() {
    let _faults = fault_session();
    // The racy-copy safety argument, end to end: snapshots run concurrently
    // with writers; recovery from snapshot + WAL must answer every insert
    // that completed before the crash point.
    let dir = TempDir::new("racy");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    std::thread::scope(|scope| {
        let store = &store;
        let writer = scope.spawn(move || {
            for item in items("racing", 2_000) {
                store.insert(&item);
            }
        });
        for _ in 0..5 {
            store.snapshot_to_disk().expect("snapshot under load");
        }
        writer.join().expect("writer");
    });
    let (recovered, _) = recover(&PersistConfig::new(dir.path())).expect("recover");
    assert!(recovered.query_batch(&items("racing", 2_000)).iter().all(|&a| a));
    assert_equivalent(&store, &recovered, &items("racing", 2_000));
}

#[test]
fn hardened_store_refuses_persistence() {
    let _faults = fault_session();
    let dir = TempDir::new("hardened");
    let mut store =
        BloomStore::builder().shards(4).capacity(4_000).target_fpp(0.01).hardened().seed(7).build();
    match store.enable_persistence(&PersistConfig::new(dir.path())) {
        Err(PersistError::HardenedStore) => {}
        other => panic!("hardened store must refuse persistence, got {other:?}"),
    }
    assert!(store.persistence().is_none());
}

#[test]
fn double_enable_and_snapshot_without_persistence_are_typed_errors() {
    let _faults = fault_session();
    let dir = TempDir::new("typed");
    let mut store = unhardened_store();
    assert!(matches!(store.snapshot_to_disk(), Err(PersistError::NotPersistent)));
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    assert!(matches!(
        store.enable_persistence(&PersistConfig::new(dir.path())),
        Err(PersistError::AlreadyPersistent)
    ));
}

#[test]
fn recover_from_empty_dir_is_a_typed_error() {
    let _faults = fault_session();
    let dir = TempDir::new("empty");
    assert!(matches!(recover(&PersistConfig::new(dir.path())), Err(PersistError::NoSnapshot)));
}

fn newest_snapshot(dir: &std::path::Path) -> PathBuf {
    let mut snapshots: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "evbs"))
        .collect();
    snapshots.sort();
    snapshots.pop().expect("a snapshot exists")
}

fn wal_segments(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "evbw"))
        .collect();
    segments.sort();
    segments
}

#[test]
fn corrupt_snapshot_is_a_typed_error_not_a_panic() {
    let _faults = fault_session();
    let dir = TempDir::new("corrupt-snap");
    let mut store = unhardened_store();
    store.insert_batch(&items("member", 200));
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    let snapshot = newest_snapshot(dir.path());
    let original = fs::read(&snapshot).expect("read snapshot");

    // Flip one byte at a spread of offsets: every corruption must surface
    // as a typed error (or, for bits the CRC of some record doesn't cover
    // — there are none — recover fine), never panic.
    for offset in (0..original.len()).step_by(97) {
        let mut bytes = original.clone();
        bytes[offset] ^= 0xA5;
        fs::write(&snapshot, &bytes).expect("write corrupted");
        match recover(&PersistConfig::new(dir.path())) {
            Err(
                PersistError::Corrupt { .. }
                | PersistError::BadVersion { .. }
                | PersistError::ConfigMismatch(_),
            ) => {}
            Err(other) => panic!("offset {offset}: unexpected error {other:?}"),
            Ok(_) => panic!("offset {offset}: corruption went undetected"),
        }
    }

    // Truncations at every boundary are equally typed.
    for cut in [0, 1, 4, 5, 9, original.len() / 2, original.len() - 1] {
        fs::write(&snapshot, &original[..cut]).expect("write truncated");
        match recover(&PersistConfig::new(dir.path())) {
            Err(PersistError::Corrupt { .. } | PersistError::BadVersion { .. }) => {}
            other => panic!("cut {cut}: expected a corruption error, got {other:?}"),
        }
    }

    fs::write(&snapshot, &original).expect("restore");
    recover(&PersistConfig::new(dir.path())).expect("pristine snapshot recovers");
}

/// Saves every file in `dir`, so destructive recovery runs (which fold and
/// prune) can be rolled back between property-test iterations.
fn save_dir(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| (e.path(), fs::read(e.path()).expect("read file")))
        .collect()
}

fn restore_dir(dir: &std::path::Path, saved: &[(PathBuf, Vec<u8>)]) {
    for entry in fs::read_dir(dir).expect("read dir").flatten() {
        fs::remove_file(entry.path()).expect("clear dir");
    }
    for (path, bytes) in saved {
        fs::write(path, bytes).expect("restore file");
    }
}

#[test]
fn truncated_wal_tail_recovers_the_prefix() {
    let _faults = fault_session();
    let dir = TempDir::new("torn");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    for item in items("logged", 100) {
        store.insert(&item);
    }
    let tail = wal_segments(dir.path()).pop().expect("a wal segment");
    let original = fs::read(&tail).expect("read wal");
    let saved = save_dir(dir.path());

    // Cut the live segment at a spread of byte boundaries: recovery must
    // never panic and must answer every insert whose record survived.
    for cut in (17..original.len()).step_by(53) {
        restore_dir(dir.path(), &saved);
        fs::write(&tail, &original[..cut]).expect("write torn");
        let (recovered, report) =
            recover(&PersistConfig::new(dir.path())).expect("torn tail is a clean cut");
        assert!(report.replayed_inserts <= 100, "cut {cut}");
        // Prefix property: records are in insert order, so exactly the
        // first `replayed_inserts` logged items must answer.
        let replayed = items("logged", report.replayed_inserts as usize);
        if !replayed.is_empty() {
            assert!(recovered.query_batch(&replayed).iter().all(|&a| a), "cut {cut}");
        }
    }
}

#[test]
fn byte_soup_wal_never_panics_recovery() {
    let _faults = fault_session();
    let dir = TempDir::new("soup");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    store.insert_batch(&items("member", 100));
    store.snapshot_to_disk().expect("snapshot");
    let tail = wal_segments(dir.path()).pop().expect("a wal segment");
    let header = fs::read(&tail).expect("read wal")[..17].to_vec();
    let saved = save_dir(dir.path());

    // Seeded LCG soup appended after a valid header: decode must treat the
    // first unparseable point as the end of the log — never panic.
    let mut state = 0xDEAD_BEEF_u64;
    for len in [1usize, 8, 64, 257, 4096] {
        restore_dir(dir.path(), &saved);
        let mut bytes = header.clone();
        bytes.extend((0..len).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 56) as u8
        }));
        fs::write(&tail, &bytes).expect("write soup");
        let (recovered, _) = recover(&PersistConfig::new(dir.path())).expect("soup tail tolerated");
        assert!(recovered.query_batch(&items("member", 100)).iter().all(|&a| a));
    }
}

fn counting_store() -> BloomStore<ConcurrentCountingFilter> {
    BloomStore::builder()
        .shards(4)
        .capacity(4_000)
        .target_fpp(0.01)
        .unhardened()
        .seed(7)
        .counting(4)
        .build()
}

#[test]
fn counting_snapshot_roundtrips_counter_state_including_removes() {
    let _faults = fault_session();
    let dir = TempDir::new("counting-snap");
    let mut store = counting_store();
    store.insert_batch(&items("member", 600));
    // Delete a slice of real members before the snapshot: the persisted
    // counter array must carry the post-decrement state, not the inserts.
    let removed = store.remove_batch(&items("member", 200)).expect("counting supports remove");
    assert!(removed.iter().all(|&r| r), "removing real members reports presence");
    store.enable_persistence(&PersistConfig::snapshot_only(dir.path())).expect("enable");
    store.snapshot_to_disk().expect("snapshot");

    let (recovered, report) =
        BloomStore::<ConcurrentCountingFilter>::recover(&PersistConfig::snapshot_only(dir.path()))
            .expect("recover counting");
    assert_eq!(report.replayed_inserts, 0);
    assert_eq!(recovered.backend_kind(), BackendKind::Counting);
    let probes: Vec<Vec<u8>> =
        items("member", 600).into_iter().chain(items("absent", 300)).collect();
    assert_equivalent(&store, &recovered, &probes);
    // Surviving members never go false-negative across the restart.
    let survivors: Vec<Vec<u8>> = items("member", 600).into_iter().skip(200).collect();
    assert!(recovered.query_batch(&survivors).iter().all(|&a| a));
}

#[test]
fn counting_snapshot_while_writing_replays_each_write_exactly_once() {
    let _faults = fault_session();
    // Counter increments and decrements are not idempotent: a write that is
    // both in a snapshot's copy and replayed from the WAL would leave a
    // zombie count (insert) or knock out an unrelated member (remove).
    let dir = TempDir::new("counting-racy");
    let mut store = counting_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    let all = items("racing", 1_500);
    std::thread::scope(|scope| {
        let (store, all) = (&store, &all);
        let writer = scope.spawn(move || {
            for (i, item) in all.iter().enumerate() {
                store.insert(item);
                if i % 3 == 0 {
                    assert!(store.remove(item).expect("counting supports remove"));
                }
            }
        });
        for _ in 0..5 {
            store.snapshot_to_disk().expect("snapshot under load");
        }
        writer.join().expect("writer");
    });
    let (recovered, _) =
        BloomStore::<ConcurrentCountingFilter>::recover(&PersistConfig::new(dir.path()))
            .expect("recover");
    let survivors: Vec<Vec<u8>> =
        all.iter().enumerate().filter(|(i, _)| i % 3 != 0).map(|(_, x)| x.clone()).collect();
    assert!(recovered.query_batch(&survivors).iter().all(|&a| a));
    let probes: Vec<Vec<u8>> = all.iter().cloned().chain(items("absent", 300)).collect();
    assert_equivalent(&store, &recovered, &probes);
    // Equal counters, not just equal occupancy: draining every survivor
    // must empty both stores alike.
    store.remove_batch(&survivors).expect("drain live");
    recovered.remove_batch(&survivors).expect("drain recovered");
    assert_equivalent(&store, &recovered, &probes);
}

#[test]
fn wal_replays_removes_after_the_last_snapshot() {
    let _faults = fault_session();
    let dir = TempDir::new("counting-replay");
    let mut store = counting_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    store.insert_batch(&items("member", 400));
    store.snapshot_to_disk().expect("snapshot");
    // Post-snapshot deletions land only in the WAL tail; the "crash"
    // happens before any further snapshot.
    store.remove_batch(&items("member", 150)).expect("batch remove");
    assert!(store.remove(&items("member", 151)[150]).expect("scalar remove"));

    let (recovered, report) =
        BloomStore::<ConcurrentCountingFilter>::recover(&PersistConfig::new(dir.path()))
            .expect("recover");
    assert_eq!(report.replayed_removes, 151);
    assert_eq!(report.replayed_inserts, 0);
    let probes: Vec<Vec<u8>> =
        items("member", 400).into_iter().chain(items("absent", 200)).collect();
    assert_equivalent(&store, &recovered, &probes);
}

#[test]
fn version_2_byte_cell_snapshot_is_refused_not_misread() {
    let _faults = fault_session();
    // Version 2 stored one counting cell per byte; read as nibbles its
    // words would decode to different counters, so it must be refused.
    let dir = TempDir::new("counting-v2");
    let mut store = counting_store();
    store.insert_batch(&items("member", 100));
    store.enable_persistence(&PersistConfig::snapshot_only(dir.path())).expect("enable");
    store.snapshot_to_disk().expect("snapshot");
    let snapshot = newest_snapshot(dir.path());
    let mut bytes = fs::read(&snapshot).expect("read snapshot");
    assert_eq!(&bytes[..4], b"EVBS");
    bytes[4] = 2;
    fs::write(&snapshot, &bytes).expect("write version-2 header");

    match BloomStore::<ConcurrentCountingFilter>::recover(&PersistConfig::snapshot_only(dir.path()))
    {
        Err(PersistError::BadVersion { version: 2, .. }) => {}
        other => panic!("expected BadVersion for a version-2 snapshot, got {other:?}"),
    }
}

#[test]
fn scalable_store_refuses_persistence_with_a_typed_error() {
    let _faults = fault_session();
    let dir = TempDir::new("scalable");
    let mut store = BloomStore::builder()
        .shards(2)
        .capacity(1_000)
        .target_fpp(0.01)
        .unhardened()
        .seed(7)
        .scalable(0.9)
        .build();
    match store.enable_persistence(&PersistConfig::new(dir.path())) {
        Err(PersistError::UnsupportedBackend(BackendKind::Scalable)) => {}
        other => panic!("scalable store must refuse persistence, got {other:?}"),
    }
    assert!(store.persistence().is_none());
}

#[test]
fn recovering_a_snapshot_under_the_wrong_backend_is_a_config_mismatch() {
    let _faults = fault_session();
    let dir = TempDir::new("backend-mismatch");
    let mut store = unhardened_store();
    store.insert_batch(&items("member", 100));
    store.enable_persistence(&PersistConfig::snapshot_only(dir.path())).expect("enable");
    store.snapshot_to_disk().expect("snapshot");

    match BloomStore::<ConcurrentCountingFilter>::recover(&PersistConfig::snapshot_only(dir.path()))
    {
        Err(PersistError::ConfigMismatch(reason)) => {
            assert!(reason.contains("backend"), "reason should name the backend: {reason}")
        }
        other => panic!("expected a backend mismatch, got {other:?}"),
    }
    // The same bytes still recover fine under the backend that wrote them.
    recover(&PersistConfig::snapshot_only(dir.path())).expect("matching backend recovers");
}

#[test]
fn recovery_prunes_superseded_files() {
    let _faults = fault_session();
    let dir = TempDir::new("prune");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    for round in 0..3 {
        store.insert_batch(&items(&format!("round{round}"), 50));
        store.snapshot_to_disk().expect("snapshot");
    }
    // Only the newest snapshot and the live segment remain.
    let snapshots = fs::read_dir(dir.path())
        .expect("read dir")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "evbs"))
        .count();
    assert_eq!(snapshots, 1, "old snapshots are pruned");
    assert_eq!(wal_segments(dir.path()).len(), 1, "rotated-out segments are pruned");
}

#[test]
fn wal_break_enters_degraded_mode_and_snapshot_repairs_it() {
    use evilbloom_store::{ServeStore, WriteRefusal};

    let setup = fault_session();
    let dir = TempDir::new("degraded");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::fsync(dir.path())).expect("enable");
    store.insert(b"acked-before-break");
    drop(setup);

    let _chaos = fault::arm(FaultPlan::new(1).fail_nth(FaultPoint::WalFsync, 1));
    // This write's own group-commit flush fails: the WAL breaks, the store
    // enters degraded read-only mode, and the serve layer refuses to
    // acknowledge the write (it is applied in memory but not durable).
    let refusal = ServeStore::insert_batch(&store, &[b"limbo".as_slice()]).unwrap_err();
    assert!(matches!(refusal, WriteRefusal::Degraded(_)), "{refusal:?}");
    assert!(store.degraded().is_some());
    let exposition = store.metrics().registry().render();
    assert!(exposition.contains("evilbloom_store_degraded 1"), "{exposition}");
    assert!(exposition.contains("evilbloom_persist_wal_broken 1"), "{exposition}");

    // Reads still serve; fresh writes are refused before they apply.
    assert!(store.contains(b"acked-before-break"));
    let refusal = ServeStore::insert_batch(&store, &[b"refused".as_slice()]).unwrap_err();
    assert!(matches!(refusal, WriteRefusal::Degraded(_)), "{refusal:?}");
    assert!(!store.contains(b"refused"), "a refused write must not apply");

    // A successful snapshot is the repair path: fresh WAL segment, state
    // captured, degraded mode exited.
    store.snapshot_to_disk().expect("repair snapshot");
    assert!(store.degraded().is_none());
    let exposition = store.metrics().registry().render();
    assert!(exposition.contains("evilbloom_store_degraded 0"), "{exposition}");
    ServeStore::insert_batch(&store, &[b"acked-after-repair".as_slice()]).expect("healthy again");

    // Crash-shaped recovery: every acknowledged write survives, including
    // pre-break ones whose segment the repair superseded.
    let (recovered, _) = recover(&PersistConfig::fsync(dir.path())).expect("recover");
    assert!(recovered.contains(b"acked-before-break"));
    assert!(recovered.contains(b"acked-after-repair"));
    assert!(recovered.degraded().is_none());
}

#[test]
fn failed_repair_snapshot_keeps_the_store_degraded() {
    use evilbloom_store::{ServeStore, WriteRefusal};

    let setup = fault_session();
    let dir = TempDir::new("degraded-stuck");
    let mut store = unhardened_store();
    store.enable_persistence(&PersistConfig::fsync(dir.path())).expect("enable");
    drop(setup);

    let plan =
        FaultPlan::new(2).fail_nth(FaultPoint::WalFsync, 1).fail_nth(FaultPoint::SnapshotWrite, 1);
    let _chaos = fault::arm(plan);
    assert!(ServeStore::insert_batch(&store, &[b"breaks-the-wal".as_slice()]).is_err());
    // The repair rotates to a fresh segment, but the snapshot write itself
    // fails: the store must stay degraded (no half-repaired limbo).
    assert!(store.snapshot_to_disk().is_err());
    assert!(store.degraded().is_some());
    let refusal = ServeStore::insert_batch(&store, &[b"still-refused".as_slice()]).unwrap_err();
    assert!(matches!(refusal, WriteRefusal::Degraded(_)), "{refusal:?}");
    // The next attempt (fault exhausted) succeeds and exits degraded mode.
    store.snapshot_to_disk().expect("second repair attempt");
    assert!(store.degraded().is_none());
}

/// Snapshot bytes of a deterministic store with shard 0 mid-rotation, so
/// the file carries a draining generation record beside the active ones.
fn mid_rotation_snapshot<B: FilterBackend>(mut store: BloomStore<B>, tag: &str) -> Vec<u8> {
    let _faults = fault_session();
    let dir = TempDir::new(tag);
    store.insert_batch(&items("fixture-old", 500));
    store.begin_rotation(0, &mut StdRng::seed_from_u64(11)).expect("begin");
    store.insert_batch(&items("fixture-new", 300));
    store.enable_persistence(&PersistConfig::snapshot_only(dir.path())).expect("enable");
    fs::read(newest_snapshot(dir.path())).expect("read snapshot")
}

#[test]
fn snapshot_bytes_match_the_version_3_fixtures() {
    // Length and SHA-1 of these two snapshots as format version 3 laid them
    // out when it was introduced: any encoder must reproduce them byte for
    // byte, or the version number no longer names one layout. Not CRC-32:
    // each record ends in its own CRC, which makes a record's effect on a
    // CRC of the whole file independent of its content, so a whole-file
    // CRC-32 would pin only the lengths.
    let digest = |bytes: &[u8]| (bytes.len(), hex::encode(&sha1(bytes)));
    let plain = mid_rotation_snapshot(unhardened_store(), "fixture-plain");
    assert_eq!(
        digest(&plain),
        (6328, "906522cc907380e6dfb577b86be4c45a8b8e9f0c".into()),
        "plain snapshot bytes moved"
    );

    let counting = counting_store();
    counting.insert_batch(&items("fixture-pre", 200));
    counting.remove_batch(&items("fixture-pre", 120)).expect("counting supports remove");
    let counting = mid_rotation_snapshot(counting, "fixture-counting");
    assert_eq!(
        digest(&counting),
        (24328, "912e76005d326e2b2da6156a7b08325b3bcc93fa".into()),
        "counting snapshot bytes moved"
    );
}

/// WAL segment bytes of a deterministic op mix: a scalar insert, a batch
/// insert, a scalar remove and a batch remove (refused, and so unlogged, by
/// a family without deletion), then a rotation begun and completed on
/// shard 0 with a batch written in between.
fn wal_op_mix_segment<B: FilterBackend>(mut store: BloomStore<B>, tag: &str) -> Vec<u8> {
    let _faults = fault_session();
    let dir = TempDir::new(tag);
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    let deletable = store.backend_kind() == BackendKind::Counting;
    store.insert(b"wal-scalar");
    store.insert_batch(&items("wal-batch", 40));
    assert_eq!(store.remove(b"wal-scalar").is_ok(), deletable);
    assert_eq!(store.remove_batch(&items("wal-batch", 15)).is_ok(), deletable);
    store.begin_rotation(0, &mut StdRng::seed_from_u64(3)).expect("begin");
    store.insert_batch(&items("wal-rotating", 10));
    assert!(store.complete_rotation(0));
    let segment = wal_segments(dir.path()).pop().expect("a wal segment");
    fs::read(segment).expect("read wal")
}

#[test]
fn wal_bytes_match_the_version_3_fixtures() {
    // Length and SHA-1 of the WAL segments the op mix above wrote when
    // scalar writes still had their own record writer: every write path
    // must keep logging these bytes.
    let digest = |bytes: &[u8]| (bytes.len(), hex::encode(&sha1(bytes)));
    assert_eq!(
        digest(&wal_op_mix_segment(unhardened_store(), "wal-fixture-plain")),
        (1108, "278b8c489697b54310f44c3909c3f8437d1e0771".into()),
        "plain WAL bytes moved"
    );
    assert_eq!(
        digest(&wal_op_mix_segment(counting_store(), "wal-fixture-counting")),
        (1477, "2986eb8f6450d7634f00f6ef98c62782accfd720".into()),
        "counting WAL bytes moved"
    );
}

#[test]
fn snapshot_info_bytes_match_the_file_and_the_metrics_counter() {
    let _faults = fault_session();
    let dir = TempDir::new("snapshot-bytes");
    let mut store = unhardened_store();
    store.insert_batch(&items("member", 300));
    let counter = |store: &BloomStore| -> u64 {
        let exposition = store.metrics().registry().render();
        let line = exposition
            .lines()
            .find(|l| l.starts_with("evilbloom_persist_snapshot_bytes_total "))
            .expect("snapshot bytes counter exported");
        line.rsplit(' ').next().and_then(|v| v.parse().ok()).expect("counter value")
    };
    let before = counter(&store);
    let first = store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    let on_disk = |dir: &std::path::Path| fs::metadata(newest_snapshot(dir)).expect("stat").len();
    assert_eq!(first.bytes, on_disk(dir.path()), "SnapshotInfo.bytes must be the file's length");
    store.begin_rotation(1, &mut StdRng::seed_from_u64(5)).expect("begin");
    store.insert_batch(&items("late", 100));
    let second = store.snapshot_to_disk().expect("snapshot");
    assert_eq!(second.bytes, on_disk(dir.path()), "the draining record is counted too");
    assert_eq!(counter(&store) - before, first.bytes + second.bytes);
}

/// A one-shard store, so every insert batch becomes a single WAL record.
fn one_shard_store() -> BloomStore {
    BloomStore::builder().shards(1).capacity(40_000).target_fpp(0.01).unhardened().seed(7).build()
}

/// Long items, so a few thousand of them make one record far larger than
/// any read buffer.
fn long_items(prefix: &str, n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("{prefix}-{i:06}-{}", "x".repeat(96)).into_bytes()).collect()
}

/// Byte offsets at which each record of a WAL segment ends, read from the
/// `[len u32][type u8][body][crc u32]` framing after the 17-byte header.
fn wal_record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 17;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4 + 1 + len + 4;
        ends.push(pos);
    }
    assert_eq!(pos, bytes.len(), "an untouched segment ends on a record boundary");
    ends
}

#[test]
fn wal_records_larger_than_or_straddling_the_read_buffer_replay_whole() {
    let _faults = fault_session();
    let dir = TempDir::new("big-record");
    let mut store = one_shard_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    let batch = long_items("big", 4_000);
    store.insert_batch(&batch);
    // Then thousands of small records, one per scalar insert: every refill
    // of the reader's buffer ends somewhere inside one of them, length
    // prefix and CRC included.
    let scalars = items("small", 20_000);
    for item in &scalars {
        store.insert(item);
    }
    let segment = fs::read(wal_segments(dir.path()).pop().expect("a wal segment")).expect("read");
    let ends = wal_record_ends(&segment);
    assert_eq!(ends.len(), 1 + scalars.len(), "one record per batch and per scalar insert");
    assert!(ends[0] > 256 * 1024, "the batch record must outgrow the read buffer");

    let (recovered, report) = recover(&PersistConfig::new(dir.path())).expect("recover");
    assert_eq!(report.replayed_inserts, 24_000);
    assert!(!report.torn_tail);
    assert!(recovered.query_batch(&batch).iter().all(|&a| a));
    assert!(recovered.query_batch(&scalars).iter().all(|&a| a));
    assert_equivalent(&store, &recovered, &batch);
}

#[test]
fn wal_tail_torn_inside_a_body_or_at_a_buffer_boundary_is_a_clean_cut() {
    let _faults = fault_session();
    let dir = TempDir::new("torn-boundary");
    let mut store = one_shard_store();
    store.enable_persistence(&PersistConfig::new(dir.path())).expect("enable");
    let batches: Vec<Vec<Vec<u8>>> =
        (0..3).map(|b| long_items(&format!("batch{b}"), 1_500)).collect();
    for batch in &batches {
        store.insert_batch(batch);
    }
    let tail = wal_segments(dir.path()).pop().expect("a wal segment");
    let original = fs::read(&tail).expect("read wal");
    let ends = wal_record_ends(&original);
    assert_eq!(ends.len(), 3);
    let saved = save_dir(dir.path());

    // A cut in the middle of the last record's body, then one at every
    // 4 KiB multiple: whatever power-of-two size the reader buffers, some
    // cut lands exactly where one of its refills ends.
    let last_start = ends[1];
    let mut cuts = vec![last_start + (ends[2] - last_start) / 2];
    cuts.extend((1..).map(|n| n * 4096).take_while(|&cut| cut < original.len()));
    for cut in cuts {
        if ends.contains(&cut) || cut <= 17 {
            continue;
        }
        restore_dir(dir.path(), &saved);
        fs::write(&tail, &original[..cut]).expect("write torn");
        let (recovered, report) =
            recover(&PersistConfig::new(dir.path())).expect("torn tail is a clean cut");
        assert!(report.torn_tail, "cut {cut} must be reported torn");
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(report.replayed_inserts, whole as u64 * 1_500, "cut {cut}");
        for batch in &batches[..whole] {
            assert!(recovered.query_batch(batch).iter().all(|&a| a), "cut {cut}");
        }
    }
}
