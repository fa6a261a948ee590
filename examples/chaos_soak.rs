//! Chaos soak: a mixed workload against a server whose I/O layer is
//! being actively sabotaged by a **seeded, replayable fault schedule**
//! (`evilbloom-fault`).
//!
//! The parent re-execs itself as a child server process with a
//! persistent store and an armed [`FaultPlan`]: probabilistic socket
//! read/write/accept faults throughout, plus one exact-nth WAL-fsync
//! fault that breaks the write-ahead log mid-soak. The parent drives a
//! [`ResilientClient`] (connect + request deadlines, seeded
//! decorrelated-jitter retries, writes opted in — the store is a plain
//! Bloom filter, so replaying an insert is idempotent) and asserts:
//!
//! 1. **No panic**: the child survives the whole soak (until the
//!    deliberate SIGKILL) and every client error is a typed refusal or a
//!    retried transport fault, never a protocol wedge.
//! 2. **Degraded entry/exit in trace order**: the WAL break puts the
//!    store into degraded read-only mode (writes refused with a typed
//!    `DEGRADED`), an operator `SNAPSHOT` repairs it, and the forensic
//!    trace records `DegradedEntered` before `DegradedExited`.
//! 3. **Bounded client error rate**: after retries, hard failures stay
//!    under 10% of operations (the schedule injects ~1.5% per socket op).
//! 4. **No acked-write loss across kill + recover**: the child is
//!    SIGKILLed mid-soak and restarted from the same directory; every
//!    insert the client saw acknowledged must still answer `true`.
//!
//! Run with: `cargo run --release --example chaos_soak`
//!
//! [`FaultPlan`]: evilbloom::fault::FaultPlan
//! [`ResilientClient`]: evilbloom::server::ResilientClient

use std::io::{BufRead, BufReader};
use std::process::{Child, Command as ProcCommand, Stdio};
use std::sync::Arc;
use std::time::Duration;

use evilbloom::fault::{self, FaultPlan, FaultPoint};
use evilbloom::server::{
    ClientConfig, ClientError, ResilientClient, RetryPolicy, Server, ServerConfig, TraceEvent,
};
use evilbloom::store::{BloomStore, PersistConfig};

/// Seed for the whole chaos schedule (fault plan and client backoff).
/// Change it and the run replays a *different but equally deterministic*
/// schedule.
const CHAOS_SEED: u64 = 0xC4A0_50A4;
/// Per-mille fault probability at the socket read/write points.
const SOCKET_FAULT_PER_MILLE: u16 = 15;
/// Per-mille fault probability at the accept point.
const ACCEPT_FAULT_PER_MILLE: u16 = 10;
/// The exact WAL-fsync hit that breaks the log (one hit per write batch,
/// so this trips mid-soak).
const WAL_BREAK_AT_HIT: u64 = 12;
/// Workload rounds.
const ROUNDS: usize = 30;
/// Items inserted per round.
const BATCH: usize = 40;
/// Hard-failure budget after retries, as a fraction of operations.
const MAX_ERROR_RATE: f64 = 0.10;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{flag} requires a value")).clone())
}

/// Child mode: serve a persistent store out of `dir` with the chaos
/// schedule armed (seed 0 = disarmed, for the post-recovery verification
/// server). Prints the listen address on stdout for the parent.
fn serve_child(dir: &str, fault_seed: u64, wal_break: u64) -> ! {
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(180));
        eprintln!("chaos_soak child: watchdog fired after 180s, aborting");
        std::process::exit(1);
    });

    if fault_seed != 0 {
        let mut plan = FaultPlan::new(fault_seed)
            .fail_per_mille(FaultPoint::SocketRead, SOCKET_FAULT_PER_MILLE)
            .fail_per_mille(FaultPoint::SocketWrite, SOCKET_FAULT_PER_MILLE)
            .fail_per_mille(FaultPoint::Accept, ACCEPT_FAULT_PER_MILLE);
        if wal_break > 0 {
            plan = plan.fail_nth(FaultPoint::WalFsync, wal_break);
        }
        // Keep the plan armed for the whole process lifetime; the child
        // never disarms (it exits by SIGKILL).
        std::mem::forget(fault::arm(plan));
    }

    let persist = PersistConfig::new(dir);
    let store = match BloomStore::<_>::recover(&persist) {
        Ok((store, report)) => {
            eprintln!(
                "child: recovered snapshot {} (+{} WAL inserts, torn tail: {})",
                report.snapshot_seq, report.replayed_inserts, report.torn_tail
            );
            store
        }
        Err(_) => {
            let mut store = BloomStore::builder()
                .shards(4)
                .capacity(16_000)
                .target_fpp(0.01)
                .unhardened()
                .seed(7)
                .build();
            store.enable_persistence(&persist).expect("enable persistence");
            store
        }
    };
    let handle =
        Server::spawn(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    println!("serving on {}", handle.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Spawns a child server on `dir` and waits for its address line.
fn spawn_server(dir: &str, fault_seed: u64, wal_break: u64) -> (Child, String) {
    let exe = std::env::current_exe().expect("own path");
    let mut child = ProcCommand::new(exe)
        .args([
            "--serve",
            dir,
            "--fault-seed",
            &fault_seed.to_string(),
            "--wal-break",
            &wal_break.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn child server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("serving on ") {
                    break addr.to_string();
                }
            }
            _ => panic!("child exited before announcing its address"),
        }
    };
    (child, addr)
}

fn chaos_client(addr: &str) -> ResilientClient {
    let config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(5)),
        request_timeout: Some(Duration::from_secs(10)),
        // The served family is a plain Bloom filter: replaying an insert
        // whose ack was lost is idempotent, so writes opt in to retrying.
        retry: RetryPolicy {
            max_retries: 6,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(100),
            seed: CHAOS_SEED,
            retry_writes: false,
        }
        .retrying_writes(),
        ..ClientConfig::default()
    };
    ResilientClient::connect(addr, config).expect("dial chaos server")
}

fn soak() {
    let dir = std::env::temp_dir().join(format!("evilbloom-chaos-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    let dir = dir.to_str().expect("utf-8 temp path").to_string();

    // Phase 1: soak a mixed workload against the sabotaged server.
    let (mut child, addr) = spawn_server(&dir, CHAOS_SEED, WAL_BREAK_AT_HIT);
    let mut client = chaos_client(&addr);

    let mut acked: Vec<String> = Vec::new();
    let mut ops = 0u64;
    let mut hard_errors = 0u64;
    let mut degraded_refusals = 0u64;
    let mut repairs = 0u64;

    for round in 0..ROUNDS {
        let batch: Vec<String> =
            (0..BATCH).map(|i| format!("https://soak.example/{round}/{i}")).collect();
        ops += 1;
        match client.insert_batch(&batch) {
            Ok(_) => acked.extend(batch.iter().cloned()),
            Err(ClientError::Degraded(reason)) => {
                // The WAL broke: the store refused the write with a typed
                // DEGRADED. Repair it with an operator SNAPSHOT (rewrites
                // the state and rotates onto a fresh log), then replay.
                degraded_refusals += 1;
                println!("round {round}: write refused ({reason}); repairing via SNAPSHOT");
                ops += 1;
                match client.snapshot() {
                    Ok(info) => {
                        repairs += 1;
                        println!("round {round}: repaired, snapshot seq {}", info.seq);
                    }
                    Err(e) => {
                        hard_errors += 1;
                        println!("round {round}: repair snapshot failed: {e}");
                    }
                }
                ops += 1;
                match client.insert_batch(&batch) {
                    Ok(_) => acked.extend(batch.iter().cloned()),
                    Err(e) => {
                        hard_errors += 1;
                        println!("round {round}: replay after repair failed: {e}");
                    }
                }
            }
            Err(e) => {
                hard_errors += 1;
                println!("round {round}: insert failed after retries: {e}");
            }
        }

        // Read-back of recently acked inserts: an acked write answering
        // `false` would be a lost write, not a false positive.
        if !acked.is_empty() {
            let sample: Vec<&String> = acked.iter().rev().take(200).collect();
            ops += 1;
            match client.query_batch(&sample) {
                Ok(answers) => {
                    assert!(
                        answers.iter().all(|&a| a),
                        "an acknowledged insert answered false mid-soak"
                    );
                }
                Err(e) => {
                    hard_errors += 1;
                    println!("round {round}: query failed after retries: {e}");
                }
            }
        }

        // Control-plane traffic rides along like an operator's dashboard.
        if round % 5 == 4 {
            ops += 1;
            match client.stats() {
                Ok(stats) => {
                    if stats.degraded {
                        println!("round {round}: STATS reports degraded read-only mode");
                    }
                }
                Err(e) => {
                    hard_errors += 1;
                    println!("round {round}: stats failed after retries: {e}");
                }
            }
        }
    }

    // No panic: the child must still be alive after the whole soak.
    assert!(
        child.try_wait().expect("probe child").is_none(),
        "the server process died during the soak"
    );
    assert!(degraded_refusals > 0, "the WAL break never surfaced as DEGRADED");
    assert!(repairs > 0, "no SNAPSHOT repair succeeded");

    // Bounded error rate: retries and typed refusals absorb the schedule.
    let error_rate = hard_errors as f64 / ops as f64;
    println!(
        "{ops} ops, {hard_errors} hard errors ({:.1}%), \
         {} acked inserts, {} retries, {} reconnects",
        error_rate * 100.0,
        acked.len(),
        client.retries(),
        client.reconnects(),
    );
    assert!(
        error_rate <= MAX_ERROR_RATE,
        "hard error rate {error_rate:.3} exceeds the {MAX_ERROR_RATE} budget"
    );

    // Degraded entry and exit must both be on the flight recorder, in
    // that order.
    let trace = client.trace().expect("fetch trace after soak");
    let entered = trace
        .events
        .iter()
        .position(|e| matches!(e.event, TraceEvent::DegradedEntered { .. }))
        .expect("DegradedEntered on the flight recorder");
    let exited = trace
        .events
        .iter()
        .position(|e| matches!(e.event, TraceEvent::DegradedExited { .. }))
        .expect("DegradedExited on the flight recorder");
    assert!(entered < exited, "degraded exit recorded before entry");

    // Phase 2: SIGKILL mid-soak state, restart clean from the same
    // directory, and demand every acked insert back.
    drop(client);
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");
    println!("child killed; recovering from {dir}");

    let (mut child, addr) = spawn_server(&dir, 0, 0);
    let mut client = chaos_client(&addr);
    let answers = client.query_batch(&acked).expect("query acked set after recovery");
    let lost = answers.iter().filter(|&&a| !a).count();
    assert_eq!(lost, 0, "{lost} acknowledged inserts lost across kill+recover");

    drop(client);
    child.kill().expect("kill verification child");
    child.wait().expect("reap verification child");
    let _ = std::fs::remove_dir_all(&dir);
    println!("chaos soak OK ({} acked inserts survived kill+recover)", acked.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--serve") {
        let dir = args.get(i + 1).expect("--serve requires a directory").clone();
        let fault_seed =
            flag_value(&args, "--fault-seed").map_or(0, |v| v.parse().expect("fault seed"));
        let wal_break =
            flag_value(&args, "--wal-break").map_or(0, |v| v.parse().expect("wal break hit"));
        serve_child(&dir, fault_seed, wal_break);
    }

    // Belt and braces against hangs: CI also wraps this in `timeout`.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(300));
        eprintln!("chaos_soak: watchdog fired after 300s, aborting");
        std::process::exit(1);
    });

    soak();
}
