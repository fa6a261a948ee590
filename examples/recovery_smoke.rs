//! Crash-recovery smoke test for the durability layer, sized for CI: the
//! parent re-execs itself as a child server process with a persistent
//! unhardened store, populates it over TCP, takes a remote `SNAPSHOT`,
//! keeps inserting (those frames land only in the write-ahead log), then
//! **SIGKILLs** the child — no shutdown hook runs. A second child restarts
//! from the same directory via `BloomStore::recover` and must answer the
//! exact probe set bit-for-bit identically over the wire, with zero false
//! negatives among the acknowledged inserts.
//!
//! The default `SyncPolicy::OsOnly` writes every record to the OS before
//! acknowledging, so a SIGKILL (process death, not power loss) can never
//! eat an acknowledged insert — that is precisely what this smoke proves.
//!
//! Run with: `cargo run --release --example recovery_smoke`

use std::io::{BufRead, BufReader};
use std::process::{Child, Command as ProcCommand, Stdio};
use std::sync::Arc;
use std::time::Duration;

use evilbloom::server::{Client, Server, ServerConfig};
use evilbloom::store::{BloomStore, PersistConfig};

/// Child mode: serve a persistent store out of `dir` on an ephemeral
/// loopback port, printing the address on stdout for the parent. A fresh
/// directory gets a new store; a populated one is recovered first. The
/// child never exits on its own (the parent kills it) beyond a watchdog
/// that keeps CI bounded if the parent dies.
fn serve_child(dir: &str) -> ! {
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(120));
        eprintln!("recovery_smoke child: watchdog fired after 120s, aborting");
        std::process::exit(1);
    });

    let persist = PersistConfig::new(dir);
    let store = match BloomStore::<_>::recover(&persist) {
        Ok((store, report)) => {
            eprintln!(
                "child: recovered snapshot {} (+{} WAL inserts, {} rotations, torn tail: {})",
                report.snapshot_seq,
                report.replayed_inserts,
                report.replayed_rotations,
                report.torn_tail
            );
            store
        }
        Err(_) => {
            let mut store = BloomStore::builder()
                .shards(4)
                .capacity(4_000)
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
    // The parent parses this exact line to find the port.
    println!("serving on {}", handle.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Spawns a child server on `dir` and waits for its address line.
fn spawn_server(dir: &str) -> (Child, String) {
    let exe = std::env::current_exe().expect("own path");
    let mut child = ProcCommand::new(exe)
        .args(["--serve", dir])
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--serve") {
        let dir = args.get(i + 1).expect("--serve requires a directory").clone();
        serve_child(&dir);
    }

    // Belt and braces against hangs: CI also wraps this in `timeout`.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(90));
        eprintln!("recovery_smoke: watchdog fired after 90s, aborting");
        std::process::exit(1);
    });

    let dir = std::env::temp_dir().join(format!("evilbloom-recovery-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    let dir = dir.to_str().expect("utf-8 temp path").to_string();

    // Phase 1: populate, snapshot remotely, keep inserting into the WAL.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(&addr).expect("connect");
    let before: Vec<String> = (0..600).map(|i| format!("https://pre.example/{i}")).collect();
    client.insert_batch(&before).expect("minsert before snapshot");
    let info = client.snapshot().expect("remote SNAPSHOT");
    println!("snapshot {} written ({} bytes), WAL segment {}", info.seq, info.bytes, info.wal_seq);

    let after: Vec<String> = (0..400).map(|i| format!("https://post.example/{i}")).collect();
    client.insert_batch(&after).expect("minsert after snapshot (WAL only)");

    let probes: Vec<String> = before
        .iter()
        .chain(after.iter())
        .cloned()
        .chain((0..2_000).map(|i| format!("https://absent.example/{i}")))
        .collect();
    let original = client.query_batch(&probes).expect("mquery");
    assert!(original[..1_000].iter().all(|&a| a), "acknowledged members answer true");

    // Phase 2: SIGKILL — no flush, no shutdown hook, nothing graceful.
    drop(client);
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");
    println!("child killed; restarting from {dir}");

    // Phase 3: restart from disk and demand bit-for-bit equivalence.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(&addr).expect("reconnect");
    let replayed = client.query_batch(&probes).expect("mquery after recovery");
    assert!(
        replayed[..1_000].iter().all(|&a| a),
        "an acknowledged insert disappeared across the crash"
    );
    assert_eq!(replayed, original, "recovered store must answer bit-for-bit identically");

    drop(client);
    child.kill().expect("kill second child");
    child.wait().expect("reap second child");
    let _ = std::fs::remove_dir_all(&dir);
    println!("recovery smoke OK ({} probes bit-for-bit identical)", probes.len());
}
