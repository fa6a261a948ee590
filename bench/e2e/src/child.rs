//! The server child: this binary re-executed as `e2e serve <store config>`.
//!
//! The child receives only a store configuration (never a workload name),
//! builds the `BloomStore`, serves it with `ServerConfig::default()` on an
//! ephemeral loopback port, prints `port <n>` and serves until its stdin
//! closes — so it cannot outlive the generator — or it is killed.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;

use evilbloom_server::{Client, ClientConfig, Server, ServerConfig};
use evilbloom_store::{BloomStore, FilterBackend, PersistConfig, StoreBuilder};

/// Counter width of counting-family stores.
pub const COUNTER_BITS: u8 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Bloom,
    Counting,
}

/// Everything the server child is told: the store's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSpec {
    pub family: Family,
    pub hardened: bool,
    pub shards: usize,
    pub capacity: u64,
    pub fpp: f64,
    /// Seeds the store's key material, so an in-process replica built from
    /// the same spec has the very same keys as the served store.
    pub key_seed: u64,
}

impl StoreSpec {
    /// A plain-family builder configured by this spec (call `.counting()`
    /// on it for the counting family).
    pub fn builder(&self) -> StoreBuilder {
        let builder = BloomStore::builder()
            .shards(self.shards)
            .capacity(self.capacity)
            .target_fpp(self.fpp)
            .seed(self.key_seed);
        if self.hardened {
            builder.hardened()
        } else {
            builder.unhardened()
        }
    }

    fn to_args(&self) -> Vec<String> {
        let family = match self.family {
            Family::Bloom => "bloom",
            Family::Counting => "counting",
        };
        [
            ("--family", family.to_string()),
            ("--hardened", u8::from(self.hardened).to_string()),
            ("--shards", self.shards.to_string()),
            ("--capacity", self.capacity.to_string()),
            ("--fpp", self.fpp.to_string()),
            ("--key-seed", self.key_seed.to_string()),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_string(), value])
        .collect()
    }

    fn from_args(args: &[String]) -> Result<StoreSpec, String> {
        let get = |flag: &str| -> Result<&str, String> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("serve: missing {flag}"))
        };
        let num = |flag: &str| -> Result<u64, String> {
            get(flag)?.parse().map_err(|e| format!("serve: bad {flag}: {e}"))
        };
        Ok(StoreSpec {
            family: match get("--family")? {
                "bloom" => Family::Bloom,
                "counting" => Family::Counting,
                other => return Err(format!("serve: unknown family {other}")),
            },
            hardened: num("--hardened")? != 0,
            shards: usize::try_from(num("--shards")?).map_err(|e| e.to_string())?,
            capacity: num("--capacity")?,
            fpp: get("--fpp")?.parse().map_err(|e| format!("serve: bad --fpp: {e}"))?,
            key_seed: num("--key-seed")?,
        })
    }
}

/// Where a persistent child keeps its files, and whether it boots by
/// recovering them.
#[derive(Debug, Clone)]
pub struct Durability {
    pub dir: PathBuf,
    pub recover: bool,
}

/// Entry point of `e2e serve`.
pub fn serve_main(args: &[String]) -> ExitCode {
    match serve(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e serve: {e}");
            ExitCode::from(2)
        }
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let spec = StoreSpec::from_args(args)?;
    let dir = args.iter().position(|a| a == "--dir").and_then(|i| args.get(i + 1));
    let durability = dir.map(|d| Durability {
        dir: PathBuf::from(d),
        recover: args.iter().any(|a| a == "--recover"),
    });
    match spec.family {
        Family::Bloom => serve_store(spec.builder(), durability.as_ref()),
        Family::Counting => serve_store(spec.builder().counting(COUNTER_BITS), durability.as_ref()),
    }
}

fn serve_store<B: FilterBackend>(
    builder: StoreBuilder<B>,
    durability: Option<&Durability>,
) -> Result<(), String> {
    let store = match durability {
        Some(d) if d.recover => {
            BloomStore::<B>::recover(&PersistConfig::new(&d.dir))
                .map_err(|e| format!("recover {}: {e}", d.dir.display()))?
                .0
        }
        Some(d) => {
            let mut store = builder.build();
            store
                .enable_persistence(&PersistConfig::new(&d.dir))
                .map_err(|e| format!("enable persistence: {e}"))?;
            store
        }
        None => builder.build(),
    };
    let handle = Server::spawn(Arc::new(store), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut stdout = io::stdout().lock();
    writeln!(stdout, "port {}", handle.local_addr().port()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    drop(stdout);
    // Serve until the generator closes our stdin (or dies).
    let mut sink = Vec::new();
    let _ = io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    Ok(())
}

/// The generator's handle on a running server child. Dropping it kills the
/// child and waits for it.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Spawns the child (pinned to `cpus` with `taskset` from its first
    /// instruction, when given) and waits for its listening port.
    pub fn spawn(
        spec: &StoreSpec,
        durability: Option<&Durability>,
        cpus: Option<&str>,
    ) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut command = match cpus {
            Some(cpus) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(cpus).arg(&exe);
                c
            }
            None => Command::new(&exe),
        };
        command.arg("serve").args(spec.to_args());
        if let Some(d) = durability {
            command.arg("--dir").arg(&d.dir);
            if d.recover {
                command.arg("--recover");
            }
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let port = line.trim().strip_prefix("port ").and_then(|p| p.parse::<u16>().ok());
        let mut server = ServerChild { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        match (read, port) {
            (Ok(_), Some(port)) => {
                server.addr.set_port(port);
                Ok(server)
            }
            _ => Err(format!(
                "server child did not report a port ({})",
                server.exited().unwrap_or_else(|| "still running".to_string())
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A client with deadlines, so a wedged server fails the run instead of
    /// hanging it.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_with(self.addr, &ClientConfig::default())
            .map_err(|e| format!("connect to server child: {e}"))
    }

    /// `Some(status)` once the child has exited.
    pub fn exited(&mut self) -> Option<String> {
        match self.child.try_wait() {
            Ok(Some(status)) => Some(format!("server child exited: {status}")),
            Ok(None) => None,
            Err(e) => Some(format!("server child state unknown: {e}")),
        }
    }

    /// Explains a client-side failure, naming the child's death when that
    /// is what happened.
    pub fn blame(&mut self, context: &str, error: impl std::fmt::Display) -> String {
        match self.exited() {
            Some(status) => format!("{context}: {error} ({status})"),
            None => format!("{context}: {error}"),
        }
    }
}

impl Drop for ServerChild {
    /// SIGKILL, then reap.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A fresh, empty directory under `root` (any earlier one is removed).
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
