//! # evilbloom-server
//!
//! The network serving layer in front of [`evilbloom_store::BloomStore`]:
//! a dependency-free (std-only) TCP server on a Linux epoll reactor, a
//! portable client with connection pooling, and the compact
//! length-prefixed wire protocol they share.
//!
//! The paper's threat model is a *remote* adversary degrading a
//! Bloom-filter-backed service with chosen insertions and queries. This
//! crate closes the gap between that model and the in-process store: the
//! pollution and forgery engines of `evilbloom-attacks` can now hit the
//! service over a socket exactly as the paper envisions (see
//! `examples/remote_attack.rs` at the workspace root), while `STATS` exposes
//! the per-shard pollution alarms to a remote operator. How much concurrent
//! traffic the service absorbs bounds the attack's measurable blast radius,
//! so connection scaling is a first-class concern here.
//!
//! * [`wire`] — the protocol: versioned, length-prefixed binary frames
//!   (`PING`/`INSERT`/`QUERY`/`MINSERT`/`MQUERY`/`DELETE`/`MDELETE`/
//!   `STATS`/`ROTATE`/`METRICS`/`TRACE`), one encoder/decoder shared by
//!   both ends, panic-free
//!   on arbitrary input, with commands borrowing item bytes straight from
//!   the receive buffer. Replies carry the store's and the flight
//!   recorder's own types ([`StoreStats`], [`SnapshotInfo`],
//!   [`RecordedEvent`], [`ConnDrift`]), so what a remote operator reads
//!   compares equal to what the store holds. Each reply has one layout per
//!   [`PROTOCOL_VERSION`]. `DELETE` is honoured by deletable filter
//!   families and answered with a typed `UNSUPPORTED` elsewhere;
//! * [`server`] — the serving layer: an epoll reactor built on raw
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait` syscalls (no `libc`/`mio`
//!   dependency), N reactor shards with round-robin accept handoff, every
//!   connection a non-blocking state machine, so open connections scale to
//!   C10k and beyond. Admission control answers a typed `BUSY` past
//!   [`ServerConfig::max_conns`], and peers that stop reading their
//!   responses are evicted. The server (this module, its accept loop in
//!   [`backend`] and the fd-budget helpers) is compiled on Linux only,
//!   while the client side below stays portable;
//! * [`client`] — typed helpers plus explicit [`Client::send`] /
//!   [`Client::recv`] pipelining;
//! * [`client_pool`] — [`ClientPool`]: checkout/checkin connection reuse
//!   with probed dead-connection replacement (counted in
//!   [`PoolHealth`]), pooled pipelined batch helpers that stripe one
//!   logical batch over several sockets in [`POOL_FRAME_ITEMS`]-item
//!   frames, and [`ClientPool::with_connection`] for one server-global
//!   call (`STATS`, `SNAPSHOT`, `METRICS`, `TRACE`, `ROTATE`);
//! * [`retry`] — the seeded decorrelated-jitter backoff schedule
//!   ([`RetryPolicy`]/[`Backoff`]) behind [`ResilientClient`]: connect +
//!   per-request deadlines ([`ClientConfig`]), bounded idempotency-aware
//!   retries, typed `BUSY`/`DEGRADED` refusals surfaced as
//!   [`ClientError`] variants.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use evilbloom_server::{Client, Server, ServerConfig};
//! use evilbloom_store::BloomStore;
//!
//! // Any filter family serves: add `.counting(4)` or `.scalable(0.9)`
//! // before `.build()` to serve a deletable or growing store instead.
//! let store = Arc::new(
//!     BloomStore::builder().shards(4).capacity(4_000).target_fpp(0.01).seed(42).build(),
//! );
//! let handle = Server::spawn(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! client.insert_batch(&["/a", "/b", "/c"]).unwrap();
//! assert_eq!(client.query_batch(&["/a", "/b", "/nope"]).unwrap(), vec![true, true, false]);
//! assert_eq!(client.stats().unwrap().total_inserted, 3);
//!
//! drop(client);
//! handle.shutdown();
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly one place: the
// four raw epoll/close syscall declarations in `reactor::sys` (the build
// environment is offline, so there is no `libc` to delegate them to).
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_os = "linux")]
pub mod backend;
#[cfg(target_os = "linux")]
mod buffers;
pub mod client;
pub mod client_pool;
#[cfg(target_os = "linux")]
mod conn;
#[cfg(target_os = "linux")]
mod metrics;
#[cfg(target_os = "linux")]
mod reactor;
pub mod retry;
#[cfg(target_os = "linux")]
pub mod server;
pub mod wire;

#[cfg(target_os = "linux")]
pub use backend::{fd_soft_limit, loopback_connection_budget};
pub use client::{Client, ClientConfig, ClientError, ResilientClient};
pub use client_pool::{ClientPool, PoolHealth, POOL_FRAME_ITEMS};
pub use retry::{Backoff, RetryPolicy};
#[cfg(target_os = "linux")]
pub use server::{Server, ServerConfig, ServerHandle};
pub use wire::{
    Command, Response, WireError, WireTrace, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

/// The store types the `STATS`, `SNAPSHOTTED` and `MINSERTED` replies carry
/// (re-exported from `evilbloom-store` so clients can name them without a
/// direct dependency).
pub use evilbloom_store::{BatchOutcome, ShardStats, SnapshotInfo, StoreStats};

/// The flight-recorder types a [`WireTrace`] carries (re-exported from
/// `evilbloom-trace` so clients can match on them without a direct
/// dependency).
pub use evilbloom_trace::{ConnDrift, RecordedEvent, TraceEvent};
