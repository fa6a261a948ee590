//! The TCP server in front of any [`ServeStore`] (a
//! [`evilbloom_store::BloomStore`] of any filter family).
//!
//! One I/O engine serves every connection: an acceptor thread hands
//! accepted sockets round-robin to N epoll reactor shards (see
//! `reactor.rs` in the sources), where each connection is a non-blocking
//! state machine. Open-connection count is therefore bounded by file
//! descriptors and [`ServerConfig::max_conns`], not by threads, while CPU
//! parallelism comes from [`ServerConfig::workers`]. A connection is a
//! pipelined request loop: every socket read drains *all* complete frames
//! from the receive buffer, executes them against the shared store (batch
//! commands visit each shard lock once), and flushes the buffered
//! responses in as few writes as the socket allows.
//!
//! Overload is typed at both ends of a connection's life. Past
//! [`ServerConfig::max_conns`] open connections the acceptor answers a
//! `BUSY` frame carrying the [`ServerConfig::busy_retry_after`] hint and
//! closes. A peer that pipelines without ever receiving gets backpressure:
//! past a high-water mark of pending response bytes the reactor stops
//! reading from it, and after [`ServerConfig::slow_consumer_grace`] at that
//! mark it is evicted. [`ServerHandle::shutdown`] wakes every reactor, so
//! it is bounded, not best-effort.
//!
//! The server needs Linux epoll: [`Server::spawn`] returns
//! [`io::ErrorKind::Unsupported`] elsewhere. The client, the pool, the wire
//! codec and the retry schedule stay portable.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use evilbloom_store::ServeStore;
use evilbloom_trace::{FlightRecorder, SuspectTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::buffers::BufferPool;
use crate::metrics::ServerMetrics;
use crate::reactor;
use crate::wire::DEFAULT_MAX_FRAME_BYTES;

/// Connections the suspect table tracks at once. Eviction drops the
/// least-suspicious row, so churning connections cannot displace an
/// attacker's evidence.
const SUSPECT_CAPACITY: usize = 64;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Degree of parallelism: the number of epoll reactor shards, each a
    /// thread multiplexing any number of connections.
    pub workers: usize,
    /// Per-frame payload cap (a hostile length prefix is rejected, and the
    /// connection closed, before any allocation).
    pub max_frame_bytes: u32,
    /// Seed of the RNG that draws fresh key material for `ROTATE` commands
    /// on hardened stores.
    pub rotation_seed: u64,
    /// Tick at which the acceptor's non-blocking accept loop and the
    /// reactors' `epoll_wait` calls re-check the shutdown flag, and at
    /// which each reactor sweeps for slow consumers.
    pub poll_interval: Duration,
    /// Requests whose execution takes at least this long are logged at
    /// `warn` and recorded as `slow-request` flight-recorder events.
    pub slow_request_threshold: Duration,
    /// Capacity of the forensic flight recorder (rounded up to a power of
    /// two, minimum 8): how many recent events a `TRACE` scrape can replay.
    pub trace_events: usize,
    /// Admission control: the most connections allowed open at once. Past
    /// it the acceptor answers a typed `BUSY` frame (with the
    /// [`ServerConfig::busy_retry_after`] hint) and closes, instead of
    /// serving without bound. `0` disables the bound.
    pub max_conns: usize,
    /// The retry-after hint carried in `BUSY` responses.
    pub busy_retry_after: Duration,
    /// Graceful degradation: a connection pinned at the pending-write
    /// high-water mark (the peer stopped reading its responses) for longer
    /// than this grace period is evicted, freeing its buffers instead of
    /// holding them hostage indefinitely.
    pub slow_consumer_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            rotation_seed: 0x5EED_0F0D_D5EE_D545,
            poll_interval: Duration::from_millis(25),
            slow_request_threshold: Duration::from_millis(100),
            trace_events: 1024,
            // Far above the perf lab's 8k-connection tier: the default
            // bound guards memory, not ordinary load.
            max_conns: 16_384,
            busy_retry_after: Duration::from_millis(100),
            slow_consumer_grace: Duration::from_secs(5),
        }
    }
}

/// Shared state of a running server.
pub(crate) struct Inner {
    pub(crate) store: Arc<dyn ServeStore>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) rotation_rng: Mutex<StdRng>,
    pub(crate) requests_served: AtomicU64,
    pub(crate) max_frame_bytes: u32,
    pub(crate) poll_interval: Duration,
    /// Recycled per-connection read/write buffers, shared by every shard.
    pub(crate) buffers: BufferPool,
    /// Serving-layer telemetry (the store carries its own registry).
    pub(crate) metrics: ServerMetrics,
    /// When the server spawned, for the uptime gauge.
    pub(crate) started: Instant,
    /// The forensic flight recorder, shared with the store (which records
    /// alarm, fsync-stall and snapshot events into it).
    pub(crate) recorder: Arc<FlightRecorder>,
    /// Per-connection drift attribution: fresh-bits-per-insert EWMAs and
    /// the top-K suspect ranking `TRACE` exposes.
    pub(crate) suspects: SuspectTable,
    /// Next connection id minus one; ids are allocated from 1 (0 means "no
    /// connection" in trace events).
    next_conn_id: AtomicU64,
    /// See [`ServerConfig::slow_request_threshold`].
    pub(crate) slow_request_threshold: Duration,
    /// See [`ServerConfig::busy_retry_after`].
    pub(crate) busy_retry_after: Duration,
    /// See [`ServerConfig::slow_consumer_grace`].
    pub(crate) slow_consumer_grace: Duration,
    /// See [`ServerConfig::max_conns`].
    max_conns: usize,
    /// Accepted sockets not yet closed: counted up at admission, down on
    /// every path that drops one (see [`Inner::release_conn`]).
    open_conns: AtomicUsize,
}

impl Inner {
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Allocates the next connection id (unique across shards).
    pub(crate) fn next_conn_id(&self) -> u64 {
        self.next_conn_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Counts a freshly accepted socket against [`ServerConfig::max_conns`];
    /// `false` means the server is full and the socket must be refused.
    /// Only the acceptor thread admits, so the check cannot overshoot. The
    /// count guards no other data, hence `Relaxed`: a stale read can only
    /// refuse a connection a moment too long.
    pub(crate) fn admit_conn(&self) -> bool {
        if self.max_conns > 0 && self.open_conns.load(Ordering::Relaxed) >= self.max_conns {
            return false;
        }
        self.open_conns.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Returns an admitted socket's slot once it has been dropped.
    pub(crate) fn release_conn(&self) {
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The TCP serving layer: binds a listener and spawns the reactor
/// threads. See [`Server::spawn`].
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and starts
    /// serving `store` — any [`ServeStore`], so a `BloomStore` of any
    /// filter family (an `Arc<BloomStore<B>>` coerces at the call). Returns
    /// a handle owning the background threads. On a platform without epoll
    /// this fails with [`io::ErrorKind::Unsupported`].
    pub fn spawn(
        store: Arc<dyn ServeStore>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = ServerMetrics::new();
        let buffers = BufferPool::instrumented(
            Arc::clone(&metrics.pool_hits),
            Arc::clone(&metrics.pool_misses),
            Arc::clone(&metrics.pool_trims),
        );
        // The recorder is shared with the store before serving starts, so
        // store-side events (alarm trips, fsync stalls, snapshots) land in
        // the same timeline as connection and batch events.
        let recorder = Arc::new(FlightRecorder::new(config.trace_events));
        store.metrics().attach_recorder(Arc::clone(&recorder));
        let inner = Arc::new(Inner {
            store,
            shutdown: AtomicBool::new(false),
            rotation_rng: Mutex::new(StdRng::seed_from_u64(config.rotation_seed)),
            requests_served: AtomicU64::new(0),
            max_frame_bytes: config.max_frame_bytes,
            poll_interval: config.poll_interval,
            buffers,
            metrics,
            started: Instant::now(),
            recorder,
            suspects: SuspectTable::new(SUSPECT_CAPACITY),
            next_conn_id: AtomicU64::new(0),
            slow_request_threshold: config.slow_request_threshold,
            busy_retry_after: config.busy_retry_after,
            slow_consumer_grace: config.slow_consumer_grace,
            max_conns: config.max_conns,
            open_conns: AtomicUsize::new(0),
        });
        let (threads, wakers) =
            reactor::spawn(&inner, listener, config.workers, config.poll_interval)?;
        Ok(ServerHandle { local_addr, inner, threads, wakers })
    }
}

/// Handle to a running server: address introspection and graceful shutdown.
/// Dropping the handle also shuts the server down.
pub struct ServerHandle {
    local_addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
    /// One wake pipe per reactor shard, so shutdown interrupts `epoll_wait`
    /// instead of waiting out a poll tick.
    wakers: Vec<reactor::Waker>,
}

impl ServerHandle {
    /// The address the server is listening on (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests served so far, across all connections.
    pub fn requests_served(&self) -> u64 {
        self.inner.requests_served.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, let every open connection finish
    /// the requests it has buffered, and join all threads. Bounded by the
    /// configured poll interval plus in-flight request time.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.threads.is_empty() {
            return; // already shut down (shutdown() ran; this is its Drop)
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // The acceptor notices the flag within one poll tick and exits;
        // reactors are woken explicitly.
        for waker in &self.wakers {
            reactor::wake(waker);
        }
        for thread in self.threads.drain(..) {
            drop(thread.join());
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
