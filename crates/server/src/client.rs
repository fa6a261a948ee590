//! The matching TCP client: typed request/response helpers over the shared
//! wire codec, with explicit pipelining.
//!
//! The convenience methods ([`Client::insert`], [`Client::query_batch`], …)
//! are one round trip each. For throughput, pipeline: [`Client::send`] a
//! burst of commands without waiting, then [`Client::recv`] the responses
//! in order — the first `recv` flushes the write buffer, so a burst of
//! frames crosses the network in one write and the server answers them all
//! from one read.
//!
//! **Bound your bursts.** The server's epoll reactor never blocks on a
//! peer: it queues a connection's un-sent responses up to a high-water
//! mark, then stops reading that connection's requests until the client
//! drains them, and evicts a peer that stays at the mark past
//! `ServerConfig::slow_consumer_grace`. A client that keeps sending while
//! never receiving therefore blocks in its own request writes and is then
//! disconnected, losing whatever was still in flight. Keep the responses
//! outstanding per burst comfortably under the socket-buffer scale — tens
//! of kilobytes, i.e. thousands of single-op commands or dozens of batch
//! frames — and prefer `MINSERT`/`MQUERY` batch frames over long runs of
//! single-op frames: one batch frame earns one small response.

use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use evilbloom_store::{BatchOutcome, SnapshotInfo, StoreStats};

use crate::retry::RetryPolicy;
use crate::wire::{self, Command, Response, WireError, WireTrace, DEFAULT_MAX_FRAME_BYTES};

/// Errors a client call can surface.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent bytes that do not decode as a response frame.
    Wire(WireError),
    /// The server answered with an `ERROR` response.
    Remote(String),
    /// The server answered with an `UNSUPPORTED` response: the served
    /// filter family cannot honour the request (e.g. `DELETE` against a
    /// plain Bloom backend). The connection remains usable.
    Unsupported(String),
    /// The server answered with the wrong response kind for the request.
    Unexpected {
        /// Response the request called for.
        expected: &'static str,
        /// Response that actually arrived.
        got: &'static str,
    },
    /// The server closed the connection while a response was outstanding.
    Disconnected,
    /// The server refused admission with a typed `BUSY` response; retry
    /// after the hinted delay. Safe to retry even for writes — a `BUSY`
    /// request was never executed.
    Busy {
        /// Server's hint for how long to back off before retrying.
        retry_after_ms: u32,
    },
    /// The server is in degraded read-only mode (its WAL broke) and
    /// refused a write with a typed `DEGRADED` response. Not retryable:
    /// the condition persists until an operator-triggered `SNAPSHOT`
    /// repairs the log. The connection remains usable for reads.
    Degraded(String),
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Remote(message) => write!(f, "server error: {message}"),
            ClientError::Unsupported(message) => {
                write!(f, "unsupported by the served backend: {message}")
            }
            ClientError::Unexpected { expected, got } => {
                write!(f, "expected {expected} response, got {got}")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server is overloaded, retry after {retry_after_ms}ms")
            }
            ClientError::Degraded(reason) => {
                write!(f, "server is in degraded read-only mode: {reason}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Deadlines, frame cap and retry budget for a client connection.
///
/// [`Client::connect`] uses OS defaults (no deadlines) for backwards
/// compatibility; [`Client::connect_with`] and the resilient layers
/// ([`ResilientClient`], [`crate::ClientPool`]) take a config.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection (per resolved
    /// address). `None` blocks on the OS default, which against a
    /// blackholed address can be minutes.
    pub connect_timeout: Option<Duration>,
    /// Per-request deadline, applied as the socket read *and* write
    /// timeout: any single `send`/`recv` that stalls longer fails with
    /// a timeout [`ClientError::Io`].
    pub request_timeout: Option<Duration>,
    /// Frame cap enforced in both directions (see
    /// [`Client::set_max_frame_bytes`]).
    pub max_frame_bytes: u32,
    /// Retry budget and backoff schedule for [`ResilientClient`].
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            request_timeout: Some(Duration::from_secs(30)),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            retry: RetryPolicy::default(),
        }
    }
}

/// A connection to an evilbloom server.
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    scratch: Vec<u8>,
    max_frame_bytes: u32,
}

impl Client {
    /// Connects (with `TCP_NODELAY`, so single-op latency is not at the
    /// mercy of Nagle's algorithm). No deadlines: use
    /// [`Client::connect_with`] when the peer may be unreachable or slow.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream, None, DEFAULT_MAX_FRAME_BYTES)
    }

    /// Connects with deadlines: each resolved address is tried with
    /// `ClientConfig::connect_timeout` (so a blackholed address fails
    /// fast instead of hanging for the OS-default minutes), and the
    /// resulting socket carries `ClientConfig::request_timeout` as its
    /// read/write deadline.
    pub fn connect_with(addr: impl ToSocketAddrs, config: &ClientConfig) -> io::Result<Client> {
        let mut last_err = None;
        for addr in addr.to_socket_addrs()? {
            let attempt = match config.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(&addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    return Client::from_stream(
                        stream,
                        config.request_timeout,
                        config.max_frame_bytes,
                    );
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, "address resolved to no candidates")
        }))
    }

    fn from_stream(
        stream: TcpStream,
        request_timeout: Option<Duration>,
        max_frame_bytes: u32,
    ) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(request_timeout)?;
        stream.set_write_timeout(request_timeout)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            frame: Vec::new(),
            scratch: Vec::new(),
            max_frame_bytes,
        })
    }

    /// Sets the frame cap this client enforces on both directions (default
    /// [`DEFAULT_MAX_FRAME_BYTES`]); match it to the server's
    /// `ServerConfig::max_frame_bytes` when that was changed.
    pub fn set_max_frame_bytes(&mut self, max_frame_bytes: u32) {
        self.max_frame_bytes = max_frame_bytes;
    }

    /// Queues one command into the write buffer without flushing — the
    /// pipelining primitive. Pair every `send` with one [`Client::recv`].
    ///
    /// A command that encodes above the frame cap is rejected here, before
    /// any bytes leave the client — the server would answer it with an
    /// `ERROR` and close the connection, a far more confusing failure.
    pub fn send(&mut self, command: &Command<'_>) -> io::Result<()> {
        self.scratch.clear();
        command
            .encode(&mut self.scratch)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let payload_len = (self.scratch.len() - 4) as u64;
        if payload_len > u64::from(self.max_frame_bytes) {
            // Report the *true* payload length: a frame billions of bytes
            // over the cap used to be clamped to `u32::MAX` in this error,
            // hiding how oversized the request really was.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                WireError::Oversized { len: payload_len, max: self.max_frame_bytes }.to_string(),
            ));
        }
        self.writer.write_all(&self.scratch)
    }

    /// Flushes queued commands to the socket. [`Client::recv`] does this
    /// automatically before blocking.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Receives the next response in order. Flushes first, so a
    /// send-burst-then-recv-loop cannot deadlock on an unflushed request.
    /// `ERROR` responses surface as [`ClientError::Remote`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        self.flush()?;
        if !wire::read_frame(&mut self.reader, &mut self.frame, self.max_frame_bytes)? {
            return Err(ClientError::Disconnected);
        }
        match Response::decode(&self.frame)? {
            Response::Error(message) => Err(ClientError::Remote(message)),
            Response::Unsupported(message) => Err(ClientError::Unsupported(message)),
            Response::Busy { retry_after_ms } => Err(ClientError::Busy { retry_after_ms }),
            Response::Degraded(reason) => Err(ClientError::Degraded(reason)),
            response => Ok(response),
        }
    }

    fn call(&mut self, command: &Command<'_>) -> Result<Response, ClientError> {
        self.send(command)?;
        self.recv()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Command::Ping)? {
            Response::Pong => Ok(()),
            other => unexpected("PONG", &other),
        }
    }

    /// Inserts one item; returns the number of fresh bits it set.
    pub fn insert(&mut self, item: &[u8]) -> Result<u32, ClientError> {
        match self.call(&Command::Insert(item))? {
            Response::Inserted { fresh_bits } => Ok(fresh_bits),
            other => unexpected("INSERTED", &other),
        }
    }

    /// Membership query (positives may be false positives).
    pub fn query(&mut self, item: &[u8]) -> Result<bool, ClientError> {
        match self.call(&Command::Query(item))? {
            Response::Found(found) => Ok(found),
            other => unexpected("FOUND", &other),
        }
    }

    /// Batch insert: one frame, one shard-lock visit per shard.
    pub fn insert_batch<I: AsRef<[u8]>>(
        &mut self,
        items: &[I],
    ) -> Result<BatchOutcome, ClientError> {
        let borrowed: Vec<&[u8]> = items.iter().map(AsRef::as_ref).collect();
        match self.call(&Command::InsertBatch(borrowed))? {
            Response::BatchInserted { items, fresh_bits } => {
                Ok(BatchOutcome { items: items as usize, fresh_bits })
            }
            other => unexpected("MINSERTED", &other),
        }
    }

    /// Batch query; answers are in input order.
    pub fn query_batch<I: AsRef<[u8]>>(&mut self, items: &[I]) -> Result<Vec<bool>, ClientError> {
        let borrowed: Vec<&[u8]> = items.iter().map(AsRef::as_ref).collect();
        match self.call(&Command::QueryBatch(borrowed))? {
            Response::BatchFound(answers) if answers.len() == items.len() => Ok(answers),
            Response::BatchFound(_) => {
                Err(ClientError::Wire(WireError::Malformed("answer count mismatch")))
            }
            other => unexpected("MFOUND", &other),
        }
    }

    /// Deletes one item (deletable filter families); returns whether it was
    /// (probably) present. [`ClientError::Unsupported`] on families without
    /// deletion — the connection stays usable.
    pub fn delete(&mut self, item: &[u8]) -> Result<bool, ClientError> {
        match self.call(&Command::Delete(item))? {
            Response::Deleted { was_present } => Ok(was_present),
            other => unexpected("DELETED", &other),
        }
    }

    /// Batch delete; answers are in input order.
    pub fn delete_batch<I: AsRef<[u8]>>(&mut self, items: &[I]) -> Result<Vec<bool>, ClientError> {
        let borrowed: Vec<&[u8]> = items.iter().map(AsRef::as_ref).collect();
        match self.call(&Command::DeleteBatch(borrowed))? {
            Response::BatchDeleted(answers) if answers.len() == items.len() => Ok(answers),
            Response::BatchDeleted(_) => {
                Err(ClientError::Wire(WireError::Malformed("answer count mismatch")))
            }
            other => unexpected("MDELETED", &other),
        }
    }

    /// Health snapshot, including per-shard pollution alarms.
    pub fn stats(&mut self) -> Result<StoreStats, ClientError> {
        match self.call(&Command::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => unexpected("STATS", &other),
        }
    }

    /// Starts a key rotation on one shard. Returns the new generation id,
    /// or `None` if a rotation was already draining there.
    pub fn rotate_begin(&mut self, shard: u32) -> Result<Option<u64>, ClientError> {
        match self.call(&Command::RotateBegin { shard })? {
            Response::Rotated { generation } => Ok(generation),
            other => unexpected("ROTATED", &other),
        }
    }

    /// Completes a shard's rotation (call after replaying the item set).
    pub fn rotate_complete(&mut self, shard: u32) -> Result<bool, ClientError> {
        match self.call(&Command::RotateComplete { shard })? {
            Response::RotationCompleted(completed) => Ok(completed),
            other => unexpected("ROTATION_COMPLETED", &other),
        }
    }

    /// Asks the server to write a durable snapshot (rotating its WAL so the
    /// snapshot plus later log segments reconstruct the exact bit state).
    /// Fails with [`ClientError::Remote`] when the server has no
    /// persistence enabled.
    pub fn snapshot(&mut self) -> Result<SnapshotInfo, ClientError> {
        match self.call(&Command::Snapshot)? {
            Response::Snapshotted(info) => Ok(info),
            other => unexpected("SNAPSHOTTED", &other),
        }
    }

    /// Scrapes the server's runtime telemetry as a text exposition
    /// (counters, gauges, latency histograms with quantiles — including the
    /// `evilbloom_store_bits_per_insert_recent` pollution-drift gauge).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Command::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => unexpected("METRICS", &other),
        }
    }

    /// Fetches the server's forensic trace: recent flight-recorder events,
    /// the per-connection suspect ranking (fresh-bits-per-insert EWMAs)
    /// and the pollution-drift timeline. Render it for humans with
    /// [`WireTrace::render`].
    pub fn trace(&mut self) -> Result<WireTrace, ClientError> {
        match self.call(&Command::Trace)? {
            Response::Trace(trace) => Ok(trace),
            other => unexpected("TRACE", &other),
        }
    }
}

fn unexpected<T>(expected: &'static str, got: &Response) -> Result<T, ClientError> {
    Err(ClientError::Unexpected { expected, got: got.name() })
}

/// What the retry loop should do with a failed attempt.
struct Verdict {
    /// Whether the error class is transient (the attempt may be replayed).
    retryable: bool,
    /// Whether the connection is no longer trustworthy and must be
    /// re-dialled before the next attempt.
    reconnect: bool,
    /// Server-provided floor for the next delay (`BUSY` retry-after).
    hint: Option<Duration>,
}

fn classify(err: &ClientError, idempotent: bool, retry_writes: bool) -> Verdict {
    match err {
        // BUSY is always safe to retry — an admission-rejected request was
        // never executed — but the server writes it at accept time and
        // then drops the socket, so re-dial.
        ClientError::Busy { retry_after_ms } => Verdict {
            retryable: true,
            reconnect: true,
            hint: Some(Duration::from_millis(u64::from(*retry_after_ms))),
        },
        // Connection-level failures: the request may or may not have been
        // applied, so only idempotent requests (or writes explicitly opted
        // in) are replayed.
        ClientError::Io(_) | ClientError::Disconnected => {
            Verdict { retryable: idempotent || retry_writes, reconnect: true, hint: None }
        }
        // The stream decoded garbage or answered out of order: re-dialling
        // could help a retryable request, but framing corruption usually
        // means a bug, so surface it.
        ClientError::Wire(_) | ClientError::Unexpected { .. } => {
            Verdict { retryable: false, reconnect: true, hint: None }
        }
        // Typed refusals on a healthy connection: retrying cannot change
        // the answer (degraded mode persists until an operator repairs the
        // WAL; ERROR closes the connection server-side).
        ClientError::Degraded(_) | ClientError::Unsupported(_) => {
            Verdict { retryable: false, reconnect: false, hint: None }
        }
        ClientError::Remote(_) => Verdict { retryable: false, reconnect: true, hint: None },
    }
}

/// A self-healing client: owns the server address and a [`ClientConfig`],
/// re-dials dropped connections, and retries failed requests on the
/// seeded decorrelated-jitter schedule of [`RetryPolicy`].
///
/// Retrying is idempotency-aware: reads (`QUERY`/`MQUERY`/`STATS`/
/// `METRICS`/`TRACE`/`PING`) retry freely, `BUSY` rejections retry for
/// every request kind (a rejected request was never executed), but
/// mutations (`INSERT`/`MINSERT`/`DELETE`/`MDELETE`) are replayed after a
/// connection-level failure only when the policy opted in via
/// [`RetryPolicy::retrying_writes`] — a write whose ack was lost may have
/// been applied, and replaying it double-counts on counting filters.
pub struct ResilientClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    conn: Option<Client>,
    reconnects: u64,
    retries: u64,
}

impl ResilientClient {
    /// Resolves `addr` once and dials eagerly with the config's connect
    /// deadline.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<ResilientClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to no candidates",
            ));
        }
        let conn = Client::connect_with(addrs.as_slice(), &config)?;
        Ok(ResilientClient { addrs, config, conn: Some(conn), reconnects: 0, retries: 0 })
    }

    /// Connections re-dialled after a failure (the initial dial is not
    /// counted).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Attempts replayed after a transient failure.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn ensure(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let conn = Client::connect_with(self.addrs.as_slice(), &self.config)?;
            self.conn = Some(conn);
            self.reconnects += 1;
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    fn run<T>(
        &mut self,
        idempotent: bool,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut backoff = self.config.retry.backoff();
        loop {
            let attempt = self.ensure().and_then(&mut op);
            let err = match attempt {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            let verdict = classify(&err, idempotent, self.config.retry.retry_writes);
            if verdict.reconnect {
                self.conn = None;
            }
            if !verdict.retryable {
                return Err(err);
            }
            match backoff.next_delay() {
                Some(delay) => {
                    self.retries += 1;
                    std::thread::sleep(verdict.hint.map_or(delay, |hint| delay.max(hint)));
                }
                None => return Err(err),
            }
        }
    }

    /// Liveness probe (retried freely).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.run(true, |c| c.ping())
    }

    /// Membership query (retried freely).
    pub fn query(&mut self, item: &[u8]) -> Result<bool, ClientError> {
        self.run(true, |c| c.query(item))
    }

    /// Batch query (retried freely).
    pub fn query_batch<I: AsRef<[u8]>>(&mut self, items: &[I]) -> Result<Vec<bool>, ClientError> {
        self.run(true, |c| c.query_batch(items))
    }

    /// Health snapshot (retried freely).
    pub fn stats(&mut self) -> Result<StoreStats, ClientError> {
        self.run(true, |c| c.stats())
    }

    /// Telemetry scrape (retried freely).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.run(true, |c| c.metrics())
    }

    /// Forensic trace fetch (retried freely).
    pub fn trace(&mut self) -> Result<WireTrace, ClientError> {
        self.run(true, |c| c.trace())
    }

    /// Durable snapshot request. Safe to repeat (a second snapshot of the
    /// same state is a no-op for correctness), so retried freely.
    pub fn snapshot(&mut self) -> Result<SnapshotInfo, ClientError> {
        self.run(true, |c| c.snapshot())
    }

    /// Single insert — replayed after connection failures only with
    /// [`RetryPolicy::retrying_writes`]; `BUSY` rejections always retry.
    pub fn insert(&mut self, item: &[u8]) -> Result<u32, ClientError> {
        self.run(false, |c| c.insert(item))
    }

    /// Batch insert — same idempotency rules as [`ResilientClient::insert`].
    pub fn insert_batch<I: AsRef<[u8]>>(
        &mut self,
        items: &[I],
    ) -> Result<BatchOutcome, ClientError> {
        self.run(false, |c| c.insert_batch(items))
    }

    /// Single delete — same idempotency rules as [`ResilientClient::insert`].
    pub fn delete(&mut self, item: &[u8]) -> Result<bool, ClientError> {
        self.run(false, |c| c.delete(item))
    }

    /// Batch delete — same idempotency rules as [`ResilientClient::insert`].
    pub fn delete_batch<I: AsRef<[u8]>>(&mut self, items: &[I]) -> Result<Vec<bool>, ClientError> {
        self.run(false, |c| c.delete_batch(items))
    }
}
