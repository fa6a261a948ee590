//! A small client-side connection pool: checkout/checkin with
//! dead-connection replacement, plus pipelined batch helpers that spread
//! one logical request over several sockets.
//!
//! One pipelined connection already hides per-request latency, but it is
//! still a single TCP stream: one in-order byte pipe, one reactor event
//! source on the server. Spreading the frames
//! of a large batch over a few pooled connections lets the server work the
//! lanes independently — this is how `examples/remote_attack.rs` delivers
//! the paper's crafted insertions ([`ClientPool::minsert_pooled`]) and
//! measures the induced false-positive rate ([`ClientPool::mquery_pooled`]).
//!
//! The pool is deliberately synchronous and single-owner (`&mut self`): it
//! models one attacking/operating process, not a shared middleware pool.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

use crate::client::{Client, ClientConfig, ClientError};
use crate::wire::{Command, Response, WireError};

/// A `frame_items` for the pooled batch helpers: large enough to amortise
/// framing, small enough that several frames exist to stripe over the
/// lanes.
pub const POOL_FRAME_ITEMS: usize = 512;

/// Health counters for one [`ClientPool`] (monotonic since `connect`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolHealth {
    /// Pooled connections that failed the checkout liveness probe and
    /// were dropped.
    pub dead_dropped: u64,
    /// Fresh connections dialled to replace dead ones (eager replacement
    /// plus the replacement dial inside a validated checkout).
    pub replacements: u64,
}

/// A pool of connections to one server, with checkout/checkin reuse,
/// dead-connection replacement, and pipelined pooled batch helpers.
pub struct ClientPool {
    addr: SocketAddr,
    config: ClientConfig,
    idle: Vec<Client>,
    target: usize,
    health: PoolHealth,
}

impl ClientPool {
    /// Resolves `addr` and eagerly dials `target` connections (the pool's
    /// steady-state size; `checkout` dials extra ones on demand and
    /// `checkin` drops extras beyond it). Uses [`ClientConfig::default`]
    /// deadlines; see [`ClientPool::connect_with`] to tune them.
    pub fn connect(addr: impl ToSocketAddrs, target: usize) -> io::Result<ClientPool> {
        ClientPool::connect_with(addr, target, ClientConfig::default())
    }

    /// Like [`ClientPool::connect`], with explicit connect/request
    /// deadlines for every dial the pool ever makes.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        target: usize,
        config: ClientConfig,
    ) -> io::Result<ClientPool> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let target = target.max(1);
        let mut idle = Vec::with_capacity(target);
        for _ in 0..target {
            idle.push(Client::connect_with(addr, &config)?);
        }
        Ok(ClientPool { addr, config, idle, target, health: PoolHealth::default() })
    }

    /// The server address every pooled connection dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.idle.len()
    }

    /// Dead-connection counters: probes failed, replacements dialled.
    pub fn health(&self) -> PoolHealth {
        self.health
    }

    fn dial(&self) -> io::Result<Client> {
        Client::connect_with(self.addr, &self.config)
    }

    /// Checks a connection out of the pool, dialing a fresh one when the
    /// pool is empty. The connection is handed over as-is (no liveness
    /// probe); use [`ClientPool::checkout_validated`] after a server may
    /// have restarted.
    pub fn checkout(&mut self) -> io::Result<Client> {
        match self.idle.pop() {
            Some(client) => Ok(client),
            None => self.dial(),
        }
    }

    /// Like [`ClientPool::checkout`], but pings the pooled connection
    /// first: a dead one (server restarted, idle timeout, reset) is dropped
    /// and **eagerly replaced** with a fresh dial instead of surfacing as a
    /// confusing mid-request transport error. Replacements are counted in
    /// [`ClientPool::health`], so operators can see churn (a steadily
    /// climbing `replacements` means the server keeps resetting idle
    /// connections).
    pub fn checkout_validated(&mut self) -> io::Result<Client> {
        let mut dead = 0u64;
        let live = loop {
            match self.idle.pop() {
                Some(mut client) => {
                    if client.ping().is_ok() {
                        break Some(client);
                    }
                    // Dead connection: drop it and keep probing the pool.
                    dead += 1;
                }
                None => break None,
            }
        };
        self.health.dead_dropped += dead;
        // Eagerly refill what the probe culled, so the next checkout does
        // not pay the same dial latency again. Best-effort: if the server
        // is down, the failed dials are not worth surfacing here — the
        // caller's own dial below will report the condition.
        for _ in 0..dead {
            if self.idle.len() >= self.target {
                break;
            }
            match self.dial() {
                Ok(fresh) => {
                    self.idle.push(fresh);
                    self.health.replacements += 1;
                }
                Err(_) => break,
            }
        }
        match live {
            Some(client) => Ok(client),
            None => {
                let client = self.dial()?;
                if dead > 0 {
                    self.health.replacements += 1;
                }
                Ok(client)
            }
        }
    }

    /// Returns a connection to the pool. Connections beyond the target size
    /// are dropped. Do **not** check in a connection after an error on it —
    /// its stream may hold half-read responses; drop it instead and let the
    /// pool dial a replacement.
    pub fn checkin(&mut self, client: Client) {
        if self.idle.len() < self.target {
            self.idle.push(client);
        }
    }

    /// Pipelined pooled batch insert: splits `items` into `MINSERT` frames
    /// of `frame_items` and spreads them round-robin over up to the pool's
    /// target number of connections, all frames in flight before the first
    /// response is awaited. Returns the total number of fresh bits set.
    pub fn minsert_pooled<I: AsRef<[u8]>>(
        &mut self,
        items: &[I],
        frame_items: usize,
    ) -> Result<u64, ClientError> {
        let mut fresh_bits = 0u64;
        self.striped(items, frame_items, Command::InsertBatch, |response, sent| match response {
            Response::BatchInserted { items, fresh_bits: fresh } if items as usize == sent => {
                fresh_bits += fresh;
                Ok(())
            }
            Response::BatchInserted { .. } => {
                Err(ClientError::Wire(WireError::Malformed("item count mismatch")))
            }
            other => Err(ClientError::Unexpected { expected: "MINSERTED", got: other.name() }),
        })?;
        Ok(fresh_bits)
    }

    /// Pipelined pooled batch query: like [`ClientPool::minsert_pooled`]
    /// but with `MQUERY` frames; answers come back in `items` order.
    pub fn mquery_pooled<I: AsRef<[u8]>>(
        &mut self,
        items: &[I],
        frame_items: usize,
    ) -> Result<Vec<bool>, ClientError> {
        let mut answers = Vec::with_capacity(items.len());
        self.striped(items, frame_items, Command::QueryBatch, |response, sent| match response {
            Response::BatchFound(found) if found.len() == sent => {
                answers.extend(found);
                Ok(())
            }
            Response::BatchFound(_) => {
                Err(ClientError::Wire(WireError::Malformed("answer count mismatch")))
            }
            other => Err(ClientError::Unexpected { expected: "MFOUND", got: other.name() }),
        })?;
        Ok(answers)
    }

    /// The striping loop behind the pooled batch helpers: splits `items`
    /// into `frame`s of `frame_items`, sends every frame round-robin over
    /// the lanes, then hands each response to `accept` in send order with
    /// the number of items its frame carried. The lanes are checked back in
    /// only if every response was accepted.
    fn striped<'i, I: AsRef<[u8]>>(
        &mut self,
        items: &'i [I],
        frame_items: usize,
        frame: impl Fn(Vec<&'i [u8]>) -> Command<'i>,
        mut accept: impl FnMut(Response, usize) -> Result<(), ClientError>,
    ) -> Result<(), ClientError> {
        let chunks: Vec<&'i [I]> = items.chunks(frame_items.max(1)).collect();
        let mut lanes = self.lanes(chunks.len())?;
        let lane_count = lanes.len();
        for (i, chunk) in chunks.iter().enumerate() {
            let borrowed: Vec<&'i [u8]> = chunk.iter().map(AsRef::as_ref).collect();
            lanes[i % lane_count].send(&frame(borrowed))?;
        }
        for (i, chunk) in chunks.iter().enumerate() {
            accept(lanes[i % lane_count].recv()?, chunk.len())?;
        }
        self.checkin_all(lanes);
        Ok(())
    }

    /// Runs one call on one validated pooled connection (see
    /// [`ClientPool::checkout_validated`]) and checks the connection back
    /// in when the call succeeded. A connection whose call failed is
    /// dropped, not checked in: its stream may hold half-read responses.
    /// Server-global requests need only one lane:
    /// `pool.with_connection(|c| c.stats())`.
    pub fn with_connection<T>(
        &mut self,
        call: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut client = self.checkout_validated()?;
        let value = call(&mut client)?;
        self.checkin(client);
        Ok(value)
    }

    /// Checks out the connections a pooled call will stripe over: the pool
    /// target, but never more than there are frames to send.
    fn lanes(&mut self, frames: usize) -> Result<Vec<Client>, ClientError> {
        let count = self.target.min(frames.max(1));
        let mut lanes = Vec::with_capacity(count);
        for _ in 0..count {
            lanes.push(self.checkout_validated()?);
        }
        Ok(lanes)
    }

    fn checkin_all(&mut self, lanes: Vec<Client>) {
        for lane in lanes {
            self.checkin(lane);
        }
    }
}
