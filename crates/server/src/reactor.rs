//! The Linux epoll reactor: the server's I/O engine.
//!
//! Layout: one acceptor thread (the resilient, admission-controlled accept
//! loop in `backend.rs`) hands accepted sockets round-robin to N *reactor
//! shards*. Each shard owns an epoll instance and a set of non-blocking
//! [`crate::conn`] connection state machines; a readiness event drives the
//! state machine (read-accumulate → decode/execute all complete frames →
//! buffered write with `WouldBlock`-aware flush), and `EPOLLOUT` is armed
//! only while a flush came up short. Connection count is therefore bounded
//! by file descriptors and the admission cap — C10k-scale — not by
//! threads, while CPU parallelism comes from the shard count. Once per poll
//! tick each shard also evicts peers that stopped reading their responses.
//!
//! The build environment is offline (no `libc`/`mio`), so the four syscalls
//! epoll needs are declared directly in [`sys`] — the only `unsafe` in the
//! crate, confined to that module behind a safe [`Epoll`] wrapper. The
//! acceptor→shard handoff uses an mpsc channel per shard plus a
//! `UnixStream` wake pipe registered in the shard's epoll set (writing one
//! byte is the cross-thread "you have work" signal; shutdown uses the same
//! pipes so it never waits out a full poll tick).

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use evilbloom_metrics::{log_error, log_warn};
use evilbloom_trace::TraceEvent;

use crate::backend::acceptor_loop;
use crate::conn::{Connection, Status, READ_CHUNK};
use crate::server::Inner;

/// Raw syscall surface: exactly what an epoll reactor needs, nothing more.
/// Kept `unsafe`-in-one-place behind the safe [`Epoll`] wrapper.
#[allow(unsafe_code)]
mod sys {
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    /// The kernel's `struct epoll_event`. x86-64 is the one ABI where the
    /// kernel declares it packed (no padding between `events` and `data`).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub fn create1(flags: i32) -> i32 {
        // SAFETY: no pointers; returns a new fd or -1 with errno set.
        unsafe { epoll_create1(flags) }
    }

    pub fn ctl(epfd: i32, op: i32, fd: i32, event: Option<&mut EpollEvent>) -> i32 {
        let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is null (allowed for DEL) or a valid, live
        // `EpollEvent` the kernel only reads during the call.
        unsafe { epoll_ctl(epfd, op, fd, ptr) }
    }

    pub fn wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> i32 {
        // SAFETY: the pointer/length pair describes exactly the caller's
        // buffer, which outlives the call; the kernel writes at most
        // `events.len()` entries.
        unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) }
    }

    pub fn close_fd(fd: i32) {
        // SAFETY: called only from `Epoll::drop` on an fd this process owns.
        unsafe {
            close(fd);
        }
    }
}

/// Safe wrapper around one epoll instance.
struct Epoll {
    fd: i32,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let fd = sys::create1(sys::EPOLL_CLOEXEC);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn add(&self, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let mut event = sys::EpollEvent { events: interest, data: token };
        self.ctl(sys::EPOLL_CTL_ADD, fd, Some(&mut event))
    }

    fn modify(&self, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let mut event = sys::EpollEvent { events: interest, data: token };
        self.ctl(sys::EPOLL_CTL_MOD, fd, Some(&mut event))
    }

    fn delete(&self, fd: i32) {
        // Best-effort: the fd is about to be closed, which deregisters it
        // anyway.
        drop(self.ctl(sys::EPOLL_CTL_DEL, fd, None));
    }

    fn ctl(&self, op: i32, fd: i32, event: Option<&mut sys::EpollEvent>) -> io::Result<()> {
        if sys::ctl(self.fd, op, fd, event) < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits for readiness events; `EINTR` surfaces as an empty batch.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout: Duration) -> io::Result<usize> {
        let timeout_ms = timeout.as_millis().clamp(1, i32::MAX as u128) as i32;
        let n = sys::wait(self.fd, events, timeout_ms);
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

/// Token the wake pipe is registered under (no valid fd reaches u64::MAX).
const WAKE_TOKEN: u64 = u64::MAX;
/// Readiness events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 1024;

/// One reactor shard: an epoll set, the wake pipe, the handoff channel and
/// the connections this shard owns.
struct Reactor {
    epoll: Epoll,
    wake_rx: UnixStream,
    incoming: Receiver<TcpStream>,
    inner: Arc<Inner>,
}

/// A connection plus the epoll interest currently registered for it, so
/// interest changes issue `EPOLL_CTL_MOD` only when something changed.
struct Registered {
    conn: Connection,
    interest: u32,
}

fn desired_interest(conn: &Connection) -> u32 {
    let mut interest = 0;
    if conn.wants_read() {
        interest |= sys::EPOLLIN;
    }
    if conn.wants_write() {
        interest |= sys::EPOLLOUT;
    }
    interest
}

impl Reactor {
    fn new(
        inner: Arc<Inner>,
        wake_rx: UnixStream,
        incoming: Receiver<TcpStream>,
    ) -> io::Result<Reactor> {
        wake_rx.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(raw_fd(&wake_rx), sys::EPOLLIN, WAKE_TOKEN)?;
        Ok(Reactor { epoll, wake_rx, incoming, inner })
    }

    fn run(self) {
        let mut conns: HashMap<u64, Registered> = HashMap::new();
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        let mut scratch = vec![0u8; READ_CHUNK];
        let poll_interval = self.inner.poll_interval;
        let mut last_sweep = Instant::now();

        loop {
            let ready = match self.epoll.wait(&mut events, poll_interval) {
                Ok(ready) => ready,
                Err(error) => {
                    // The epoll fd itself failing is fatal to this shard;
                    // say so — a silently missing shard would only show up
                    // as mysteriously refused connections much later.
                    if !self.inner.is_shutdown() {
                        log_error!("reactor shard failed ({error}); exiting");
                    }
                    break;
                }
            };
            self.inner.metrics.reactor_wakeups.inc();
            if self.inner.is_shutdown() {
                break;
            }
            for event in &events[..ready] {
                let (bits, token) = (event.events, event.data);
                if token == WAKE_TOKEN {
                    self.drain_wake_pipe();
                    self.register_incoming(&mut conns);
                    continue;
                }
                let Some(registered) = conns.get_mut(&token) else {
                    continue; // closed earlier in this batch
                };
                let status = if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                    Status::Closed
                } else {
                    let mut status = Status::Open;
                    if bits & sys::EPOLLOUT != 0 {
                        status = registered.conn.flush(&self.inner);
                    }
                    if status == Status::Open && bits & sys::EPOLLIN != 0 {
                        status = registered.conn.on_readable(&mut scratch, &self.inner);
                    }
                    status
                };
                match status {
                    Status::Closed => self.close(conns.remove(&token).expect("present"), token),
                    Status::Open => {
                        let interest = desired_interest(&registered.conn);
                        if interest != registered.interest
                            && self.epoll.modify(token as i32, interest, token).is_ok()
                        {
                            if interest & sys::EPOLLOUT != 0
                                && registered.interest & sys::EPOLLOUT == 0
                            {
                                self.inner.metrics.reactor_epollout_arms.inc();
                            }
                            registered.interest = interest;
                        }
                    }
                }
            }
            // A handoff can race the previous wake drain; sweep the channel
            // even on a timeout tick so no accepted socket waits forever.
            self.register_incoming(&mut conns);
            // The eviction sweep is O(connections): run it once per poll
            // tick, not on every wakeup, so 8k idle connections do not tax
            // each active request.
            let now = Instant::now();
            if now.duration_since(last_sweep) >= poll_interval {
                last_sweep = now;
                self.evict_slow_consumers(&mut conns, now);
            }
        }
        // Shutdown: close every connection this shard owns, and release the
        // admission slots of sockets still waiting in the handoff channel.
        for (token, registered) in conns.drain() {
            self.close(registered, token);
        }
        while self.incoming.try_recv().is_ok() {
            self.inner.release_conn();
        }
    }

    fn drain_wake_pipe(&self) {
        let mut sink = [0u8; 64];
        while let Ok(n) = io::Read::read(&mut (&self.wake_rx), &mut sink) {
            if n < sink.len() {
                break;
            }
        }
    }

    fn register_incoming(&self, conns: &mut HashMap<u64, Registered>) {
        loop {
            let stream = match self.incoming.try_recv() {
                Ok(stream) => stream,
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return,
            };
            // A socket we cannot configure or register is dropped (closed);
            // the peer sees a reset, the reactor stays healthy.
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                self.inner.release_conn();
                continue;
            }
            let token = raw_fd(&stream) as u64;
            let conn_id = self.inner.next_conn_id();
            let conn = Connection::new(
                stream,
                conn_id,
                self.inner.buffers.checkout(),
                self.inner.buffers.checkout(),
            );
            let interest = desired_interest(&conn);
            if self.epoll.add(token as i32, interest, token).is_err() {
                self.recycle(conn);
                continue;
            }
            self.inner.metrics.connections_opened.inc();
            self.inner.recorder.record(TraceEvent::ConnOpened { conn_id });
            conns.insert(token, Registered { conn, interest });
        }
    }

    /// Graceful degradation under overload: a peer that lets its pending
    /// responses sit at the high-water mark past the grace period is
    /// holding server buffers hostage — evict it so the memory serves
    /// peers that are still reading. Runs once per poll tick; the sweep is
    /// O(connections), bounded by the same fd budget that bounds them.
    fn evict_slow_consumers(&self, conns: &mut HashMap<u64, Registered>, now: Instant) {
        let grace = self.inner.slow_consumer_grace;
        if grace.is_zero() {
            return;
        }
        let stalled: Vec<u64> = conns
            .iter()
            .filter(|(_, r)| r.conn.stalled_for(now).is_some_and(|d| d >= grace))
            .map(|(&token, _)| token)
            .collect();
        for token in stalled {
            let registered = conns.remove(&token).expect("present");
            log_warn!(
                "evicting slow consumer conn={} ({}ms past the write high-water mark)",
                registered.conn.conn_id(),
                grace.as_millis()
            );
            self.inner.metrics.slow_consumer_evictions.inc();
            self.close(registered, token);
        }
    }

    fn close(&self, registered: Registered, token: u64) {
        self.epoll.delete(token as i32);
        self.inner.recorder.record(TraceEvent::ConnClosed { conn_id: registered.conn.conn_id() });
        self.recycle(registered.conn);
        self.inner.metrics.connections_closed.inc();
    }

    /// Drops a connection's socket, returning its pooled buffers and its
    /// admission slot.
    fn recycle(&self, conn: Connection) {
        let (acc, out) = conn.into_buffers();
        self.inner.buffers.checkin(acc);
        self.inner.buffers.checkin(out);
        self.inner.release_conn();
    }
}

fn raw_fd<F: std::os::unix::io::AsRawFd>(f: &F) -> i32 {
    f.as_raw_fd()
}

/// Spawns `shards` reactor threads plus the acceptor.
/// Returns the background threads and one wake-pipe handle per shard (the
/// [`crate::ServerHandle`] writes to them on shutdown so no reactor waits
/// out a poll tick).
pub(crate) fn spawn(
    inner: &Arc<Inner>,
    listener: TcpListener,
    shards: usize,
    poll_interval: Duration,
) -> io::Result<(Vec<JoinHandle<()>>, Vec<Waker>)> {
    listener.set_nonblocking(true)?;

    let mut reactors = Vec::with_capacity(shards);
    let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(shards);
    let mut acceptor_wakers: Vec<UnixStream> = Vec::with_capacity(shards);
    let mut handle_wakers: Vec<UnixStream> = Vec::with_capacity(shards);

    // Build every shard's resources *before* spawning any thread: a
    // failure partway through (EMFILE while creating an epoll fd or a wake
    // pipe) must surface as a clean `Err` with everything dropped, not
    // leak already-running reactor threads that nothing can ever shut
    // down (no handle exists to set the shutdown flag).
    for _ in 0..shards.max(1) {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        let (tx, rx) = channel::<TcpStream>();
        reactors.push(Reactor::new(Arc::clone(inner), wake_rx, rx)?);
        handle_wakers.push(wake_tx.try_clone()?);
        acceptor_wakers.push(wake_tx);
        senders.push(tx);
    }
    let mut threads = Vec::with_capacity(reactors.len() + 1);
    for reactor in reactors {
        threads.push(std::thread::spawn(move || reactor.run()));
    }

    let acceptor = {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || {
            let mut next = 0usize;
            acceptor_loop(&listener, &inner, poll_interval, |stream| {
                // Round-robin handoff, failing over past dead shards: a
                // single shard dying must not stop the whole server from
                // accepting. Only when every shard's channel is gone
                // (shutdown, or total reactor loss) does accepting stop.
                let mut stream = Some(stream);
                for attempt in 0..senders.len() {
                    let shard = (next + attempt) % senders.len();
                    match senders[shard].send(stream.take().expect("stream present")) {
                        Ok(()) => {
                            next = next.wrapping_add(attempt + 1);
                            wake(&acceptor_wakers[shard]);
                            return true;
                        }
                        Err(returned) => stream = Some(returned.0),
                    }
                }
                if !inner.is_shutdown() {
                    log_warn!("all reactor shards gone; stopping accept");
                }
                false
            });
        })
    };
    threads.push(acceptor);
    Ok((threads, handle_wakers))
}

/// The write end of a reactor shard's wake pipe.
pub(crate) type Waker = UnixStream;

/// Writes the one-byte wake signal; a full pipe means the reactor already
/// has a wake-up pending, which is all the byte was for.
pub(crate) fn wake(pipe: &Waker) {
    drop((&*pipe).write(&[1u8]));
}
