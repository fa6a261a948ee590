//! The server's resilient accept loop and its admission control, plus the
//! fd-budget helpers high-connection-count harnesses size themselves by.
//!
//! The acceptor classifies `accept()` errors so a transient failure (fd
//! exhaustion under an EMFILE storm, a signal) backs off instead of
//! spinning a hot error loop, and counts every accepted socket against
//! [`crate::ServerConfig::max_conns`]: past the cap it answers a typed
//! `BUSY` frame instead of handing the socket to a reactor shard.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use evilbloom_metrics::log_warn;

use crate::server::Inner;
use crate::wire::Response;

/// The soft limit on open file descriptors for this process (parsed from
/// `/proc/self/limits`; `None` where that does not exist or does not
/// parse). Every loopback connection a test or benchmark opens costs *two*
/// fds in-process (the client side and the accepted side), so
/// high-connection-count harnesses check this and scale down or skip
/// instead of crashing into `EMFILE`.
pub fn fd_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Fds reserved for everything that is *not* a loopback connection pair
/// (stdio, listeners, epoll fds, wake pipes, the test harness, …).
const FD_SLACK: u64 = 256;

/// How many same-process loopback connections the fd soft limit can hold
/// (two fds per connection — client side plus accepted side — after the
/// slack is reserved). `None` when the limit is unknown; callers should
/// then proceed optimistically.
pub fn loopback_connection_budget() -> Option<u64> {
    fd_soft_limit().map(|limit| limit.saturating_sub(FD_SLACK) / 2)
}

/// What the acceptor should do after an `accept()` call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptAction {
    /// Transient per-connection condition (EINTR, the peer aborted the
    /// handshake): retry immediately, nothing is wrong with the listener.
    Retry,
    /// No pending connection (`WouldBlock` on the non-blocking listener):
    /// sleep one poll tick, then look again.
    Idle,
    /// A resource error (EMFILE/ENFILE fd exhaustion, ENOMEM, …): the next
    /// accept will likely fail too, so back off for a poll tick — and log
    /// once — instead of spinning a hot error loop.
    Backoff,
}

/// Classifies an `accept()` error into the action that avoids both dropped
/// connections and hot error loops. Covered by unit tests below.
pub(crate) fn classify_accept_error(error: &io::Error) -> AcceptAction {
    match error.kind() {
        io::ErrorKind::WouldBlock => AcceptAction::Idle,
        // The handshake died before we accepted it — specific to that one
        // connection, the listener is fine.
        io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset => AcceptAction::Retry,
        // Everything else (EMFILE and friends surface as uncategorized
        // errors) is a resource problem that will not clear within one
        // accept call: back off.
        _ => AcceptAction::Backoff,
    }
}

/// Runs the non-blocking accept loop until shutdown: an accepted stream is
/// admitted against [`crate::ServerConfig::max_conns`] (or refused with
/// `BUSY`) and goes to `deliver`, which returns `false` when the receiving
/// side is gone. Errors are classified, and persistent resource errors log
/// once per streak instead of once per failure.
pub(crate) fn acceptor_loop(
    listener: &TcpListener,
    inner: &Inner,
    poll_interval: Duration,
    mut deliver: impl FnMut(TcpStream) -> bool,
) {
    // The idle tick bounds accept latency, and with it the sustained accept
    // rate: a connect storm can only park `listen(2)`'s backlog (~128)
    // between wake-ups before further SYNs face retransmission delays. A
    // short tick keeps C10k-scale herds connecting promptly and checks the
    // shutdown flag more often, at the cost of a few hundred idle wake-ups
    // per second. The *backoff* tick stays at the full poll interval:
    // under fd exhaustion, hammering accept() faster helps nobody.
    let idle_tick = poll_interval.min(Duration::from_millis(2));
    let mut logged_backoff = false;
    while !inner.shutdown.load(Ordering::SeqCst) {
        // Fault-injection point: a chaos plan can make accept() itself fail
        // (the socket, if one was pending, is dropped — the peer sees a
        // reset), exercising the same classify-and-back-off path a real
        // EMFILE storm takes.
        let accepted = match evilbloom_fault::check_io(evilbloom_fault::FaultPoint::Accept) {
            Ok(()) => listener.accept(),
            Err(injected) => Err(injected),
        };
        match accepted {
            Ok((stream, _peer)) => {
                logged_backoff = false;
                if !inner.admit_conn() {
                    reject_busy(stream, inner);
                    continue;
                }
                if !deliver(stream) {
                    // The stream was dropped undelivered.
                    inner.release_conn();
                    break;
                }
            }
            Err(error) => match classify_accept_error(&error) {
                AcceptAction::Retry => {}
                AcceptAction::Idle => std::thread::sleep(idle_tick),
                AcceptAction::Backoff => {
                    if !logged_backoff {
                        log_warn!("accept failed ({error}); backing off");
                        logged_backoff = true;
                    }
                    std::thread::sleep(poll_interval);
                }
            },
        }
    }
}

/// Answers an over-admission connection with a typed `BUSY` frame (so the
/// client backs off for the hinted interval instead of interpreting the
/// close as a server fault) and drops it. Best-effort with a short write
/// timeout: the acceptor must never block behind a rejected peer.
fn reject_busy(stream: TcpStream, inner: &Inner) {
    inner.metrics.busy_rejections.inc();
    let retry_after_ms = u32::try_from(inner.busy_retry_after.as_millis()).unwrap_or(u32::MAX);
    let mut frame = Vec::with_capacity(16);
    let busy = Response::Busy { retry_after_ms };
    if busy.encode(&mut frame).is_ok()
        && stream.set_write_timeout(Some(Duration::from_millis(50))).is_ok()
    {
        let mut stream = stream;
        drop(stream.write_all(&frame));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn would_block_means_idle() {
        let e = io::Error::new(io::ErrorKind::WouldBlock, "no pending connection");
        assert_eq!(classify_accept_error(&e), AcceptAction::Idle);
    }

    #[test]
    fn per_connection_errors_retry_immediately() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
        ] {
            let e = io::Error::new(kind, "transient");
            assert_eq!(classify_accept_error(&e), AcceptAction::Retry, "{kind:?}");
        }
    }

    #[test]
    fn fd_exhaustion_backs_off() {
        // EMFILE (24) and ENFILE (23) on Linux: "too many open files" has no
        // stable io::ErrorKind, so it must fall through to Backoff — a retry
        // loop here would spin at 100% CPU for as long as fds stay scarce.
        for errno in [23, 24] {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(classify_accept_error(&e), AcceptAction::Backoff, "errno {errno}");
        }
    }
}
