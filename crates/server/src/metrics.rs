//! Runtime telemetry for the serving layer: per-opcode request counters and
//! latency histograms, transport byte counters, connection lifecycle,
//! reactor readiness accounting and buffer-pool efficiency.
//!
//! One [`ServerMetrics`] lives in [`crate::server::Inner`], shared by every
//! reactor shard. Every family is registered unconditionally so a scraper
//! sees the same metric families (at zero) before any traffic — the
//! exposition's *shape* never depends on runtime state. The `METRICS` opcode renders this registry merged
//! with the store's (which carries the store- and persist-layer families).

use std::sync::Arc;
use std::time::Duration;

use evilbloom_metrics::{Counter, Gauge, Histogram, Registry};

use crate::wire::Command;

/// Wire opcodes as metric label values, indexed by [`op_of`].
const OPS: [&str; 12] = [
    "ping", "insert", "query", "minsert", "mquery", "stats", "rotate", "snapshot", "metrics",
    "delete", "mdelete", "trace",
];

/// Maps a decoded command to its slot in the per-opcode metric arrays.
pub(crate) fn op_of(command: &Command<'_>) -> usize {
    match command {
        Command::Ping => 0,
        Command::Insert(_) => 1,
        Command::Query(_) => 2,
        Command::InsertBatch(_) => 3,
        Command::QueryBatch(_) => 4,
        Command::Stats => 5,
        Command::RotateBegin { .. } | Command::RotateComplete { .. } => 6,
        Command::Snapshot => 7,
        Command::Metrics => 8,
        Command::Delete(_) => 9,
        Command::DeleteBatch(_) => 10,
        Command::Trace => 11,
    }
}

/// Every serving-layer metric, registered in one [`Registry`].
pub(crate) struct ServerMetrics {
    registry: Registry,
    /// Requests executed, per opcode (`op` label).
    requests: Vec<Arc<Counter>>,
    /// Decode-to-response-encoded latency, per opcode (`op` label).
    latency_ns: Vec<Arc<Histogram>>,
    /// Payload bytes read from / written to client sockets.
    pub(crate) bytes_read: Arc<Counter>,
    /// See [`ServerMetrics::bytes_read`].
    pub(crate) bytes_written: Arc<Counter>,
    /// Connections registered with a reactor shard.
    pub(crate) connections_opened: Arc<Counter>,
    /// Connections that finished serving (EOF, error, violation, shutdown).
    pub(crate) connections_closed: Arc<Counter>,
    /// Frames rejected as protocol violations (the connection closes).
    pub(crate) protocol_errors: Arc<Counter>,
    /// Connections refused with a `BUSY` frame by admission control (the
    /// server already held `max_conns` open connections).
    pub(crate) busy_rejections: Arc<Counter>,
    /// Connections evicted after sitting at the pending-write high-water
    /// mark past the slow-consumer grace period.
    pub(crate) slow_consumer_evictions: Arc<Counter>,
    /// Writes refused because the store is in degraded read-only mode.
    pub(crate) degraded_refusals: Arc<Counter>,
    /// Seconds since the server spawned (refreshed at each scrape).
    pub(crate) uptime_seconds: Arc<Gauge>,
    /// `epoll_wait` returns across all reactor shards.
    pub(crate) reactor_wakeups: Arc<Counter>,
    /// Interest changes that newly armed `EPOLLOUT` (a flush came up short).
    pub(crate) reactor_epollout_arms: Arc<Counter>,
    /// Reads paused because a peer let pending responses hit the high-water
    /// mark.
    pub(crate) reactor_backpressure: Arc<Counter>,
    /// Buffer-pool checkouts served from the free list / by fresh
    /// allocation, and check-ins that trimmed an inflated buffer.
    pub(crate) pool_hits: Arc<Counter>,
    /// See [`ServerMetrics::pool_hits`].
    pub(crate) pool_misses: Arc<Counter>,
    /// See [`ServerMetrics::pool_hits`].
    pub(crate) pool_trims: Arc<Counter>,
}

impl ServerMetrics {
    pub(crate) fn new() -> ServerMetrics {
        let r = Registry::new();
        let requests = OPS
            .iter()
            .map(|op| {
                r.counter_with(
                    "evilbloom_server_requests_total",
                    "Requests executed, by wire opcode",
                    &[("op", op)],
                )
            })
            .collect();
        let latency_ns = OPS
            .iter()
            .map(|op| {
                r.histogram_with(
                    "evilbloom_server_request_latency_ns",
                    "Per-request latency from decoded frame to encoded response",
                    &[("op", op)],
                )
            })
            .collect();
        ServerMetrics {
            requests,
            latency_ns,
            bytes_read: r
                .counter("evilbloom_server_bytes_read_total", "Bytes read from client sockets"),
            bytes_written: r.counter(
                "evilbloom_server_bytes_written_total",
                "Response bytes written to client sockets",
            ),
            connections_opened: r.counter(
                "evilbloom_server_connections_opened_total",
                "Connections handed to a worker or reactor shard",
            ),
            connections_closed: r.counter(
                "evilbloom_server_connections_closed_total",
                "Connections that finished serving",
            ),
            protocol_errors: r.counter(
                "evilbloom_server_protocol_errors_total",
                "Frames rejected as protocol violations",
            ),
            busy_rejections: r.counter(
                "evilbloom_server_busy_rejections_total",
                "Connections refused with a BUSY frame by admission control",
            ),
            slow_consumer_evictions: r.counter(
                "evilbloom_server_slow_consumer_evictions_total",
                "Connections evicted after stalling at the write high-water mark",
            ),
            degraded_refusals: r.counter(
                "evilbloom_server_degraded_refusals_total",
                "Writes refused while the store is in degraded read-only mode",
            ),
            uptime_seconds: r.gauge(
                "evilbloom_server_uptime_seconds",
                "Seconds since the server spawned, refreshed per scrape",
            ),
            reactor_wakeups: r.counter(
                "evilbloom_reactor_wakeups_total",
                "epoll_wait returns across reactor shards",
            ),
            reactor_epollout_arms: r.counter(
                "evilbloom_reactor_epollout_arms_total",
                "Interest updates that newly armed EPOLLOUT after a short flush",
            ),
            reactor_backpressure: r.counter(
                "evilbloom_reactor_backpressure_total",
                "Reads paused at the pending-response high-water mark",
            ),
            pool_hits: r.counter(
                "evilbloom_bufferpool_hits_total",
                "Buffer checkouts served from the free list",
            ),
            pool_misses: r.counter(
                "evilbloom_bufferpool_misses_total",
                "Buffer checkouts that allocated fresh",
            ),
            pool_trims: r.counter(
                "evilbloom_bufferpool_trims_total",
                "Check-ins that shrank a buffer inflated past the high-water mark",
            ),
            registry: r,
        }
    }

    /// The registry holding every serving-layer metric.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one executed request: bumps the opcode's counter and latency
    /// histogram.
    pub(crate) fn observe_request(&self, op: usize, elapsed: Duration) {
        self.requests[op].inc();
        self.latency_ns[op].record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_maps_into_the_metric_arrays() {
        let metrics = ServerMetrics::new();
        for (command, expected) in [
            (Command::Ping, 0),
            (Command::Insert(b"x"), 1),
            (Command::Query(b"x"), 2),
            (Command::InsertBatch(vec![]), 3),
            (Command::QueryBatch(vec![]), 4),
            (Command::Stats, 5),
            (Command::RotateBegin { shard: 0 }, 6),
            (Command::RotateComplete { shard: 0 }, 6),
            (Command::Snapshot, 7),
            (Command::Metrics, 8),
            (Command::Delete(b"x"), 9),
            (Command::DeleteBatch(vec![]), 10),
            (Command::Trace, 11),
        ] {
            let op = op_of(&command);
            assert_eq!(op, expected, "{command:?}");
            metrics.observe_request(op, Duration::from_nanos(100));
        }
        let text = metrics.registry().render();
        assert!(text.contains(r#"evilbloom_server_requests_total{op="rotate"} 2"#), "{text}");
        assert!(text.contains(r#"evilbloom_server_requests_total{op="metrics"} 1"#), "{text}");
        assert!(text.contains(r#"evilbloom_server_requests_total{op="delete"} 1"#), "{text}");
        assert!(text.contains(r#"evilbloom_server_requests_total{op="mdelete"} 1"#), "{text}");
        assert!(text.contains(r#"evilbloom_server_requests_total{op="trace"} 1"#), "{text}");
    }

    #[test]
    fn reactor_and_pool_families_render_at_zero() {
        // The exposition's shape must not depend on traffic: an idle server
        // still renders the reactor, buffer-pool and overload families.
        let text = ServerMetrics::new().registry().render();
        for name in [
            "evilbloom_reactor_wakeups_total 0",
            "evilbloom_reactor_backpressure_total 0",
            "evilbloom_bufferpool_hits_total 0",
            "evilbloom_server_uptime_seconds 0",
            "evilbloom_server_busy_rejections_total 0",
            "evilbloom_server_slow_consumer_evictions_total 0",
            "evilbloom_server_degraded_refusals_total 0",
        ] {
            assert!(text.contains(name), "missing {name:?} in:\n{text}");
        }
    }
}
