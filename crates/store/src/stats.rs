//! Store observability: per-shard fill statistics, false-positive estimates
//! and pollution (saturation) alarms.
//!
//! The alarm threshold comes straight out of the paper's analysis. Honest
//! insertions fill a filter along `E[w] = m(1 - (1 - 1/m)^{kn})`
//! ([`evilbloom_analysis::false_positive::expected_fill`]); a
//! chosen-insertion (pollution) adversary instead sets `min(nk, m)` bits
//! ([`evilbloom_analysis::worst_case::adversarial_set_bits`]), because every
//! crafted item contributes `k` fresh bits. A shard whose observed weight
//! crosses the midpoint between those two trajectories is far off the honest
//! path and almost certainly under attack — that is the pollution alarm.

use evilbloom_analysis::{false_positive, worst_case};
use evilbloom_filters::BackendKind;

/// Insertions below this count are too noisy to judge — a couple of lucky
/// collisions either way dominate the honest/adversarial gap.
pub const ALARM_MIN_INSERTIONS: u64 = 16;

/// Minimum divergence (in bits) between the honest and adversarial fill
/// trajectories before the alarm can trip. Early in a filter's life honest
/// insertions rarely collide, so the two trajectories coincide to within
/// sampling noise; alarming inside that band would be pure jitter.
pub const ALARM_MIN_GAP_BITS: f64 = 32.0;

/// Decides whether a shard's observed weight is pollution-suspicious: more
/// than halfway from the honest expected fill toward the chosen-insertion
/// worst case for the same number of insertions, once the two trajectories
/// have meaningfully diverged.
pub fn pollution_alarm(m: u64, k: u32, inserted: u64, weight: u64) -> bool {
    if inserted < ALARM_MIN_INSERTIONS {
        return false;
    }
    let honest = false_positive::expected_fill(m, inserted, k) * m as f64;
    let adversarial = worst_case::adversarial_set_bits(m, inserted, k) as f64;
    if adversarial - honest < ALARM_MIN_GAP_BITS {
        return false;
    }
    weight as f64 > honest + 0.5 * (adversarial - honest)
}

/// Snapshot of one shard's health.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Shard index within the store.
    pub shard: usize,
    /// Active generation id (increases by one per key rotation).
    pub generation: u64,
    /// Whether a rotation's rebuild is in flight.
    pub rotating: bool,
    /// Bits in the shard's active filter.
    pub m: u64,
    /// Indexes per item.
    pub k: u32,
    /// Insert calls served by the active generation.
    pub inserted: u64,
    /// Set bits in the active generation (running counter; exact once
    /// writers are quiescent).
    pub weight: u64,
    /// Fill ratio `weight / m`.
    pub fill: f64,
    /// Estimated false-positive probability `(weight/m)^k` at the current
    /// fill.
    pub estimated_fpp: f64,
    /// Whether the fill trajectory looks like a pollution attack (see
    /// [`pollution_alarm`]).
    pub pollution_alarm: bool,
}

/// Snapshot of the whole store's health.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStats {
    /// Filter family the shards hold (what the wire-level `STATS` response
    /// reports so clients know whether `DELETE` will be honoured).
    pub backend: BackendKind,
    /// Whether routing and index derivation are secret-keyed.
    pub hardened: bool,
    /// Whether the store is in degraded read-only mode (its WAL broke;
    /// writes are refused until a snapshot repairs it).
    pub degraded: bool,
    /// Per-shard statistics, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Total insert calls across shards (active generations).
    pub total_inserted: u64,
    /// Mean shard fill ratio.
    pub mean_fill: f64,
    /// Highest per-shard false-positive estimate — the store-level exposure,
    /// since an adversary targets the weakest shard.
    pub max_estimated_fpp: f64,
    /// Number of shards currently raising the pollution alarm.
    pub alarms: usize,
}

impl StoreStats {
    /// Aggregates per-shard snapshots for a store of the given backend
    /// family, hardening posture and degraded state.
    pub fn from_shards(
        backend: BackendKind,
        hardened: bool,
        degraded: bool,
        shards: Vec<ShardStats>,
    ) -> Self {
        let total_inserted = shards.iter().map(|s| s.inserted).sum();
        let mean_fill = if shards.is_empty() {
            0.0
        } else {
            shards.iter().map(|s| s.fill).sum::<f64>() / shards.len() as f64
        };
        let max_estimated_fpp = shards.iter().map(|s| s.estimated_fpp).fold(0.0f64, f64::max);
        let alarms = shards.iter().filter(|s| s.pollution_alarm).count();
        StoreStats {
            backend,
            hardened,
            degraded,
            shards,
            total_inserted,
            mean_fill,
            max_estimated_fpp,
            alarms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_fill_does_not_alarm() {
        // An honestly filled filter sits on (slightly below) the expected
        // trajectory: no alarm.
        let m = 4096u64;
        let k = 4u32;
        let n = 500u64;
        let honest_weight = (false_positive::expected_fill(m, n, k) * m as f64) as u64;
        assert!(!pollution_alarm(m, k, n, honest_weight));
    }

    #[test]
    fn adversarial_fill_alarms() {
        // A pollution adversary sets k fresh bits per insert.
        let m = 4096u64;
        let k = 4u32;
        let n = 500u64;
        assert!(pollution_alarm(m, k, n, n * u64::from(k)));
    }

    #[test]
    fn tiny_insert_counts_never_alarm() {
        assert!(!pollution_alarm(4096, 4, ALARM_MIN_INSERTIONS - 1, 60));
    }

    #[test]
    fn aggregation_counts_alarms_and_maxima() {
        let shard = |i: usize, fill: f64, fpp: f64, alarm: bool| ShardStats {
            shard: i,
            generation: 0,
            rotating: false,
            m: 1024,
            k: 4,
            inserted: 100,
            weight: (fill * 1024.0) as u64,
            fill,
            estimated_fpp: fpp,
            pollution_alarm: alarm,
        };
        let stats = StoreStats::from_shards(
            BackendKind::Counting,
            false,
            false,
            vec![shard(0, 0.3, 0.01, false), shard(1, 0.9, 0.65, true)],
        );
        assert_eq!(stats.backend, BackendKind::Counting);
        assert_eq!(stats.total_inserted, 200);
        assert_eq!(stats.alarms, 1);
        assert!((stats.mean_fill - 0.6).abs() < 1e-12);
        assert!((stats.max_estimated_fpp - 0.65).abs() < 1e-12);
    }
}
