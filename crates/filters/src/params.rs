//! Bloom-filter parameter selection — honest, worst-case, and "as deployed".
//!
//! The paper's core message is that parameters are always computed in the
//! *average case*. [`FilterParams`] supports three derivations:
//!
//! * [`FilterParams::optimal`] — the textbook `m = -n ln f / (ln 2)^2`,
//!   `k = (m/n) ln 2` (what pyBloom does);
//! * [`FilterParams::worst_case`] — Section 8.1's adversary-aware parameters
//!   `k = m / (e n)`;
//! * [`FilterParams::squid`] — Squid's deployed choice `m = 5n + 7`, `k = 4`;
//! * [`FilterParams::explicit`] — whatever the caller says (for experiments).

use evilbloom_analysis::{false_positive, worst_case};
use evilbloom_hashes::BLOCK_BITS;

/// How a [`FilterParams`] instance was derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamDerivation {
    /// Classic average-case optimal parameters.
    Optimal,
    /// Worst-case (adversary-aware) parameters of Section 8.1.
    WorstCase,
    /// Squid's `m = 5n + 7`, `k = 4` sizing.
    Squid,
    /// Parameters supplied directly by the caller.
    Explicit,
}

/// Sizing parameters of a Bloom filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterParams {
    /// Number of bits (or cells, for counting filters) in the filter.
    pub m: u64,
    /// Number of hash functions / indexes per item.
    pub k: u32,
    /// Intended capacity (number of items the filter is designed for).
    pub capacity: u64,
    /// How these parameters were derived.
    pub derivation: ParamDerivation,
}

impl FilterParams {
    /// Average-case optimal parameters for `capacity` items at target
    /// false-positive probability `target_fpp`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `target_fpp` is not in `(0, 1)`.
    pub fn optimal(capacity: u64, target_fpp: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(target_fpp > 0.0 && target_fpp < 1.0, "target must be in (0, 1)");
        let m = false_positive::required_bits_for(capacity, target_fpp);
        let k = false_positive::optimal_k_rounded(m, capacity);
        FilterParams { m, k, capacity, derivation: ParamDerivation::Optimal }
    }

    /// Worst-case (chosen-insertion-adversary-aware) parameters for the same
    /// memory budget as [`FilterParams::optimal`] would use: `k = m / (e n)`.
    pub fn worst_case(capacity: u64, target_fpp: f64) -> Self {
        let optimal = Self::optimal(capacity, target_fpp);
        let k = worst_case::adversarial_optimal_k_rounded(optimal.m, capacity);
        FilterParams { m: optimal.m, k, capacity, derivation: ParamDerivation::WorstCase }
    }

    /// Worst-case parameters for an explicit memory budget of `m` bits.
    pub fn worst_case_for_memory(m: u64, capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let k = worst_case::adversarial_optimal_k_rounded(m, capacity);
        FilterParams { m, k, capacity, derivation: ParamDerivation::WorstCase }
    }

    /// Squid's cache-digest sizing: `m = 5n + 7` bits and `k = 4`.
    pub fn squid(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        FilterParams { m: 5 * capacity + 7, k: 4, capacity, derivation: ParamDerivation::Squid }
    }

    /// Explicit parameters (used by experiments that sweep `m` and `k`).
    pub fn explicit(m: u64, k: u32, capacity: u64) -> Self {
        assert!(m > 1, "filter must have at least two cells");
        assert!(k > 0, "k must be positive");
        FilterParams { m, k, capacity, derivation: ParamDerivation::Explicit }
    }

    /// Honest false-positive probability at full capacity.
    pub fn expected_fpp(&self) -> f64 {
        false_positive::false_positive_approx(self.m, self.capacity, self.k)
    }

    /// Adversarial false-positive probability after `capacity` chosen
    /// insertions (Equation (7)).
    pub fn adversarial_fpp(&self) -> f64 {
        worst_case::adversarial_false_positive(self.m, self.capacity, self.k)
    }

    /// Bits of digest required per item (`k * ceil(log2 m)`), the recycling
    /// budget of Section 8.2.
    pub fn digest_bits_required(&self) -> u32 {
        self.k * (64 - (self.m - 1).leading_zeros())
    }

    /// These parameters with `m` rounded **up** to a whole number of
    /// [`BLOCK_BITS`]-bit blocks (at least one): the geometry of a filter over
    /// the cache-line blocked layout, [`evilbloom_hashes::BlockedKm`].
    pub fn rounded_to_blocks(self) -> Self {
        FilterParams { m: self.m.div_ceil(BLOCK_BITS).max(1) * BLOCK_BITS, ..self }
    }

    /// Memory footprint in bytes of a plain bit-vector filter with these
    /// parameters.
    pub fn memory_bytes(&self) -> u64 {
        self.m.div_ceil(8)
    }
}

impl core::fmt::Display for FilterParams {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "m={} k={} capacity={} ({:?}, f={:.3e}, f_adv={:.3e})",
            self.m,
            self.k,
            self.capacity,
            self.derivation,
            self.expected_fpp(),
            self.adversarial_fpp()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_params_meet_target() {
        for &f in &[0.01, 2f64.powi(-10), 2f64.powi(-20)] {
            let p = FilterParams::optimal(100_000, f);
            assert!(p.expected_fpp() <= f * 1.1, "target {f} got {}", p.expected_fpp());
            assert_eq!(p.derivation, ParamDerivation::Optimal);
        }
    }

    #[test]
    fn worst_case_uses_fewer_hashes() {
        let honest = FilterParams::optimal(10_000, 0.001);
        let hardened = FilterParams::worst_case(10_000, 0.001);
        assert_eq!(honest.m, hardened.m);
        assert!(hardened.k < honest.k);
        // Worst-case parameters trade a slightly higher honest FPP for a
        // much lower adversarial FPP.
        assert!(hardened.adversarial_fpp() < honest.adversarial_fpp());
        assert!(hardened.expected_fpp() > honest.expected_fpp());
    }

    #[test]
    fn k_ratio_close_to_e_ln2() {
        let honest = FilterParams::optimal(1_000_000, 2f64.powi(-10));
        let hardened = FilterParams::worst_case(1_000_000, 2f64.powi(-10));
        let ratio = f64::from(honest.k) / f64::from(hardened.k);
        assert!((ratio - 1.88).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn squid_sizing_matches_section7() {
        let p = FilterParams::squid(200);
        assert_eq!(p.m, 1007);
        assert_eq!(p.k, 4);
        assert!((p.expected_fpp() - 0.09).abs() < 0.01);
        // 51 clean + 100 polluting URLs: the digest used in the paper's
        // experiment is 5*151 + 7 = 762 bits.
        assert_eq!(FilterParams::squid(151).m, 762);
    }

    #[test]
    fn explicit_params_pass_through() {
        let p = FilterParams::explicit(3200, 4, 600);
        assert_eq!((p.m, p.k, p.capacity), (3200, 4, 600));
        assert!((p.expected_fpp() - 0.077).abs() < 0.005);
        assert!((p.adversarial_fpp() - 0.316).abs() < 0.01);
    }

    #[test]
    fn digest_bits_and_memory() {
        let p = FilterParams::explicit(1 << 20, 10, 70_000);
        assert_eq!(p.digest_bits_required(), 200);
        assert_eq!(p.memory_bytes(), 131_072);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        FilterParams::optimal(0, 0.01);
    }

    #[test]
    #[should_panic(expected = "target must be in")]
    fn bad_target_rejected() {
        FilterParams::optimal(10, 1.5);
    }

    #[test]
    fn display_is_informative() {
        let text = FilterParams::explicit(3200, 4, 600).to_string();
        assert!(text.contains("m=3200"));
        assert!(text.contains("k=4"));
    }
}
