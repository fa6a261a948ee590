//! Corrected false-positive analysis for cache-line *blocked* Bloom filters.
//!
//! A blocked filter (Putze, Sanders & Singler, "Cache-, Hash- and
//! Space-Efficient Bloom Filters", JEA 2009) confines all `k` bits of an item
//! to one cache-line-sized block chosen by a first hash. Queries touch a
//! single cache line instead of `k`, which is why the variant dominates the
//! performance lab — but the textbook formula `f = (1 - e^{-kn/m})^k` now
//! *undershoots* the truth: items are distributed over blocks binomially, so
//! some blocks carry more than the average load `n·B/m` and their local
//! false-positive probability grows super-linearly.
//!
//! The corrected formula below models each block as an independent `B`-bit
//! Bloom filter whose load `J` is Poisson-distributed with mean
//! `λ = n·B/m` (the binomial limit for many blocks), and mixes the exact
//! per-load probability over that distribution:
//!
//! `f_blocked = Σ_j Poisson_λ(j) · f_exact(B, j, k)`
//!
//! The same mixture yields the pollution trajectory under the paper's
//! chosen-insertion adversary: every crafted item sets `k` fresh bits inside
//! one block, so adversarial load concentrates exactly like honest load does
//! — the attacks carry over to the fast variant unchanged.

use crate::false_positive;

/// Exact false-positive probability of one `block_bits`-bit block holding `j`
/// items, each setting `k` *distinct* bits (the register-blocked probing used
/// by `evilbloom-hashes::BlockedKm` guarantees distinctness).
///
/// With distinct bits per item the zero-probability per bit after `j` items
/// is `(1 - k/B)^j`, marginally tighter than the independent-bit
/// `(1 - 1/B)^{kj}`; both agree to `O(k²/B²)` and we use the distinct-bit
/// form because it matches the implementation.
pub fn block_false_positive(block_bits: u64, j: u64, k: u32) -> f64 {
    assert!(block_bits > 0, "block size must be positive");
    assert!(u64::from(k) <= block_bits, "cannot set more distinct bits than the block holds");
    if j == 0 || k == 0 {
        return 0.0;
    }
    let p_zero = (1.0 - k as f64 / block_bits as f64).powf(j as f64);
    (1.0 - p_zero).powi(k as i32)
}

/// Corrected false-positive probability of a blocked Bloom filter of `m`
/// total bits (a whole number of `block_bits`-bit blocks) after `n` honest
/// insertions with `k` bits per item: the Poisson mixture of the per-block
/// probability over the block-load distribution.
///
/// The sum runs over a `±12σ` window around the mean load with the Poisson
/// pmf evaluated in log space (a naive `e^{-λ}`-seeded recurrence underflows
/// to an all-zero pmf once `λ ≳ 745`); the neglected tail mass is below
/// `1e-12`, bounding the absolute truncation error by the same amount since
/// each mixed term is at most 1.
pub fn blocked_false_positive(m: u64, n: u64, k: u32, block_bits: u64) -> f64 {
    assert!(m > 0 && block_bits > 0, "filter and block size must be positive");
    assert!(m.is_multiple_of(block_bits), "m must be a whole number of blocks");
    if n == 0 || k == 0 {
        return 0.0;
    }
    let lambda = n as f64 * block_bits as f64 / m as f64;
    poisson_mixture(lambda, |j| block_false_positive(block_bits, j, k))
}

/// `Σ_j Poisson_λ(j) · term(j)` over the `±12σ` window, log-space pmf.
fn poisson_mixture(lambda: f64, term: impl Fn(u64) -> f64) -> f64 {
    let j_max = (lambda + 12.0 * lambda.sqrt() + 40.0).ceil() as u64;
    let ln_lambda = lambda.ln();
    let mut ln_factorial = 0.0f64;
    let mut f = 0.0;
    for j in 0..=j_max {
        if j > 0 {
            ln_factorial += (j as f64).ln();
        }
        let ln_pmf = -lambda + j as f64 * ln_lambda - ln_factorial;
        if ln_pmf > -745.0 {
            f += ln_pmf.exp() * term(j);
        }
    }
    f.min(1.0)
}

/// How much worse the blocked layout is than an unblocked filter of the same
/// `(m, n, k)`: `f_blocked / f_standard`. Always ≥ 1 for non-trivial loads —
/// the price of the one-cache-line hot path, which the Performance lab trades
/// against the measured speedup.
pub fn blocked_fpp_inflation(m: u64, n: u64, k: u32, block_bits: u64) -> f64 {
    let standard = false_positive::false_positive_exact(m, n, k);
    if standard == 0.0 {
        return 1.0;
    }
    blocked_false_positive(m, n, k, block_bits) / standard
}

/// The blocked filter's pollution trajectory under the chosen-insertion
/// adversary of Section 4.1: `polluted` crafted items each set `k` fresh bits
/// inside the block their pair selects, on top of `honest` uniform items.
/// Crafted load concentrates per block exactly like honest load (the
/// adversary cannot choose the block without also changing the in-block
/// bits), so the mixture applies with the combined insertion count and a
/// per-item weight-gain floor of `k` for the crafted fraction.
///
/// Returned as a conservative (upper) estimate: crafted items never collide
/// with already-set bits, honest items may.
pub fn blocked_adversarial_false_positive(
    m: u64,
    honest: u64,
    polluted: u64,
    k: u32,
    block_bits: u64,
) -> f64 {
    assert!(m.is_multiple_of(block_bits), "m must be a whole number of blocks");
    let blocks = m / block_bits;
    // Crafted items raise the average block load like honest ones, but each
    // is guaranteed k fresh bits: model them as honest items on a filter
    // whose per-block zero-probability already accounts for the guaranteed
    // k-bit gain, i.e. treat the polluted fill as additive.
    let polluted_bits_per_block = polluted as f64 * k as f64 / blocks as f64;
    if honest == 0 {
        return mixed_block_fpp(block_bits, 0, k, polluted_bits_per_block);
    }
    let lambda = honest as f64 * block_bits as f64 / m as f64;
    poisson_mixture(lambda, |j| mixed_block_fpp(block_bits, j, k, polluted_bits_per_block))
}

/// Per-block false-positive probability with `j` honest items plus
/// `polluted_bits` guaranteed-fresh adversarial bits.
fn mixed_block_fpp(block_bits: u64, j: u64, k: u32, polluted_bits: f64) -> f64 {
    let b = block_bits as f64;
    let honest_fill = 1.0 - (1.0 - k as f64 / b).powf(j as f64);
    let fill = (honest_fill + polluted_bits / b).min(1.0);
    fill.powi(k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: u64 = 512;

    #[test]
    fn empty_filter_never_false_positives() {
        assert_eq!(blocked_false_positive(1 << 16, 0, 4, B), 0.0);
        assert_eq!(block_false_positive(B, 0, 4), 0.0);
    }

    #[test]
    fn blocked_fpp_exceeds_standard_fpp() {
        // The whole point of the correction: block-load variance inflates the
        // false-positive probability above the unblocked formula.
        for &(m, n, k) in
            &[(1u64 << 16, 5_000u64, 5u32), (1 << 20, 100_000, 7), (1 << 18, 20_000, 4)]
        {
            let blocked = blocked_false_positive(m, n, k, B);
            let standard = false_positive::false_positive_exact(m, n, k);
            assert!(blocked > standard, "m={m} n={n} k={k}: {blocked} <= {standard}");
            assert!(blocked_fpp_inflation(m, n, k, B) > 1.0);
            // …but not absurdly so at moderate loads.
            assert!(blocked < standard * 10.0, "m={m}: inflation too large ({blocked}/{standard})");
        }
    }

    #[test]
    fn mixture_converges_to_block_formula_for_single_block() {
        // One block: the Poisson mixture with λ = n still spreads the load,
        // but its mean-load term dominates; sanity-check it brackets the
        // deterministic-load value within a factor accounted by variance.
        let f_mix = blocked_false_positive(B, 40, 4, B);
        let f_det = block_false_positive(B, 40, 4);
        assert!(f_mix > 0.5 * f_det && f_mix < 5.0 * f_det, "mix {f_mix} det {f_det}");
    }

    #[test]
    fn inflation_shrinks_as_load_grows() {
        let low = blocked_fpp_inflation(1 << 18, 10_000, 5, B);
        let high = blocked_fpp_inflation(1 << 18, 30_000, 5, B);
        assert!(
            high < low,
            "relative inflation shrinks as both probabilities rise: {low} -> {high}"
        );
        assert!(low > 1.0 && high > 1.0);
    }

    #[test]
    fn adversarial_trajectory_dominates_honest() {
        let (m, k) = (1u64 << 16, 4u32);
        let honest_only = blocked_false_positive(m, 3_000, k, B);
        let with_pollution = blocked_adversarial_false_positive(m, 3_000, 1_000, k, B);
        assert!(with_pollution > honest_only, "{with_pollution} <= {honest_only}");
        // No pollution degenerates to the honest mixture.
        let degenerate = blocked_adversarial_false_positive(m, 3_000, 0, k, B);
        assert!((degenerate - honest_only).abs() < 1e-9);
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        for n in [0u64, 100, 10_000, 1_000_000] {
            let f = blocked_false_positive(1 << 16, n, 6, B);
            assert!((0.0..=1.0).contains(&f), "n={n}: {f}");
        }
        assert!(blocked_false_positive(1 << 16, 10_000_000, 6, B) > 0.999);
    }

    #[test]
    #[should_panic(expected = "whole number of blocks")]
    fn ragged_block_count_rejected() {
        blocked_false_positive(1000, 10, 4, B);
    }
}
