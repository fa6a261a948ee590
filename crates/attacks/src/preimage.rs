//! Pre-image and second pre-image search against truncated digests.
//!
//! The paper's attacks are feasible because applications either use
//! non-cryptographic hashes or *truncate* cryptographic digests (explicitly,
//! or implicitly by reducing modulo `m`). This module demonstrates both:
//!
//! * brute-force (second) pre-images of an `l'`-bit truncated digest, with
//!   the `2^{l'}` cost the NIST guidance predicts — trivial for the digest
//!   widths a Bloom filter effectively uses;
//! * constant-time pre-images of MurmurHash via [`evilbloom_hashes::inversion`],
//!   re-exported here for convenience of the attack drivers.

use evilbloom_hashes::truncate::truncate_bits;
use evilbloom_hashes::CryptoHash;

pub use evilbloom_hashes::inversion::{murmur2_32_multi_preimage, murmur2_32_preimage};

use crate::search::{search, SearchOutcome};

/// Finds an input whose digest, truncated to `bits` bits, equals the
/// truncation of `target_digest`. Candidates are `prefix-0`, `prefix-1`, …
///
/// Returns the outcome of the underlying brute-force search; the expected
/// number of attempts is `2^bits`.
pub fn truncated_preimage(
    hash: &dyn CryptoHash,
    target_digest: &[u8],
    bits: u32,
    prefix: &str,
    max_attempts: u64,
) -> SearchOutcome {
    let target = truncate_bits(target_digest, bits);
    search(
        1,
        max_attempts,
        |i| format!("{prefix}-{i}"),
        |candidate| truncate_bits(&hash.digest(candidate.as_bytes()), bits) == target,
    )
}

/// Finds a *second* pre-image: an input different from `original` whose
/// truncated digest matches `original`'s.
pub fn truncated_second_preimage(
    hash: &dyn CryptoHash,
    original: &[u8],
    bits: u32,
    prefix: &str,
    max_attempts: u64,
) -> SearchOutcome {
    let target = truncate_bits(&hash.digest(original), bits);
    search(
        1,
        max_attempts,
        |i| format!("{prefix}-{i}"),
        |candidate| {
            candidate.as_bytes() != original
                && truncate_bits(&hash.digest(candidate.as_bytes()), bits) == target
        },
    )
}

/// Finds `count` *multiple* second pre-images of `original` under the
/// truncated digest — the building block the paper compares against
/// Crosby–Wallach-style hash-table attacks.
pub fn truncated_multi_second_preimage(
    hash: &dyn CryptoHash,
    original: &[u8],
    bits: u32,
    count: usize,
    prefix: &str,
    max_attempts: u64,
) -> SearchOutcome {
    let target = truncate_bits(&hash.digest(original), bits);
    search(
        count,
        max_attempts,
        |i| format!("{prefix}-{i}"),
        |candidate| {
            candidate.as_bytes() != original
                && truncate_bits(&hash.digest(candidate.as_bytes()), bits) == target
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use evilbloom_hashes::{murmur2_32, Md5, Sha256};

    #[test]
    fn truncated_preimage_is_feasible_for_short_truncations() {
        // 12 bits of SHA-256: expected 4096 attempts — instant, despite the
        // "strong" hash.
        let target = Sha256.digest(b"http://secret-target.example/");
        let outcome = truncated_preimage(&Sha256, &target, 12, "forged", 1_000_000);
        assert_eq!(outcome.items.len(), 1);
        let found = &outcome.items[0];
        assert_eq!(truncate_bits(&Sha256.digest(found.as_bytes()), 12), truncate_bits(&target, 12));
        assert!(outcome.stats.attempts < 200_000);
    }

    #[test]
    fn second_preimage_differs_from_original() {
        let outcome = truncated_second_preimage(&Md5, b"original-item", 10, "second", 1_000_000);
        assert_eq!(outcome.items.len(), 1);
        assert_ne!(outcome.items[0].as_bytes(), b"original-item");
    }

    #[test]
    fn multi_second_preimages_are_distinct() {
        let outcome =
            truncated_multi_second_preimage(&Md5, b"bucket-key", 8, 10, "multi", 1_000_000);
        assert_eq!(outcome.items.len(), 10);
        let unique: std::collections::HashSet<&String> = outcome.items.iter().collect();
        assert_eq!(unique.len(), 10);
        let target = truncate_bits(&Md5.digest(b"bucket-key"), 8);
        for item in &outcome.items {
            assert_eq!(truncate_bits(&Md5.digest(item.as_bytes()), 8), target);
        }
    }

    #[test]
    fn attempts_scale_with_truncation_width() {
        let target = Sha256.digest(b"scaling-target");
        let narrow = truncated_preimage(&Sha256, &target, 6, "narrow", 10_000_000);
        let wide = truncated_preimage(&Sha256, &target, 14, "wide", 10_000_000);
        assert!(wide.stats.attempts > narrow.stats.attempts);
    }

    #[test]
    fn full_width_preimage_is_out_of_reach() {
        // With the full 256-bit digest the same search finds nothing within
        // any reasonable attempt budget.
        let target = Sha256.digest(b"unreachable");
        let outcome = truncated_preimage(&Sha256, &target, 256, "hopeless", 50_000);
        assert!(outcome.items.is_empty());
    }

    #[test]
    fn murmur_preimages_reexported_and_constant_time() {
        let preimage = murmur2_32_preimage(0x1234_5678, 99);
        assert_eq!(murmur2_32(&preimage, 99), 0x1234_5678);
    }
}
