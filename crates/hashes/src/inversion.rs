//! Inversion of non-cryptographic hash functions.
//!
//! The paper notes (Section 6.2) that "the forgery of the required URLs is
//! straightforward since MurmurHash can be inverted in constant time". This
//! module provides those inversions:
//!
//! * the MurmurHash3 finalizer `fmix32` is a bijection whose multiplicative
//!   constants are invertible modulo 2^32;
//! * for single-block inputs, MurmurHash2 (32-bit) can be run backwards,
//!   yielding a 4-byte **pre-image** of any target digest under any seed —
//!   no search required; two-block inputs give any number of distinct 8-byte
//!   pre-images of one target.

/// Multiplicative inverse of an odd 32-bit constant modulo 2^32, computed by
/// Newton–Hensel lifting (each step doubles the number of correct low bits).
const fn inv_mod_2_32(a: u32) -> u32 {
    let mut x: u32 = a; // correct to 3 bits for odd a
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u32.wrapping_sub(a.wrapping_mul(x)));
        i += 1;
    }
    x
}

/// Modular inverse of `0x85eb_ca6b` modulo 2^32 (first `fmix32` constant).
const INV_C1_32: u32 = inv_mod_2_32(0x85eb_ca6b);
/// Modular inverse of `0xc2b2_ae35` modulo 2^32 (second `fmix32` constant).
const INV_C2_32: u32 = inv_mod_2_32(0xc2b2_ae35);
/// Modular inverse of the MurmurHash2 constant `0x5bd1_e995` modulo 2^32.
const INV_M2_32: u32 = inv_mod_2_32(0x5bd1_e995);

/// Inverts `x ^= x >> shift` for 32-bit `x`.
#[inline]
fn unxorshift32(mut value: u32, shift: u32) -> u32 {
    // Applying the forward operation repeatedly recovers the original value
    // because the high `shift` bits are already correct after the first pass.
    let mut recovered = value;
    let mut steps = 32 / shift + 1;
    while steps > 0 {
        recovered = value ^ (recovered >> shift);
        steps -= 1;
    }
    value = recovered;
    value
}

/// Inverse of [`crate::murmur3::fmix32`].
pub fn unfmix32(mut h: u32) -> u32 {
    h = unxorshift32(h, 16);
    h = h.wrapping_mul(INV_C2_32);
    h = unxorshift32(h, 13);
    h = h.wrapping_mul(INV_C1_32);
    h = unxorshift32(h, 16);
    h
}

/// Computes a 4-byte pre-image of `target` under 32-bit MurmurHash2 with
/// `seed`: the returned bytes `x` satisfy `murmur2_32(&x, seed) == target`.
///
/// This is the constant-time inversion the paper invokes for the Dablooms
/// deletion attack — no brute force involved.
pub fn murmur2_32_preimage(target: u32, seed: u32) -> [u8; 4] {
    const M: u32 = 0x5bd1_e995;
    const R: u32 = 24;
    let len: u32 = 4;

    // Undo the finalization h ^= h>>13; h *= M; h ^= h>>15.
    let mut h = target;
    h = unxorshift32(h, 15);
    h = h.wrapping_mul(INV_M2_32);
    h = unxorshift32(h, 13);

    // Forward: h = (seed ^ len) * M ^ k', where k' = mixed data word.
    let h0 = (seed ^ len).wrapping_mul(M);
    let k_mixed = h ^ h0;

    // Undo the data mixing k *= M; k ^= k>>R; k *= M.
    let mut k = k_mixed.wrapping_mul(INV_M2_32);
    k = unxorshift32(k, R);
    k = k.wrapping_mul(INV_M2_32);

    k.to_le_bytes()
}

/// Computes `n` distinct pre-images of the same 32-bit MurmurHash2 target by
/// exploiting seed-independence of the construction: each pre-image is an
/// 8-byte message whose first word is free and whose second word compensates.
///
/// This realizes the paper's notion of *multiple pre-images* for a
/// non-cryptographic hash: the cost is `O(n)`, not `O(n * 2^l)`.
pub fn murmur2_32_multi_preimage(target: u32, seed: u32, n: usize) -> Vec<[u8; 8]> {
    const M: u32 = 0x5bd1_e995;
    const R: u32 = 24;
    let len: u32 = 8;

    let mut out = Vec::with_capacity(n);
    for free in 0..n as u32 {
        // Forward structure for 8 bytes:
        //   h = seed ^ len
        //   h = h*M ^ mix(w0)   (after first word)
        //   h = h*M ^ mix(w1)   (after second word)
        //   finalize(h)
        // Pick w0 = free, then solve for mix(w1) so that the pre-final state
        // matches the one needed to finalize to `target`.
        let mix = |mut k: u32| {
            k = k.wrapping_mul(M);
            k ^= k >> R;
            k.wrapping_mul(M)
        };
        let unmix = |mut k: u32| {
            k = k.wrapping_mul(INV_M2_32);
            k = unxorshift32(k, R);
            k.wrapping_mul(INV_M2_32)
        };

        // Required state right before finalization.
        let mut pre_final = target;
        pre_final = unxorshift32(pre_final, 15);
        pre_final = pre_final.wrapping_mul(INV_M2_32);
        pre_final = unxorshift32(pre_final, 13);

        let h_after_w0 = (seed ^ len).wrapping_mul(M) ^ mix(free);
        let needed_mix_w1 = pre_final ^ h_after_w0.wrapping_mul(M);
        let w1 = unmix(needed_mix_w1);

        let mut msg = [0u8; 8];
        msg[..4].copy_from_slice(&free.to_le_bytes());
        msg[4..].copy_from_slice(&w1.to_le_bytes());
        out.push(msg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::murmur2::murmur2_32;
    use crate::murmur3::fmix32;

    #[test]
    fn modular_inverse_constants_are_correct() {
        assert_eq!(0x85eb_ca6bu32.wrapping_mul(INV_C1_32), 1);
        assert_eq!(0xc2b2_ae35u32.wrapping_mul(INV_C2_32), 1);
        assert_eq!(0x5bd1_e995u32.wrapping_mul(INV_M2_32), 1);
    }

    #[test]
    fn unfmix32_inverts_fmix32() {
        for x in [0u32, 1, 42, 0xdead_beef, u32::MAX, 0x1234_5678] {
            assert_eq!(unfmix32(fmix32(x)), x);
            assert_eq!(fmix32(unfmix32(x)), x);
        }
    }

    #[test]
    fn murmur2_32_preimage_hits_target() {
        for target in [0u32, 1, 0xdead_beef, 0x7fff_ffff, u32::MAX] {
            for seed in [0u32, 1, 0x9747_b28c] {
                let msg = murmur2_32_preimage(target, seed);
                assert_eq!(murmur2_32(&msg, seed), target, "target {target:#x} seed {seed:#x}");
            }
        }
    }

    #[test]
    fn multi_preimages_all_hit_target_and_are_distinct() {
        let target = 0xcafe_f00du32;
        let seed = 7;
        let preimages = murmur2_32_multi_preimage(target, seed, 50);
        assert_eq!(preimages.len(), 50);
        let unique: std::collections::HashSet<_> = preimages.iter().collect();
        assert_eq!(unique.len(), 50);
        for msg in preimages {
            assert_eq!(murmur2_32(&msg, seed), target);
        }
    }
}
