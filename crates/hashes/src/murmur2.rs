//! MurmurHash2 (32-bit).
//!
//! MurmurHash2 is the historical default of many Bloom-filter libraries. It
//! is *not* collision resistant: Aumasson and Bernstein (paper reference \[7\])
//! showed practical inversion and multicollision attacks, and the paper's
//! Dablooms deletion attack relies on the fact that "MurmurHash can be
//! inverted in constant time". See [`crate::inversion`] for the inversion.

use crate::traits::Hasher64;

/// Original 32-bit MurmurHash2 by Austin Appleby.
pub fn murmur2_32(data: &[u8], seed: u32) -> u32 {
    const M: u32 = 0x5bd1_e995;
    const R: u32 = 24;

    let len = data.len();
    let mut h: u32 = seed ^ (len as u32);

    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        let mut k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        k = k.wrapping_mul(M);
        k ^= k >> R;
        k = k.wrapping_mul(M);
        h = h.wrapping_mul(M);
        h ^= k;
    }

    let tail = chunks.remainder();
    match tail.len() {
        3 => {
            h ^= u32::from(tail[2]) << 16;
            h ^= u32::from(tail[1]) << 8;
            h ^= u32::from(tail[0]);
            h = h.wrapping_mul(M);
        }
        2 => {
            h ^= u32::from(tail[1]) << 8;
            h ^= u32::from(tail[0]);
            h = h.wrapping_mul(M);
        }
        1 => {
            h ^= u32::from(tail[0]);
            h = h.wrapping_mul(M);
        }
        _ => {}
    }

    h ^= h >> 13;
    h = h.wrapping_mul(M);
    h ^= h >> 15;
    h
}

/// MurmurHash2 (32-bit) as a seedable [`Hasher64`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Murmur2_32;

impl Hasher64 for Murmur2_32 {
    fn hash_with_seed(&self, data: &[u8], seed: u64) -> u64 {
        u64::from(murmur2_32(data, seed as u32))
    }

    fn name(&self) -> &'static str {
        "MurmurHash2-32"
    }

    fn output_bits(&self) -> u32 {
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Cross-checked against Austin Appleby's reference C++ implementation.
    #[test]
    fn murmur2_32_reference_vectors() {
        assert_eq!(murmur2_32(b"", 0), 0);
        assert_eq!(murmur2_32(b"", 1), 0x5bd15e36);
        assert_eq!(murmur2_32(b"hello", 0), 0xe56129cb);
        assert_eq!(murmur2_32(b"hello, world", 0), 0x4b4c9d80);
    }

    #[test]
    fn seed_sensitivity() {
        assert_ne!(murmur2_32(b"abc", 0), murmur2_32(b"abc", 1));
    }

    #[test]
    fn all_tail_lengths_are_distinct() {
        let data: Vec<u8> = (1u8..=32).collect();
        let mut outputs = std::collections::HashSet::new();
        for len in 0..=data.len() {
            outputs.insert(murmur2_32(&data[..len], 99));
        }
        assert_eq!(outputs.len(), data.len() + 1);
    }

    #[test]
    fn hasher64_wrappers() {
        assert_eq!(Murmur2_32.output_bits(), 32);
        assert_eq!(Murmur2_32.hash(b"hello"), u64::from(murmur2_32(b"hello", 0)));
    }
}
