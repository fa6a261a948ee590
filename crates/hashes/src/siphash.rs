//! SipHash — a fast, keyed, short-input PRF (Aumasson & Bernstein).
//!
//! SipHash is the countermeasure the paper benchmarks against HMAC in
//! Table 2: a keyed function fast enough to replace MurmurHash while denying
//! the adversary the ability to predict filter indexes.
//!
//! Two output widths share one compression: [`siphash24`] (64 bits, the
//! store's shard routing) and [`siphash24_128`] (two 64-bit words, the
//! `(h1, h2)` pair every hardened filter derives its `k` indexes from).

use crate::traits::{Hasher64, KeyedHash64};

/// A 128-bit SipHash key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipKey {
    /// Low 64 bits of the key (`k0`).
    pub k0: u64,
    /// High 64 bits of the key (`k1`).
    pub k1: u64,
}

impl SipKey {
    /// Builds a key from two 64-bit halves.
    pub fn new(k0: u64, k1: u64) -> Self {
        SipKey { k0, k1 }
    }

    /// Builds a key from 16 little-endian bytes.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        SipKey {
            k0: u64::from_le_bytes(bytes[0..8].try_into().expect("8-byte slice")),
            k1: u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice")),
        }
    }
}

#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// The SipHash initial state under `key`, before any `0xee` of the 128-bit
/// variant.
#[inline(always)]
fn initial_state(key: SipKey) -> [u64; 4] {
    [
        key.k0 ^ 0x736f_6d65_7073_6575,
        key.k1 ^ 0x646f_7261_6e64_6f6d,
        key.k0 ^ 0x6c79_6765_6e65_7261,
        key.k1 ^ 0x7465_6462_7974_6573,
    ]
}

/// Absorbs `data` into `v`: two compression rounds per 8-byte word, then the
/// final word carrying the tail and the length byte. Shared by both output
/// widths, which differ only in their initial and finalisation constants.
#[inline(always)]
fn compress(v: &mut [u64; 4], data: &[u8]) {
    let len = data.len();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8-byte slice"));
        v[3] ^= m;
        sipround(v);
        sipround(v);
        v[0] ^= m;
    }

    let tail = chunks.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    last[7] = len as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

/// Four finalisation rounds after xoring `constant` into `v[v_index]`, and
/// the xor of the resulting state.
#[inline(always)]
fn finalise(v: &mut [u64; 4], v_index: usize, constant: u64) -> u64 {
    v[v_index] ^= constant;
    for _ in 0..4 {
        sipround(v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// SipHash-2-4 of `data` under `key`: two compression rounds per 8-byte
/// word and four finalisation rounds.
pub fn siphash24(key: SipKey, data: &[u8]) -> u64 {
    let mut v = initial_state(key);
    compress(&mut v, data);
    finalise(&mut v, 2, 0xff)
}

/// SipHash-2-4 with a 128-bit output, as two 64-bit words `(h1, h2)`: the
/// variant of the SipHash reference implementation. It xors `0xee` into
/// `v1` at initialisation and into `v2` before the four finalisation rounds
/// that yield `h1`, then `0xdd` into `v1` and four more rounds for `h2`.
/// Both words cost one compression pass; the second costs only four more
/// rounds. The reference's 16-byte output is `h1` LE ‖ `h2` LE.
pub fn siphash24_128(key: SipKey, data: &[u8]) -> (u64, u64) {
    let mut v = initial_state(key);
    v[1] ^= 0xee;
    compress(&mut v, data);
    let h1 = finalise(&mut v, 2, 0xee);
    let h2 = finalise(&mut v, 1, 0xdd);
    (h1, h2)
}

/// Keyed SipHash-2-4 implementing both [`KeyedHash64`] (the countermeasure
/// interface) and [`Hasher64`] (so it can slot into unkeyed benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipHash24 {
    key: SipKey,
}

impl SipHash24 {
    /// Creates the PRF with the given secret key.
    pub fn new(key: SipKey) -> Self {
        SipHash24 { key }
    }

    /// Returns the key (useful for persisting a filter's configuration).
    pub fn key(&self) -> SipKey {
        self.key
    }
}

impl Default for SipHash24 {
    fn default() -> Self {
        SipHash24::new(SipKey::new(0, 0))
    }
}

impl KeyedHash64 for SipHash24 {
    fn mac_with_tweak(&self, data: &[u8], tweak: u64) -> u64 {
        // The tweak is folded into k1 so that distinct tweaks behave as
        // independent PRFs while the secret k0 remains required to predict
        // outputs.
        let tweaked = SipKey::new(self.key.k0, self.key.k1 ^ tweak);
        siphash24(tweaked, data)
    }

    fn mac_pair(&self, data: &[u8]) -> (u64, u64) {
        siphash24_128(self.key, data)
    }

    fn name(&self) -> &'static str {
        "SipHash-2-4"
    }
}

impl Hasher64 for SipHash24 {
    fn hash_with_seed(&self, data: &[u8], seed: u64) -> u64 {
        self.mac_with_tweak(data, seed)
    }

    fn name(&self) -> &'static str {
        "SipHash-2-4"
    }

    fn output_bits(&self) -> u32 {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_key() -> SipKey {
        let bytes: [u8; 16] = core::array::from_fn(|i| i as u8);
        SipKey::from_bytes(&bytes)
    }

    // Official SipHash-2-4 test vectors from the reference implementation
    // (Aumasson & Bernstein): key = 00 01 .. 0f, message = 00 01 .. (len-1).
    #[test]
    fn siphash24_official_vectors() {
        let key = reference_key();
        let expected: [u64; 8] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
            0x1876_5564_cd99_a68d,
            0xcbc9_466e_58fe_e3ce,
            0xab02_00f5_8b01_d137,
        ];
        for (len, want) in expected.iter().enumerate() {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(siphash24(key, &msg), *want, "length {len}");
        }
    }

    #[test]
    fn siphash24_longer_official_vector() {
        // Vector for message length 63 from the reference test set.
        let key = reference_key();
        let msg: Vec<u8> = (0..63u8).collect();
        assert_eq!(siphash24(key, &msg), 0x958a_324c_eb06_4572);
    }

    #[test]
    fn mac_pair_is_the_128_bit_output_under_the_untweaked_key() {
        let prf = SipHash24::new(SipKey::new(42, 43));
        assert_eq!(prf.mac_pair(b"item"), siphash24_128(SipKey::new(42, 43), b"item"));
        // The 128-bit variant is its own function, not the 64-bit one widened.
        assert_ne!(prf.mac_pair(b"item").0, prf.mac(b"item"));
    }

    #[test]
    fn key_from_bytes_matches_halves() {
        let key = reference_key();
        assert_eq!(key.k0, 0x0706_0504_0302_0100);
        assert_eq!(key.k1, 0x0f0e_0d0c_0b0a_0908);
    }

    #[test]
    fn different_keys_give_different_tags() {
        let a = SipHash24::new(SipKey::new(1, 2));
        let b = SipHash24::new(SipKey::new(3, 4));
        assert_ne!(a.mac(b"item"), b.mac(b"item"));
    }

    #[test]
    fn tweak_acts_as_independent_function() {
        let prf = SipHash24::new(SipKey::new(42, 43));
        assert_ne!(prf.mac_with_tweak(b"item", 0), prf.mac_with_tweak(b"item", 1));
    }

    #[test]
    fn hasher64_and_keyed_interfaces_agree() {
        let prf = SipHash24::new(SipKey::new(7, 9));
        assert_eq!(Hasher64::hash_with_seed(&prf, b"x", 5), prf.mac_with_tweak(b"x", 5));
    }
}
