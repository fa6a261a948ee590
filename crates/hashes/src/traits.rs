//! Core hashing traits shared by every primitive in this crate.
//!
//! The paper distinguishes two families of hash functions:
//!
//! * **non-cryptographic** functions (MurmurHash2, MurmurHash3) designed
//!   for speed and statistical uniformity, represented here by [`Hasher64`];
//! * **cryptographic** functions (MD5, SHA-1, SHA-2, …) that additionally aim
//!   for pre-image, second pre-image and collision resistance, represented by
//!   [`CryptoHash`].
//!
//! Bloom filters consume *indexes* derived from digests; the strategies doing
//! that derivation live in [`crate::index`] and are generic over these traits.

/// A seeded, non-cryptographic hash function producing a 64-bit digest.
///
/// Implementations are deterministic: the same `(data, seed)` pair always
/// yields the same digest. The seed plays the role of the *salt* used by
/// Bloom-filter implementations that call one function `k` times.
///
/// # Examples
///
/// ```
/// use evilbloom_hashes::{Hasher64, Murmur3_32};
///
/// let h = Murmur3_32;
/// let a = h.hash_with_seed(b"http://example.org/", 0);
/// let b = h.hash_with_seed(b"http://example.org/", 1);
/// assert_ne!(a, b, "different seeds give different digests");
/// ```
pub trait Hasher64: Send + Sync {
    /// Hashes `data` under the given `seed` and returns a 64-bit digest.
    ///
    /// Functions whose native output is 32 bits zero-extend it to 64 bits.
    fn hash_with_seed(&self, data: &[u8], seed: u64) -> u64;

    /// Hashes `data` with the all-zero seed.
    fn hash(&self, data: &[u8]) -> u64 {
        self.hash_with_seed(data, 0)
    }

    /// Human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Width of the native digest in bits (32 or 64 for the functions in this
    /// crate). Attack-complexity estimates use this value.
    fn output_bits(&self) -> u32;
}

/// A cryptographic hash function with a fixed-size digest.
///
/// The trait is object-safe so that higher-level components (HMAC, the digest
/// recycler, benchmark tables) can iterate over a heterogeneous list of
/// functions.
///
/// # Examples
///
/// ```
/// use evilbloom_hashes::{CryptoHash, Sha256};
///
/// let d = Sha256.digest(b"abc");
/// assert_eq!(d.len(), Sha256.output_len());
/// ```
pub trait CryptoHash: Send + Sync {
    /// Digest length in bytes.
    fn output_len(&self) -> usize;

    /// Internal block length in bytes (used by the HMAC construction).
    fn block_len(&self) -> usize;

    /// Computes the digest of `data`.
    fn digest(&self, data: &[u8]) -> Vec<u8>;

    /// Human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Digest length in bits.
    fn output_bits(&self) -> u32 {
        (self.output_len() as u32) * 8
    }
}

/// A keyed pseudo-random function producing a 64-bit tag.
///
/// Keyed functions are the paper's recommended countermeasure (Section 8.2):
/// because the adversary does not know the key, she cannot run the offline
/// forgery searches that power the pollution, false-positive and deletion
/// attacks.
pub trait KeyedHash64: Send + Sync {
    /// Computes the keyed tag of `data`. The extra `tweak` plays the role of
    /// the per-index salt when one keyed function must emulate `k`
    /// independent ones.
    fn mac_with_tweak(&self, data: &[u8], tweak: u64) -> u64;

    /// Computes the keyed tag of `data` with a zero tweak.
    fn mac(&self, data: &[u8]) -> u64 {
        self.mac_with_tweak(data, 0)
    }

    /// Human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Murmur3_32, Sha1};

    #[test]
    fn hasher64_default_hash_uses_zero_seed() {
        let h = Murmur3_32;
        assert_eq!(h.hash(b"abc"), h.hash_with_seed(b"abc", 0));
    }

    #[test]
    fn crypto_hash_output_bits_consistent() {
        assert_eq!(Sha1.output_bits(), 160);
        assert_eq!(Sha1.output_len() * 8, 160);
    }

    #[test]
    fn traits_are_object_safe() {
        let hashers: Vec<Box<dyn Hasher64>> = vec![Box::new(Murmur3_32)];
        assert_eq!(hashers[0].name(), "MurmurHash3-x86-32");
        let digests: Vec<Box<dyn CryptoHash>> = vec![Box::new(Sha1)];
        assert_eq!(digests[0].name(), "SHA-1");
    }
}
