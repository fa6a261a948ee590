//! Index-derivation strategies: how an item becomes `k` Bloom-filter indexes.
//!
//! Every attack and every countermeasure in the paper is, at bottom, about
//! this mapping. The strategies below reproduce the derivations used by the
//! three attacked systems and by the proposed defences:
//!
//! | Strategy | Models | Adversary can predict indexes? |
//! |---|---|---|
//! | [`SaltedHashes`] over a non-crypto hash | pyBloom-with-Murmur, ad-hoc filters | yes (trivially) |
//! | [`SaltedCrypto`] | pyBloom (SHA/MD5 + deterministic salt) | yes (public salt, truncation) |
//! | [`KirschMitzenmacher`] | Dablooms (MurmurHash + KM trick) | yes |
//! | [`Md5Split`] | Squid cache digests | yes |
//! | [`RecycledCrypto`] | Section 8.2 recycling countermeasure | yes (but at full-digest cost per trial) |
//! | [`KmIndexes`] over [`KeyedPair`](crate::KeyedPair) | HMAC / SipHash countermeasure | **no** (secret key) |
//! | [`BlockedKm`](crate::BlockedKm) | cache-line blocked layout (Putze et al.), all `k` bits in one 512-bit block | yes over a public pair; **no** over [`KeyedPair`](crate::KeyedPair) |
//!
//! Both Kirsch–Mitzenmacher rows are the same [`KmIndexes`] loop over a
//! different `(h1, h2)` pair source (see [`crate::double`]): two seeded
//! public hash calls, or one 128-bit keyed PRF call
//! ([`KeyedHash64::mac_pair`](crate::KeyedHash64::mac_pair)).
//! [`BlockedKm`](crate::BlockedKm) consumes the same pair sources.

use crate::double::KmIndexes;
use crate::recycle::recycled_indexes;
use crate::traits::{CryptoHash, Hasher64};
use crate::truncate::prefix_to_u64;

/// Derives the `k` filter indexes of an item for a filter with `m` cells.
///
/// Implementations must be deterministic: the same `(item, k, m)` triple must
/// always produce the same indexes, otherwise the filter would exhibit false
/// negatives.
pub trait IndexStrategy: Send + Sync {
    /// Appends the `k` indexes of `item` in `[0, m)` to `out` — the building
    /// block of the batch insert/query APIs, which reuse one flat buffer
    /// across a whole batch.
    fn indexes_into(&self, item: &[u8], k: u32, m: u64, out: &mut Vec<u64>);

    /// Returns the `k` indexes of `item` in `[0, m)` in a fresh vector.
    fn indexes(&self, item: &[u8], k: u32, m: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(k as usize);
        self.indexes_into(item, k, m, &mut out);
        out
    }

    /// Human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Whether an adversary with full knowledge of the implementation (but
    /// not of any secret key) can compute `indexes` herself. This is the
    /// property all three attack families require.
    fn is_predictable(&self) -> bool {
        true
    }
}

/// `k` invocations of a (non-cryptographic or cryptographic-wrapped) seeded
/// hash function, one per salt `0..k`.
#[derive(Debug, Clone)]
pub struct SaltedHashes<H> {
    hasher: H,
}

impl<H: Hasher64> SaltedHashes<H> {
    /// Uses `hasher` with salts `0..k`.
    pub fn new(hasher: H) -> Self {
        SaltedHashes { hasher }
    }
}

impl<H: Hasher64> IndexStrategy for SaltedHashes<H> {
    fn indexes_into(&self, item: &[u8], k: u32, m: u64, out: &mut Vec<u64>) {
        out.extend((0..u64::from(k)).map(|salt| self.hasher.hash_with_seed(item, salt) % m));
    }

    fn name(&self) -> &'static str {
        self.hasher.name()
    }
}

/// `k` invocations of a cryptographic hash over `item || salt`, each digest
/// truncated to a 64-bit prefix before reduction modulo `m` — the pattern
/// pyBloom and many "we use SHA so we are safe" implementations follow.
///
/// Despite the strong hash, the reduction modulo `m` means an adversary only
/// needs `~m` trials per index: this is the *naive* (and attackable) way of
/// using cryptography that the paper contrasts with recycling + keys.
pub struct SaltedCrypto {
    hash: Box<dyn CryptoHash>,
}

impl SaltedCrypto {
    /// Uses `hash` over `item || le64(salt)` for salts `0..k`.
    pub fn new(hash: Box<dyn CryptoHash>) -> Self {
        SaltedCrypto { hash }
    }
}

impl core::fmt::Debug for SaltedCrypto {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SaltedCrypto").field("hash", &self.hash.name()).finish()
    }
}

impl IndexStrategy for SaltedCrypto {
    fn indexes_into(&self, item: &[u8], k: u32, m: u64, out: &mut Vec<u64>) {
        out.extend((0..u64::from(k)).map(|salt| {
            let mut buf = Vec::with_capacity(item.len() + 8);
            buf.extend_from_slice(item);
            buf.extend_from_slice(&salt.to_le_bytes());
            prefix_to_u64(&self.hash.digest(&buf)) % m
        }));
    }

    fn name(&self) -> &'static str {
        self.hash.name()
    }
}

/// The Kirsch–Mitzenmacher "less hashing, same performance" derivation:
/// `g_i(x) = h1(x) + i * h2(x) mod m`, with `h1` and `h2` the seed-0 and
/// seed-1 calls of one base hash — exactly what Dablooms does with
/// MurmurHash. Built with `KirschMitzenmacher::new(hasher)`.
pub type KirschMitzenmacher<H> = KmIndexes<H>;

/// Squid's cache-digest derivation: one 128-bit MD5 of the key, split into
/// four 32-bit words, each reduced modulo `m`.
///
/// When `k > 4` the words are reused cyclically with an offset, mirroring the
/// protocol's "dissuades developers from using more" stance; Squid itself
/// always uses `k = 4`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Md5Split;

impl IndexStrategy for Md5Split {
    fn indexes_into(&self, item: &[u8], k: u32, m: u64, out: &mut Vec<u64>) {
        let digest = crate::md5::md5(item);
        let words = crate::truncate::split_u32_words(&digest, 4);
        out.extend((0..k as usize).map(|i| {
            let base = u64::from(words[i % 4]);
            let round = (i / 4) as u64;
            (base.wrapping_add(round.wrapping_mul(0x9e37_79b9))) % m
        }));
    }

    fn name(&self) -> &'static str {
        "MD5-split"
    }
}

/// The recycling countermeasure of Section 8.2: slice all `k` indexes out of
/// a single cryptographic digest, re-hashing with a salt only when the digest
/// runs out of bits.
pub struct RecycledCrypto {
    hash: Box<dyn CryptoHash>,
}

impl RecycledCrypto {
    /// Recycles digests of `hash`.
    pub fn new(hash: Box<dyn CryptoHash>) -> Self {
        RecycledCrypto { hash }
    }
}

impl core::fmt::Debug for RecycledCrypto {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RecycledCrypto").field("hash", &self.hash.name()).finish()
    }
}

impl IndexStrategy for RecycledCrypto {
    fn indexes_into(&self, item: &[u8], k: u32, m: u64, out: &mut Vec<u64>) {
        out.extend(recycled_indexes(self.hash.as_ref(), item, k, m));
    }

    fn name(&self) -> &'static str {
        self.hash.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KeyedPair, Md5, Murmur3_128, Murmur3_32, Sha1, Sha256, Sha512, SipHash24, SipKey};

    fn keyed_sip(key: SipKey) -> KmIndexes<KeyedPair> {
        KmIndexes::new(KeyedPair::new(Box::new(SipHash24::new(key))))
    }

    fn all_strategies() -> Vec<Box<dyn IndexStrategy>> {
        vec![
            Box::new(SaltedHashes::new(Murmur3_32)),
            Box::new(SaltedCrypto::new(Box::new(Sha1))),
            Box::new(KirschMitzenmacher::new(Murmur3_32)),
            Box::new(Md5Split),
            Box::new(RecycledCrypto::new(Box::new(Sha512))),
            Box::new(keyed_sip(SipKey::new(1, 2))),
        ]
    }

    #[test]
    fn all_strategies_produce_k_indexes_in_range() {
        for strategy in all_strategies() {
            for m in [2u64, 97, 3200, 1 << 20] {
                for k in [1u32, 2, 4, 10] {
                    let idx = strategy.indexes(b"http://example.org/page", k, m);
                    assert_eq!(idx.len(), k as usize, "{} k={k}", strategy.name());
                    assert!(idx.iter().all(|&i| i < m), "{} m={m}", strategy.name());
                }
            }
        }
    }

    #[test]
    fn all_strategies_are_deterministic() {
        for strategy in all_strategies() {
            let a = strategy.indexes(b"item", 7, 4099);
            let b = strategy.indexes(b"item", 7, 4099);
            assert_eq!(a, b, "{}", strategy.name());
        }
    }

    #[test]
    fn distinct_items_differ_with_high_probability() {
        for strategy in all_strategies() {
            let a = strategy.indexes(b"http://a.example/", 4, 1 << 20);
            let b = strategy.indexes(b"http://b.example/", 4, 1 << 20);
            assert_ne!(a, b, "{}", strategy.name());
        }
    }

    #[test]
    fn only_keyed_strategy_is_unpredictable() {
        for strategy in all_strategies() {
            let keyed = strategy.name().starts_with("SipHash") || strategy.name() == "HMAC";
            assert_eq!(!strategy.is_predictable(), keyed, "{}", strategy.name());
        }
    }

    #[test]
    fn kirsch_mitzenmacher_matches_formula() {
        let strategy = KirschMitzenmacher::new(Murmur3_32);
        let m = 10_007u64;
        let h1 = Murmur3_32.hash_with_seed(b"x", 0) % m;
        let h2 = Murmur3_32.hash_with_seed(b"x", 1) % m;
        let idx = strategy.indexes(b"x", 5, m);
        for (i, &got) in idx.iter().enumerate() {
            assert_eq!(got, (h1 + (i as u64) * h2 % m) % m);
        }
    }

    /// Pins the unhardened derivation bit for bit: persisted unhardened
    /// snapshots and crafted attack sets depend on these exact indexes.
    #[test]
    fn kirsch_mitzenmacher_known_answers() {
        let strategy = KirschMitzenmacher::new(Murmur3_128);
        let cases: [(&[u8], u64, [u64; 7]); 6] = [
            (b"http://example.org/", 95_851, [43578, 24883, 6188, 83344, 64649, 45954, 27259]),
            (b"item-0", 95_851, [11648, 69015, 30531, 87898, 49414, 10930, 68297]),
            (b"evilbloom", 95_851, [10302, 33771, 57240, 80709, 8327, 31796, 55265]),
            (
                b"http://example.org/",
                1 << 20,
                [396172, 249447, 102722, 1004573, 857848, 711123, 564398],
            ),
            (b"item-0", 1 << 20, [283238, 1038897, 745980, 453063, 160146, 915805, 622888]),
            (b"evilbloom", 1 << 20, [884477, 18459, 201017, 383575, 566133, 748691, 931249]),
        ];
        for (item, m, expect) in cases {
            assert_eq!(strategy.indexes(item, 7, m), expect, "{item:?} m={m}");
        }
        assert_eq!(strategy.name(), "Kirsch-Mitzenmacher");
        assert!(strategy.is_predictable());
    }

    #[test]
    fn md5_split_uses_the_four_digest_words() {
        let m = 1u64 << 32;
        let idx = Md5Split.indexes(b"GET http://example.org/", 4, m);
        let digest = crate::md5::md5(b"GET http://example.org/");
        let words = crate::truncate::split_u32_words(&digest, 4);
        assert_eq!(idx, words.iter().map(|&w| u64::from(w)).collect::<Vec<_>>());
    }

    #[test]
    fn md5_split_extends_past_four_indexes() {
        let idx = Md5Split.indexes(b"key", 8, 762);
        assert_eq!(idx.len(), 8);
        assert_ne!(idx[0], idx[4], "cyclic reuse must be offset");
    }

    #[test]
    fn salted_crypto_matches_manual_construction() {
        let strategy = SaltedCrypto::new(Box::new(Sha256));
        let m = 9973u64;
        let idx = strategy.indexes(b"item", 3, m);
        for (salt, &got) in idx.iter().enumerate() {
            let mut buf = b"item".to_vec();
            buf.extend_from_slice(&(salt as u64).to_le_bytes());
            let expect = prefix_to_u64(&Sha256.digest(&buf)) % m;
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn keyed_indexes_depend_on_the_key() {
        let a = keyed_sip(SipKey::new(1, 2));
        let b = keyed_sip(SipKey::new(3, 4));
        assert_ne!(a.indexes(b"item", 4, 1 << 16), b.indexes(b"item", 4, 1 << 16));
    }

    #[test]
    fn recycled_crypto_matches_free_function() {
        let strategy = RecycledCrypto::new(Box::new(Md5));
        assert_eq!(strategy.indexes(b"item", 6, 3200), recycled_indexes(&Md5, b"item", 6, 3200));
    }
}
