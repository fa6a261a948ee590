//! Double hashing: one (or two) hash calls yielding a 64-bit pair from which
//! all `k` Bloom-filter indexes are derived — the Kirsch–Mitzenmacher "less
//! hashing, same performance" result packaged as a reusable *hash strategy*.
//!
//! [`HashStrategy`] separates the expensive part (hashing the item once into
//! a `(u64, u64)` pair) from the cheap part (deriving indexes from the pair).
//! That split lets the blocked filter pick a *block* with one half and probe
//! inside it with the other, and lets batch APIs precompute hashes in one
//! pass and replay them in a second, memory-bound pass. [`KmIndexes`] turns
//! any pair source into an [`IndexStrategy`] through the one index loop,
//! [`km_indexes_from_pair`].
//!
//! Three pair sources are provided:
//!
//! * [`Murmur128Pair`] — a **single** MurmurHash3 x64_128 call split into its
//!   two 64-bit halves (the cheapest option, what Dablooms would do if it
//!   used the full digest); predictable, hence attackable;
//! * any [`Hasher64`] — its seed-0 and seed-1 digests, the classic
//!   formulation behind [`crate::KirschMitzenmacher`]; predictable;
//! * [`KeyedPair`] — two tweaked calls of a secret-keyed [`KeyedHash64`]
//!   (SipHash/HMAC), the Section 8.2 countermeasure carried over to the
//!   double-hashing world; **unpredictable** without the key.

use crate::traits::{Hasher64, KeyedHash64};
use crate::IndexStrategy;

/// Hashes an item once into a 64-bit pair `(h1, h2)` from which `k` filter
/// indexes (or a block and `k` in-block offsets) are derived.
///
/// Implementations must be deterministic — the same item always yields the
/// same pair — or the consuming filter would exhibit false negatives.
pub trait HashStrategy: Send + Sync {
    /// The `(h1, h2)` pair of `item`.
    fn hash_pair(&self, item: &[u8]) -> (u64, u64);

    /// Human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Whether an adversary with full knowledge of the implementation (but
    /// not of any secret key) can compute the pair herself — the property
    /// every offline attack search requires.
    fn is_predictable(&self) -> bool {
        true
    }
}

/// One MurmurHash3 x64_128 call, split into its two 64-bit halves.
#[derive(Debug, Clone, Copy, Default)]
pub struct Murmur128Pair;

impl HashStrategy for Murmur128Pair {
    fn hash_pair(&self, item: &[u8]) -> (u64, u64) {
        crate::murmur3::murmur3_x64_128(item, 0)
    }

    fn name(&self) -> &'static str {
        "MurmurHash3-x64-128-pair"
    }
}

/// Any seeded 64-bit hash is a pair source: its seed-0 and seed-1 digests.
/// The pair is named after the derivation it feeds, so
/// [`crate::KirschMitzenmacher`] reports as `"Kirsch-Mitzenmacher"`.
impl<H: Hasher64> HashStrategy for H {
    fn hash_pair(&self, item: &[u8]) -> (u64, u64) {
        (self.hash_with_seed(item, 0), self.hash_with_seed(item, 1))
    }

    fn name(&self) -> &'static str {
        "Kirsch-Mitzenmacher"
    }
}

/// Two tweaked calls of a secret-keyed PRF — the keyed countermeasure for
/// pair-consuming filters. Without the key the adversary cannot evaluate the
/// pair, so none of the offline searches apply.
pub struct KeyedPair {
    prf: Box<dyn KeyedHash64>,
}

impl KeyedPair {
    /// Uses `prf` with tweaks 0 and 1.
    pub fn new(prf: Box<dyn KeyedHash64>) -> Self {
        KeyedPair { prf }
    }
}

impl core::fmt::Debug for KeyedPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("KeyedPair").field("prf", &self.prf.name()).finish()
    }
}

impl HashStrategy for KeyedPair {
    fn hash_pair(&self, item: &[u8]) -> (u64, u64) {
        (self.prf.mac_with_tweak(item, 0), self.prf.mac_with_tweak(item, 1))
    }

    fn name(&self) -> &'static str {
        self.prf.name()
    }

    fn is_predictable(&self) -> bool {
        false
    }
}

/// Derives the `k` Kirsch–Mitzenmacher indexes `g_i = h1 + i·h2 mod m` from a
/// precomputed pair: the one Kirsch–Mitzenmacher index loop, behind every
/// [`KmIndexes`].
#[inline]
pub fn km_indexes_from_pair(pair: (u64, u64), k: u32, m: u64) -> impl Iterator<Item = u64> {
    let h1 = pair.0 % m;
    let h2 = pair.1 % m;
    (0..u64::from(k)).map(move |i| (h1 + i.wrapping_mul(h2) % m) % m)
}

/// Kirsch–Mitzenmacher double hashing over any [`HashStrategy`] pair source,
/// as an [`IndexStrategy`] pluggable into every filter in `evilbloom-filters`.
///
/// Over a seeded [`Hasher64`] it is the classic
/// [`crate::KirschMitzenmacher`] strategy; over [`Murmur128Pair`] it halves
/// the hashing work; over [`KeyedPair`] it is the keyed (unpredictable)
/// derivation every hardened filter uses.
#[derive(Debug, Clone)]
pub struct KmIndexes<S> {
    strategy: S,
}

impl<S: HashStrategy> KmIndexes<S> {
    /// Wraps a pair source.
    pub fn new(strategy: S) -> Self {
        KmIndexes { strategy }
    }
}

impl<S: HashStrategy> IndexStrategy for KmIndexes<S> {
    fn indexes_into(&self, item: &[u8], k: u32, m: u64, out: &mut Vec<u64>) {
        out.extend(km_indexes_from_pair(self.strategy.hash_pair(item), k, m));
    }

    fn name(&self) -> &'static str {
        self.strategy.name()
    }

    fn is_predictable(&self) -> bool {
        self.strategy.is_predictable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Murmur3_128, SipHash24, SipKey};

    #[test]
    fn murmur128_pair_matches_reference_halves() {
        let (lo, hi) = crate::murmur3::murmur3_x64_128(b"item", 0);
        assert_eq!(Murmur128Pair.hash_pair(b"item"), (lo, hi));
    }

    #[test]
    fn seeded_hasher_pair_is_the_seed_0_and_1_digests() {
        let pair = Murmur3_128.hash_pair(b"item");
        assert_eq!(pair.0, Murmur3_128.hash_with_seed(b"item", 0));
        assert_eq!(pair.1, Murmur3_128.hash_with_seed(b"item", 1));
    }

    #[test]
    fn km_indexes_are_in_range_and_deterministic() {
        let strategy = KmIndexes::new(Murmur128Pair);
        let a = strategy.indexes(b"item", 7, 4099);
        let b = strategy.indexes(b"item", 7, 4099);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        assert!(a.iter().all(|&i| i < 4099));
    }

    #[test]
    fn indexes_into_matches_indexes() {
        let strategy = KmIndexes::new(Murmur128Pair);
        let mut out = vec![999];
        strategy.indexes_into(b"item", 5, 1 << 16, &mut out);
        assert_eq!(out[0], 999, "indexes_into must append, not overwrite");
        assert_eq!(out[1..], strategy.indexes(b"item", 5, 1 << 16));
    }

    #[test]
    fn keyed_pair_depends_on_the_key() {
        let a = KeyedPair::new(Box::new(SipHash24::new(SipKey::new(1, 2))));
        let b = KeyedPair::new(Box::new(SipHash24::new(SipKey::new(3, 4))));
        assert_ne!(a.hash_pair(b"item"), b.hash_pair(b"item"));
        assert!(!a.is_predictable());
        assert!(Murmur128Pair.is_predictable());
    }

    #[test]
    fn keyed_km_strategy_is_unpredictable() {
        let keyed = KmIndexes::new(KeyedPair::new(Box::new(SipHash24::new(SipKey::new(1, 2)))));
        assert!(!IndexStrategy::is_predictable(&keyed));
        let idx = keyed.indexes(b"item", 4, 1 << 16);
        assert_eq!(idx.len(), 4);
        assert!(idx.iter().all(|&i| i < (1 << 16)));
    }
}
