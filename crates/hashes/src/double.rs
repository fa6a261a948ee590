//! Double hashing: one (or two) hash calls yielding a 64-bit pair from which
//! all `k` Bloom-filter indexes are derived — the Kirsch–Mitzenmacher "less
//! hashing, same performance" result packaged as a reusable *hash strategy*.
//!
//! [`HashStrategy`] separates the expensive part (hashing the item once into
//! a `(u64, u64)` pair) from the cheap part (deriving indexes from the pair).
//! That split lets batch APIs precompute hashes in one pass and replay them
//! in a second, memory-bound pass. Two [`IndexStrategy`]s consume a pair
//! source: [`KmIndexes`], through the one index loop
//! [`km_indexes_from_pair`], and [`BlockedKm`], the cache-line blocked
//! layout, which picks a *block* with one half of the pair and probes inside
//! it with both.
//!
//! Three pair sources are provided:
//!
//! * [`Murmur128Pair`] — a **single** MurmurHash3 x64_128 call split into its
//!   two 64-bit halves (the cheapest option, what Dablooms would do if it
//!   used the full digest); predictable, hence attackable;
//! * any [`Hasher64`] — its seed-0 and seed-1 digests, the classic
//!   formulation behind [`crate::KirschMitzenmacher`]; predictable;
//! * [`KeyedPair`] — **one** 128-bit call of a secret-keyed [`KeyedHash64`]
//!   ([`KeyedHash64::mac_pair`]: SipHash-2-4-128, or the leading 16 bytes of
//!   one HMAC tag), the Section 8.2 countermeasure carried over to the
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

/// One 128-bit call of a secret-keyed PRF ([`KeyedHash64::mac_pair`]) —
/// the keyed countermeasure for pair-consuming filters. Without the key the
/// adversary cannot evaluate the pair, so none of the offline searches
/// apply.
pub struct KeyedPair {
    prf: Box<dyn KeyedHash64>,
}

impl KeyedPair {
    /// Takes each pair from one [`KeyedHash64::mac_pair`] call of `prf`.
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
        self.prf.mac_pair(item)
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
///
/// `h1` and `h2` are reduced mod `m` once; each further index is the
/// additive recurrence `g_{i+1} = g_i + h2 (mod m)` (Kirsch & Mitzenmacher,
/// "Less Hashing, Same Performance", ESA 2006). Since `g_i, h2 < m`, one
/// conditional subtraction of `m` wraps the sum, so `k` indexes cost two
/// divisions rather than `2k + 2`. The wrap is `min(next, next - m)` with
/// a wrapping subtraction (for `next < m` it wraps above `next`, so `min`
/// keeps `next`), which compiles to a conditional move: whether a sum
/// wraps is a coin flip, and a branch on it would be mispredicted about
/// once per two indexes.
///
/// Domain: the result equals the direct formula `(h1 + (i·h2 mod m)) mod m`
/// whenever `(k − 1)(m − 1) < 2^64`, so `i·h2` cannot overflow, and
/// `m ≤ 2^63`, so `g_i + h2` cannot. Filters stay far inside both (a filter
/// of 2^58 bits would be 32 PiB); neither is checked on this hot path.
#[inline]
pub fn km_indexes_from_pair(pair: (u64, u64), k: u32, m: u64) -> impl Iterator<Item = u64> {
    let h2 = pair.1 % m;
    let mut g = pair.0 % m;
    (0..k).map(move |_| {
        let index = g;
        let next = g + h2;
        g = next.min(next.wrapping_sub(m));
        index
    })
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

/// Bits per block of the cache-line blocked layout: one x86-64 cache line.
pub const BLOCK_BITS: u64 = 512;

/// The cache-line blocked layout (Putze, Sanders & Singler, "Cache-, Hash-
/// and Space-Efficient Bloom Filters", JEA 2009) as an [`IndexStrategy`]
/// over any [`HashStrategy`] pair source: all `k` indexes of an item fall in
/// one [`BLOCK_BITS`]-bit block, so a probe touches one cache line.
///
/// 1. one pair call yields `(h1, h2)`;
/// 2. `h1 mod (m / 512)` picks the block;
/// 3. the in-block offsets are `(h2 + i·stride) mod 512` with the odd stride
///    `(h1 >> 32) | 1` — odd, hence coprime with 512, so the `k` offsets are
///    pairwise distinct.
///
/// `m` should be a whole number of blocks (`FilterParams::rounded_to_blocks`
/// in `evilbloom-filters`); a ragged tail is never indexed, so no index
/// reaches `m`. The layout is a performance trade, not a defence: over a
/// predictable pair source the block and offsets are computable offline, and
/// over [`KeyedPair`] it is the hardened blocked layout.
#[derive(Debug, Clone)]
pub struct BlockedKm<S> {
    strategy: S,
}

impl<S: HashStrategy> BlockedKm<S> {
    /// Wraps a pair source.
    pub fn new(strategy: S) -> Self {
        BlockedKm { strategy }
    }
}

impl<S: HashStrategy> IndexStrategy for BlockedKm<S> {
    /// # Panics
    ///
    /// Panics if `k` exceeds [`BLOCK_BITS`] or `m` is smaller than one block.
    fn indexes_into(&self, item: &[u8], k: u32, m: u64, out: &mut Vec<u64>) {
        assert!(u64::from(k) <= BLOCK_BITS, "k = {k} exceeds the {BLOCK_BITS}-bit block");
        let blocks = m / BLOCK_BITS;
        assert!(blocks > 0, "m = {m} is smaller than one {BLOCK_BITS}-bit block");
        let (h1, h2) = self.strategy.hash_pair(item);
        let base = h1 % blocks * BLOCK_BITS;
        let stride = (h1 >> 32) | 1;
        out.extend(
            (0..u64::from(k))
                .map(|i| base + (h2.wrapping_add(i.wrapping_mul(stride)) & (BLOCK_BITS - 1))),
        );
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

    /// The direct double-modulo formula the recurrence replaced, on the
    /// inputs it is defined for (`(k − 1)(m − 1) < 2^64`).
    fn km_direct(pair: (u64, u64), k: u32, m: u64) -> Vec<u64> {
        let h1 = pair.0 % m;
        let h2 = pair.1 % m;
        (0..u64::from(k)).map(|i| (h1 + i.wrapping_mul(h2) % m) % m).collect()
    }

    #[test]
    fn km_recurrence_matches_the_direct_formula() {
        let mut state = 0x4B4D_0001_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state ^ (state >> 29)
        };
        let ms = [1, 2, 3, 97, 95_851, 1 << 20, 7_189_248, (1 << 40) + 1];
        for _ in 0..10_000 {
            let pair = (next(), next());
            for k in [1, 2, 7, 16, 32] {
                for m in ms {
                    let got: Vec<u64> = km_indexes_from_pair(pair, k, m).collect();
                    assert_eq!(got, km_direct(pair, k, m), "pair {pair:?} k={k} m={m}");
                }
            }
        }
        // Pairs at the edges of the wrap (h1 = m − 1 with h2 = m − 1 or 0),
        // an all-ones pair and a zero h1.
        for m in ms {
            for pair in [(m - 1, m - 1), (m - 1, 0), (u64::MAX, u64::MAX), (0, 1)] {
                let got: Vec<u64> = km_indexes_from_pair(pair, 32, m).collect();
                assert_eq!(got, km_direct(pair, 32, m), "pair {pair:?} m={m}");
            }
        }
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
        let blocked = BlockedKm::new(KeyedPair::new(Box::new(SipHash24::new(SipKey::new(1, 2)))));
        assert!(!IndexStrategy::is_predictable(&blocked));
        let idx = keyed.indexes(b"item", 4, 1 << 16);
        assert_eq!(idx.len(), 4);
        assert!(idx.iter().all(|&i| i < (1 << 16)));
    }

    /// Pins the blocked layout bit for bit: recorded from the dedicated
    /// blocked filter this strategy replaced, whose `m = 1000` and
    /// `m = 3200` rounded up to 1024 and 3584 bits.
    #[test]
    fn blocked_km_known_answers() {
        let strategy = BlockedKm::new(Murmur128Pair);
        let cases: [(&[u8], u64, [u64; 7]); 9] = [
            (b"http://example.org/", 1024, [157, 96, 35, 486, 425, 364, 303]),
            (b"item-0", 1024, [195, 168, 141, 114, 87, 60, 33]),
            (b"evilbloom", 1024, [900, 521, 654, 787, 920, 541, 674]),
            (b"http://example.org/", 3584, [1693, 1632, 1571, 2022, 1961, 1900, 1839]),
            (b"item-0", 3584, [195, 168, 141, 114, 87, 60, 33]),
            (b"evilbloom", 3584, [2948, 2569, 2702, 2835, 2968, 2589, 2722]),
            (b"http://example.org/", 1 << 16, [6301, 6240, 6179, 6630, 6569, 6508, 6447]),
            (b"item-0", 1 << 16, [52419, 52392, 52365, 52338, 52311, 52284, 52257]),
            (b"evilbloom", 1 << 16, [64388, 64009, 64142, 64275, 64408, 64029, 64162]),
        ];
        for (item, m, expect) in cases {
            assert_eq!(strategy.indexes(item, 7, m), expect, "{item:?} m={m} k=7");
            // k = 4 is the same walk, stopped early.
            assert_eq!(strategy.indexes(item, 4, m), expect[..4], "{item:?} m={m} k=4");
        }
        assert_eq!(strategy.name(), "MurmurHash3-x64-128-pair");
        assert!(strategy.is_predictable());
    }

    #[test]
    fn blocked_km_never_indexes_a_ragged_tail() {
        let strategy = BlockedKm::new(Murmur128Pair);
        for i in 0..200 {
            let idx = strategy.indexes(format!("item-{i}").as_bytes(), 8, 1500);
            assert!(idx.iter().all(|&i| i < 1024), "{idx:?}");
        }
    }

    #[test]
    #[should_panic(expected = "smaller than one 512-bit block")]
    fn blocked_km_rejects_m_below_one_block() {
        BlockedKm::new(Murmur128Pair).indexes(b"item", 4, 511);
    }
}
