//! Lock-free bit vector backed by atomic words — the storage of every Bloom
//! filter in this crate. Its copies are raw word arrays
//! ([`AtomicBitVec::snapshot_words`]): bit `i` is bit `i % 64` of word
//! `i / 64`.
//!
//! Every operation takes `&self`: readers and writers proceed without locks.
//! A bit write first loads the word and returns at once when the bit is
//! already set, so re-inserting into a loaded filter costs a load, not a
//! locked read-modify-write. Only a bit that reads 0 goes through
//! `fetch_or`, and the `fetch_or` result decides which caller saw the
//! 0 → 1 transition: exactly one does. That makes the running ones-counter
//! exact once all writers are quiescent, while concurrent readers may see a
//! value that lags in-flight writers by a few bits (hence "approximate" in
//! the accessor names).

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size bit vector of `AtomicU64` words supporting lock-free `&self`
/// reads and writes.
///
/// Memory ordering: bit writes use [`Ordering::Release`] and bit reads
/// [`Ordering::Acquire`], so a reader that observes a bit set also observes
/// every write the setter performed before setting it. The running
/// ones-counter uses relaxed updates — it is a statistic, not a
/// synchronisation point.
///
/// # Examples
///
/// ```
/// use evilbloom_filters::atomic_bitvec::AtomicBitVec;
///
/// let bits = AtomicBitVec::new(128);
/// assert!(!bits.set(42)); // returns the previous value
/// assert!(bits.get(42));
/// assert_eq!(bits.count_ones_approx(), 1);
/// ```
#[derive(Debug)]
pub struct AtomicBitVec {
    words: Vec<AtomicU64>,
    len: u64,
    /// Running count of set bits, maintained by the thread that wins each
    /// bit's 0 → 1 `fetch_or` race.
    ones: AtomicU64,
}

impl AtomicBitVec {
    /// Creates a bit vector of `len` bits, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: u64) -> Self {
        assert!(len > 0, "bit vector length must be positive");
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        AtomicBitVec { words, len, ones: AtomicU64::new(0) }
    }

    /// Number of bits in the vector (`m` in Bloom-filter notation).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Always `false`: the constructor rejects zero-length vectors.
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn locate(&self, index: u64) -> (usize, u64) {
        assert!(index < self.len, "bit index {index} out of range (len {})", self.len);
        ((index / 64) as usize, 1u64 << (index % 64))
    }

    /// Returns the bit at `index` (acquire load).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn get(&self, index: u64) -> bool {
        let (word, mask) = self.locate(index);
        self.words[word].load(Ordering::Acquire) & mask != 0
    }

    /// Atomically sets the bit at `index` to 1 and returns its previous
    /// value. Exactly one concurrent caller observes `false` for any given
    /// bit, which keeps the ones-counter exact.
    ///
    /// A bit that is already set returns `true` after a plain load, with no
    /// read-modify-write: bits are never cleared, so a set bit stays set and
    /// that caller could not have been the one to flip it.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn set(&self, index: u64) -> bool {
        let (word, mask) = self.locate(index);
        let slot = &self.words[word];
        if slot.load(Ordering::Relaxed) & mask != 0 {
            return true;
        }
        let was = slot.fetch_or(mask, Ordering::Release) & mask != 0;
        if !was {
            self.ones.fetch_add(1, Ordering::Relaxed);
        }
        was
    }

    /// Running count of set bits. Exact once all writers are quiescent;
    /// during concurrent insertion it may lag in-flight writers.
    pub fn count_ones_approx(&self) -> u64 {
        self.ones.load(Ordering::Relaxed)
    }

    /// Exact count of set bits, obtained by scanning every word.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.load(Ordering::Acquire).count_ones())).sum()
    }

    /// Number of unset bits (exact scan).
    pub fn count_zeros(&self) -> u64 {
        self.len - self.count_ones()
    }

    /// Fraction of set bits based on the running counter (O(1)).
    pub fn fill_ratio_approx(&self) -> f64 {
        self.count_ones_approx() as f64 / self.len as f64
    }

    /// Fraction of set bits based on an exact scan.
    pub fn fill_ratio(&self) -> f64 {
        self.count_ones() as f64 / self.len as f64
    }

    /// Racily copies the raw word array under `&self` — the persistence
    /// primitive. The copy is word-wise consistent; concurrent writers may
    /// land between words, so the copy can mix "before" and "after" words of
    /// an in-flight insert. For a Bloom filter that torn read is *safe*: bits
    /// are only ever set, so the worst a torn copy does is re-observe a bit
    /// an in-flight insert set — replaying that insert from a log is
    /// idempotent. Consumers needing a ones count for the copy must recount
    /// it from these words ([`AtomicBitVec::from_words`] does, or
    /// `count_ones` per word) — the live running counter is updated *after*
    /// each `fetch_or` and can disagree with any given word-array copy.
    pub fn snapshot_words(&self) -> Vec<u64> {
        self.words.iter().map(|w| w.load(Ordering::Acquire)).collect()
    }

    /// Rebuilds a bit vector of `len` bits from a raw word array (the
    /// inverse of [`AtomicBitVec::snapshot_words`], used on recovery). The
    /// ones-counter is recounted from the words — never restored from a
    /// persisted counter, which may disagree with a racy word copy. Padding
    /// bits beyond `len` in the final word are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or `words` is not exactly `len.div_ceil(64)`
    /// words long.
    pub fn from_words(len: u64, mut words: Vec<u64>) -> Self {
        assert!(len > 0, "bit vector length must be positive");
        assert_eq!(
            words.len() as u64,
            len.div_ceil(64),
            "word count does not match a {len}-bit vector"
        );
        if !len.is_multiple_of(64) {
            let last = words.len() - 1;
            words[last] &= (1u64 << (len % 64)) - 1;
        }
        let ones = words.iter().map(|w| u64::from(w.count_ones())).sum();
        AtomicBitVec {
            words: words.into_iter().map(AtomicU64::new).collect(),
            len,
            ones: AtomicU64::new(ones),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_vector_is_all_zero() {
        let bits = AtomicBitVec::new(130);
        assert_eq!(bits.len(), 130);
        assert_eq!(bits.count_ones(), 0);
        assert_eq!(bits.count_ones_approx(), 0);
        assert!(!bits.is_empty());
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_rejected() {
        AtomicBitVec::new(0);
    }

    #[test]
    fn set_get_roundtrip_with_shared_reference() {
        let bits = AtomicBitVec::new(200);
        assert!(!bits.set(63));
        assert!(!bits.set(64));
        assert!(bits.set(64), "second set reports the bit was already set");
        assert!(bits.get(63) && bits.get(64));
        assert!(!bits.get(65));
        assert_eq!(bits.count_ones(), 2);
        assert_eq!(bits.count_ones_approx(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        AtomicBitVec::new(10).get(10);
    }

    /// Word-layout known answer: bit `i` is bit `i % 64` of word `i / 64`.
    #[test]
    fn snapshot_matches_sequential_bitvec() {
        let atomic = AtomicBitVec::new(300);
        for i in [0u64, 1, 63, 64, 65, 128, 255, 299] {
            atomic.set(i);
        }
        assert_eq!(atomic.snapshot_words(), [(1 << 63) | 0b11, 0b11, 1, 1 << 63, 1 << (299 - 256)]);
    }

    #[test]
    fn snapshot_words_roundtrip_recounts_ones() {
        let bits = AtomicBitVec::new(130);
        for i in [0u64, 63, 64, 127, 129] {
            bits.set(i);
        }
        let words = bits.snapshot_words();
        assert_eq!(words.len(), 3);
        let rebuilt = AtomicBitVec::from_words(130, words);
        assert_eq!(rebuilt.len(), 130);
        assert_eq!(rebuilt.count_ones(), 5);
        // The counter comes from recounting the words, not from the source
        // vector's live counter.
        assert_eq!(rebuilt.count_ones_approx(), 5);
        assert_eq!(rebuilt.snapshot_words(), bits.snapshot_words());
    }

    #[test]
    fn from_words_masks_padding_bits() {
        // A corrupt or hand-built word array may carry garbage beyond `len`;
        // those bits must not survive into the vector.
        let rebuilt = AtomicBitVec::from_words(4, vec![u64::MAX]);
        assert_eq!(rebuilt.count_ones(), 4);
        assert_eq!(rebuilt.count_ones_approx(), 4);
        assert!(rebuilt.get(3));
    }

    #[test]
    #[should_panic(expected = "word count does not match")]
    fn from_words_rejects_wrong_word_count() {
        AtomicBitVec::from_words(130, vec![0; 2]);
    }

    #[test]
    fn snapshot_words_racing_inserts_never_invents_bits() {
        // A snapshot taken while writers are mid-flight may miss in-flight
        // bits but must never contain a bit nobody set (the torn-read safety
        // argument: set-only means a torn copy only re-observes real bits).
        let bits = AtomicBitVec::new(4096);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in (0..4096).step_by(3) {
                    bits.set(i);
                }
            });
            for _ in 0..50 {
                let words = bits.snapshot_words();
                let copy = AtomicBitVec::from_words(4096, words);
                for i in 0..4096 {
                    if copy.get(i) {
                        assert!(i % 3 == 0, "snapshot invented bit {i}");
                    }
                }
            }
            writer.join().expect("writer");
        });
        let final_copy = AtomicBitVec::from_words(4096, bits.snapshot_words());
        assert_eq!(final_copy.count_ones(), bits.count_ones());
    }

    #[test]
    fn concurrent_setters_count_exactly() {
        // Four threads race to set the same 256 bits; the RMW guarantees the
        // counter ends exact despite every bit being contended.
        let bits = AtomicBitVec::new(256);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..256 {
                        bits.set(i);
                    }
                });
            }
        });
        assert_eq!(bits.count_ones(), 256);
        assert_eq!(bits.count_ones_approx(), 256);
        assert_eq!(bits.fill_ratio(), 1.0);
    }
}
