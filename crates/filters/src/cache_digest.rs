//! Squid-style cache digests (Rousskov & Wessels) — the target of Section 7.
//!
//! A Squid proxy periodically summarises the keys of its cache (HTTP method +
//! URL) into a Bloom filter called a *cache digest* and ships it to sibling
//! proxies. Peers consult the digest before forwarding a request; every false
//! positive costs at least one wasted round trip.
//!
//! The deployed construction has two weaknesses the paper exploits:
//!
//! * the filter is sized at `m = 5n + 7` bits with `k = 4`, below the optimal
//!   `~6n`/`k≈3–4` trade-off, tripling the false-positive rate;
//! * the four indexes are obtained by splitting a single (unkeyed) MD5 digest
//!   of the key, so an adversary can compute anybody's indexes offline.

use evilbloom_hashes::{IndexStrategy, Md5Split};

use crate::concurrent::ConcurrentBloomFilter;
use crate::params::FilterParams;

/// Number of hash functions Squid uses ("for the sake of efficiency").
pub const SQUID_HASH_COUNT: u32 = 4;

/// Builds the cache-digest key for a request: the HTTP method concatenated
/// with the URL (Squid hashes the store key, which combines both).
pub fn digest_key(method: &str, url: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(method.len() + 1 + url.len());
    key.extend_from_slice(method.as_bytes());
    key.push(b' ');
    key.extend_from_slice(url.as_bytes());
    key
}

/// A Squid-style cache digest.
///
/// # Examples
///
/// ```
/// use evilbloom_filters::cache_digest::CacheDigest;
///
/// let digest = CacheDigest::build(["http://a.example/", "http://b.example/"]);
/// assert!(digest.might_have("GET", "http://a.example/"));
/// ```
#[derive(Debug, Clone)]
pub struct CacheDigest {
    filter: ConcurrentBloomFilter,
    entries: u64,
}

impl CacheDigest {
    /// Creates an empty digest sized for `capacity` cache entries using the
    /// deployed Squid parameters (`m = 5n + 7`, `k = 4`, MD5 split).
    pub fn with_capacity(capacity: u64) -> Self {
        let params = FilterParams::squid(capacity.max(1));
        CacheDigest { filter: ConcurrentBloomFilter::new(params, Md5Split), entries: 0 }
    }

    /// Builds a digest directly from an iterator of cached URLs (all `GET`).
    pub fn build<I, S>(urls: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let urls: Vec<String> = urls.into_iter().map(|u| u.as_ref().to_owned()).collect();
        let mut digest = Self::with_capacity(urls.len() as u64);
        for url in &urls {
            digest.add("GET", url);
        }
        digest
    }

    /// Adds a cached object to the digest.
    pub fn add(&mut self, method: &str, url: &str) {
        self.filter.insert(&digest_key(method, url));
        self.entries += 1;
    }

    /// Queries the digest: `true` means the peer *might* have the object.
    pub fn might_have(&self, method: &str, url: &str) -> bool {
        self.filter.contains(&digest_key(method, url))
    }

    /// Number of objects added to the digest.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Size of the digest in bits (`5n + 7` for the capacity it was built
    /// with).
    pub fn size_bits(&self) -> u64 {
        self.filter.m()
    }

    /// Fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        self.filter.fill_ratio()
    }

    /// Current false-positive probability given the fill ratio.
    pub fn false_positive_probability(&self) -> f64 {
        self.filter.current_false_positive_probability()
    }

    /// Access to the underlying filter (the attack engines probe its bits
    /// with [`ConcurrentBloomFilter::is_set`]).
    pub fn filter(&self) -> &ConcurrentBloomFilter {
        &self.filter
    }

    /// The four filter indexes of a request, as an adversary would compute
    /// them offline.
    pub fn indexes_of(&self, method: &str, url: &str) -> Vec<u64> {
        Md5Split.indexes(&digest_key(method, url), SQUID_HASH_COUNT, self.filter.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_follows_squid() {
        let digest = CacheDigest::with_capacity(200);
        assert_eq!(digest.size_bits(), 1007);
        let paper_experiment = CacheDigest::with_capacity(151);
        assert_eq!(paper_experiment.size_bits(), 762);
    }

    #[test]
    fn membership_of_cached_urls() {
        let urls: Vec<String> =
            (0..100).map(|i| format!("http://origin.example/page{i}")).collect();
        let digest = CacheDigest::build(&urls);
        for url in &urls {
            assert!(digest.might_have("GET", url));
        }
        assert_eq!(digest.entries(), 100);
    }

    #[test]
    fn method_is_part_of_the_key() {
        let mut digest = CacheDigest::with_capacity(10);
        digest.add("GET", "http://a.example/");
        // A different method hashes to (almost surely) different indexes.
        assert_ne!(
            digest.indexes_of("GET", "http://a.example/"),
            digest.indexes_of("HEAD", "http://a.example/")
        );
    }

    #[test]
    fn false_positive_rate_close_to_paper_prediction() {
        // n = 200 at capacity: the paper computes f ≈ 0.09 for the 5n+7
        // sizing. Measure it empirically.
        let urls: Vec<String> = (0..200).map(|i| format!("http://origin.example/obj{i}")).collect();
        let digest = CacheDigest::build(&urls);
        let probes = 30_000;
        let fp = (0..probes)
            .filter(|i| digest.might_have("GET", &format!("http://elsewhere.example/{i}")))
            .count();
        let rate = fp as f64 / probes as f64;
        assert!((rate - 0.09).abs() < 0.04, "observed {rate}");
    }

    #[test]
    fn indexes_are_what_an_adversary_would_compute() {
        let digest = CacheDigest::with_capacity(151);
        let idx = digest.indexes_of("GET", "http://victim.example/");
        assert_eq!(idx.len(), 4);
        assert!(idx.iter().all(|&i| i < digest.size_bits()));
        // Recomputable without the digest object: only public information.
        let recomputed = Md5Split.indexes(&digest_key("GET", "http://victim.example/"), 4, 762);
        assert_eq!(idx, recomputed);
    }

    #[test]
    fn empty_capacity_clamped_to_one() {
        let digest = CacheDigest::with_capacity(0);
        assert!(digest.size_bits() >= 12);
    }

    #[test]
    fn fill_and_fpp_are_consistent() {
        let digest = CacheDigest::build((0..50).map(|i| format!("u{i}")));
        let fill = digest.fill_ratio();
        assert!((digest.false_positive_probability() - fill.powi(4)).abs() < 1e-12);
    }
}
