//! # evilbloom-webcache
//!
//! A Squid-like pair of sibling cache proxies exchanging cache digests
//! (Section 7 of the paper).
//!
//! Two proxies serve a client. Each proxy keeps a cache of fetched objects
//! and periodically publishes a **cache digest** (a Bloom filter of its
//! cache keys, `m = 5n + 7`, `k = 4`, MD5-split). On a local miss a proxy
//! consults its sibling's digest: a hit means "ask the sibling first", which
//! costs one extra round trip; if the digest lied (false positive) the round
//! trip is wasted and the proxy still has to go to the origin.
//!
//! The attack: a malicious client asks proxy A to fetch crafted URLs chosen
//! to pollute A's next digest. Once the digest is exchanged, ordinary
//! requests through proxy B suffer a false-positive rate far above the
//! designed one, each costing a wasted sibling round trip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::time::Duration;

use evilbloom_attacks::pollution::craft_polluting_items;
use evilbloom_attacks::SearchStats;
use evilbloom_filters::CacheDigest;
use evilbloom_urlgen::UrlGenerator;

/// Where a response ultimately came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Served from the proxy's own cache.
    LocalHit,
    /// Served by the sibling proxy after a digest hit.
    SiblingHit,
    /// Fetched from the origin server (including after a wasted sibling
    /// round trip).
    Origin {
        /// Whether a sibling round trip was wasted on a digest false
        /// positive before going to the origin.
        wasted_sibling_probe: bool,
    },
}

/// Latency accounting for a simulated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Where the object came from.
    pub source: ResponseSource,
    /// Total added latency of the request (sibling and origin round trips).
    pub latency: Duration,
}

/// A caching proxy.
#[derive(Debug, Clone)]
pub struct Proxy {
    name: String,
    cache: HashSet<String>,
    digest_of_sibling: Option<CacheDigest>,
}

impl Proxy {
    /// Creates an empty proxy.
    pub fn new(name: &str) -> Self {
        Proxy { name: name.to_owned(), cache: HashSet::new(), digest_of_sibling: None }
    }

    /// The proxy's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of objects in the local cache.
    pub fn cached_objects(&self) -> usize {
        self.cache.len()
    }

    /// Whether the URL is in the local cache.
    pub fn has_cached(&self, url: &str) -> bool {
        self.cache.contains(url)
    }

    /// Stores a fetched object in the local cache.
    pub fn store(&mut self, url: &str) {
        self.cache.insert(url.to_owned());
    }

    /// Builds this proxy's cache digest from its current cache contents
    /// (what Squid does on its periodic digest rebuild).
    pub fn build_digest(&self) -> CacheDigest {
        CacheDigest::build(self.cache.iter())
    }

    /// Installs the sibling's most recent digest.
    pub fn install_sibling_digest(&mut self, digest: CacheDigest) {
        self.digest_of_sibling = Some(digest);
    }

    /// The sibling digest currently installed, if any.
    pub fn sibling_digest(&self) -> Option<&CacheDigest> {
        self.digest_of_sibling.as_ref()
    }
}

/// Network parameters of the simulated deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkModel {
    /// Round-trip time between sibling proxies (the paper's setup: 10 ms).
    pub sibling_rtt: Duration,
    /// Round-trip time from a proxy to the origin server.
    pub origin_rtt: Duration,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            sibling_rtt: Duration::from_millis(10),
            origin_rtt: Duration::from_millis(80),
        }
    }
}

/// Counters accumulated by [`Deployment::request_via`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Requests served from the local cache.
    pub local_hits: u64,
    /// Requests served by the sibling after a digest hit.
    pub sibling_hits: u64,
    /// Requests that wasted a sibling round trip on a digest false positive.
    pub wasted_probes: u64,
    /// Requests that went to the origin without a sibling probe.
    pub direct_origin: u64,
    /// Total added latency across all requests.
    pub total_latency: Duration,
}

impl TrafficStats {
    /// Fraction of sibling probes that were wasted (digest false positives),
    /// relative to all requests that consulted the sibling digest and missed
    /// locally.
    pub fn false_positive_probe_rate(&self) -> f64 {
        let probes = self.sibling_hits + self.wasted_probes;
        if probes == 0 {
            0.0
        } else {
            self.wasted_probes as f64 / probes as f64
        }
    }
}

/// Two sibling proxies, an origin that can serve everything, and a client.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// First proxy (the one the attacker talks to in the Section 7 attack).
    pub proxy_a: Proxy,
    /// Second proxy (the one whose clients suffer the wasted round trips).
    pub proxy_b: Proxy,
    /// Network latency model.
    pub network: NetworkModel,
    stats: TrafficStats,
}

impl Deployment {
    /// Creates a deployment with empty caches.
    pub fn new(network: NetworkModel) -> Self {
        Deployment {
            proxy_a: Proxy::new("proxy-a"),
            proxy_b: Proxy::new("proxy-b"),
            network,
            stats: TrafficStats::default(),
        }
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Exchanges cache digests between the two proxies (the periodic digest
    /// swap Squid performs).
    pub fn exchange_digests(&mut self) {
        let digest_a = self.proxy_a.build_digest();
        let digest_b = self.proxy_b.build_digest();
        self.proxy_a.install_sibling_digest(digest_b);
        self.proxy_b.install_sibling_digest(digest_a);
    }

    /// Issues a client GET for `url` through proxy A (`via_a = true`) or
    /// proxy B, following Squid's decision procedure: local cache → sibling
    /// digest → origin.
    pub fn request_via(&mut self, via_a: bool, url: &str) -> RequestOutcome {
        let network = self.network;
        let (local, sibling) = if via_a {
            (&mut self.proxy_a, &mut self.proxy_b)
        } else {
            (&mut self.proxy_b, &mut self.proxy_a)
        };

        if local.has_cached(url) {
            self.stats.local_hits += 1;
            return RequestOutcome { source: ResponseSource::LocalHit, latency: Duration::ZERO };
        }

        let digest_says_sibling_has_it =
            local.sibling_digest().map(|digest| digest.might_have("GET", url)).unwrap_or(false);

        if digest_says_sibling_has_it {
            if sibling.has_cached(url) {
                // Genuine sibling hit: one sibling RTT, object now cached
                // locally too.
                local.store(url);
                self.stats.sibling_hits += 1;
                self.stats.total_latency += network.sibling_rtt;
                return RequestOutcome {
                    source: ResponseSource::SiblingHit,
                    latency: network.sibling_rtt,
                };
            }
            // False positive: wasted sibling RTT, then origin fetch.
            local.store(url);
            self.stats.wasted_probes += 1;
            let latency = network.sibling_rtt + network.origin_rtt;
            self.stats.total_latency += latency;
            return RequestOutcome {
                source: ResponseSource::Origin { wasted_sibling_probe: true },
                latency,
            };
        }

        // Straight to the origin.
        local.store(url);
        self.stats.direct_origin += 1;
        self.stats.total_latency += network.origin_rtt;
        RequestOutcome {
            source: ResponseSource::Origin { wasted_sibling_probe: false },
            latency: network.origin_rtt,
        }
    }
}

/// The Section 7 attack: crafted URLs requested through proxy A so that A's
/// next cache digest is polluted.
#[derive(Debug, Clone)]
pub struct DigestPollution {
    /// The crafted URLs.
    pub urls: Vec<String>,
    /// Search cost accounting.
    pub stats: SearchStats,
}

/// Crafts `count` polluting URLs against the digest proxy A *would* publish
/// for its current cache plus the crafted URLs themselves.
///
/// Mirroring the paper's experiment, the crafted URLs are chosen against the
/// digest sized for the final cache contents (clean entries + `count`), so
/// that each crafted URL sets 4 fresh bits in the published digest.
pub fn craft_digest_pollution(proxy: &Proxy, count: usize) -> DigestPollution {
    // Build the digest the proxy would publish after caching `count` more
    // objects, then search for URLs that pollute it.
    let mut future_digest =
        CacheDigest::with_capacity(proxy.cached_objects() as u64 + count as u64);
    for url in proxy.cache.iter() {
        future_digest.add("GET", url);
    }
    let generator = UrlGenerator::new("squid-pollution");
    // The digest key is "GET <url>", so candidates must be full keys; wrap
    // the generator accordingly by searching over keys and stripping later.
    let plan =
        craft_polluting_items(&KeyedView { digest: &future_digest }, &generator, count, u64::MAX);
    DigestPollution { urls: plan.items, stats: plan.stats }
}

/// Adapter making a [`CacheDigest`] searchable over plain URLs (the attack
/// controls the URL; the method is always GET).
struct KeyedView<'a> {
    digest: &'a CacheDigest,
}

impl evilbloom_attacks::TargetFilter for KeyedView<'_> {
    fn m(&self) -> u64 {
        self.digest.size_bits()
    }

    fn k(&self) -> u32 {
        evilbloom_filters::cache_digest::SQUID_HASH_COUNT
    }

    fn indexes_of(&self, item: &[u8]) -> Vec<u64> {
        let url = core::str::from_utf8(item).expect("generated URLs are UTF-8");
        self.digest.indexes_of("GET", url)
    }

    fn is_set(&self, index: u64) -> bool {
        self.digest.filter().is_set(index)
    }

    fn weight(&self) -> u64 {
        self.digest.filter().hamming_weight()
    }
}

/// Result of the end-to-end Squid experiment (Section 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquidExperimentReport {
    /// Digest size in bits after pollution.
    pub digest_bits: u64,
    /// Fraction of probe requests through proxy B that hit proxy A
    /// unnecessarily (digest false positives) in the *clean* deployment.
    pub clean_false_hit_rate: f64,
    /// The same fraction after pollution.
    pub polluted_false_hit_rate: f64,
    /// Added latency per wasted probe.
    pub wasted_probe_latency: Duration,
}

/// Runs the paper's Squid experiment: `clean_urls` genuine cache entries on
/// proxy A, `polluting_count` crafted URLs requested by the malicious
/// client, then `probe_count` fresh URLs requested through proxy B.
pub fn run_squid_experiment(
    clean_urls: usize,
    polluting_count: usize,
    probe_count: usize,
    network: NetworkModel,
) -> SquidExperimentReport {
    // Clean deployment baseline.
    let mut clean = Deployment::new(network);
    for i in 0..clean_urls {
        clean.proxy_a.store(&format!("http://origin.example/clean/{i}"));
    }
    clean.exchange_digests();
    for i in 0..probe_count {
        clean.request_via(false, &format!("http://elsewhere.example/probe/{i}"));
    }
    let clean_rate = clean.stats().wasted_probes as f64 / probe_count as f64;

    // Attacked deployment: same clean contents plus crafted URLs fetched via
    // proxy A by the malicious client.
    let mut attacked = Deployment::new(network);
    for i in 0..clean_urls {
        attacked.proxy_a.store(&format!("http://origin.example/clean/{i}"));
    }
    let pollution = craft_digest_pollution(&attacked.proxy_a, polluting_count);
    for url in &pollution.urls {
        attacked.request_via(true, url);
    }
    attacked.exchange_digests();
    let digest_bits = attacked.proxy_b.sibling_digest().expect("digest exchanged").size_bits();

    let before_probes = attacked.stats().wasted_probes;
    for i in 0..probe_count {
        attacked.request_via(false, &format!("http://elsewhere.example/probe/{i}"));
    }
    let polluted_rate =
        (attacked.stats().wasted_probes - before_probes) as f64 / probe_count as f64;

    SquidExperimentReport {
        digest_bits,
        clean_false_hit_rate: clean_rate,
        polluted_false_hit_rate: polluted_rate,
        wasted_probe_latency: network.sibling_rtt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_and_sibling_hits_are_cheaper_than_origin() {
        let mut deployment = Deployment::new(NetworkModel::default());
        deployment.proxy_b.store("http://origin.example/shared");
        deployment.exchange_digests();

        // First request through A: digest points at B, genuine sibling hit.
        let outcome = deployment.request_via(true, "http://origin.example/shared");
        assert_eq!(outcome.source, ResponseSource::SiblingHit);
        assert_eq!(outcome.latency, Duration::from_millis(10));

        // Second request through A: now cached locally.
        let outcome = deployment.request_via(true, "http://origin.example/shared");
        assert_eq!(outcome.source, ResponseSource::LocalHit);
        assert_eq!(outcome.latency, Duration::ZERO);

        // A fresh URL goes straight to the origin.
        let outcome = deployment.request_via(true, "http://origin.example/fresh");
        assert_eq!(outcome.source, ResponseSource::Origin { wasted_sibling_probe: false });
        assert_eq!(outcome.latency, Duration::from_millis(80));
    }

    #[test]
    fn digest_false_positive_costs_an_extra_round_trip() {
        let mut deployment = Deployment::new(NetworkModel::default());
        for i in 0..200 {
            deployment.proxy_a.store(&format!("http://origin.example/{i}"));
        }
        deployment.exchange_digests();
        // Probe with many fresh URLs through B; roughly 9% of them (the
        // 5n+7 sizing) waste a sibling probe.
        for i in 0..3000 {
            deployment.request_via(false, &format!("http://probe.example/{i}"));
        }
        let stats = deployment.stats();
        assert!(stats.wasted_probes > 0);
        let rate = stats.wasted_probes as f64 / 3000.0;
        assert!((rate - 0.09).abs() < 0.05, "rate {rate}");
        // Each wasted probe added a sibling RTT on top of the origin RTT.
        let expected_extra = Duration::from_millis(10) * stats.wasted_probes as u32;
        let baseline = Duration::from_millis(80) * 3000;
        assert_eq!(stats.total_latency, baseline + expected_extra);
    }

    #[test]
    fn crafted_urls_pollute_the_published_digest() {
        let mut deployment = Deployment::new(NetworkModel::default());
        for i in 0..51 {
            deployment.proxy_a.store(&format!("http://origin.example/clean/{i}"));
        }
        let pollution = craft_digest_pollution(&deployment.proxy_a, 100);
        assert_eq!(pollution.urls.len(), 100);
        for url in &pollution.urls {
            deployment.request_via(true, url);
        }
        deployment.exchange_digests();
        let digest = deployment.proxy_b.sibling_digest().expect("digest installed");
        // 151 entries → 762 bits, the figure quoted in the paper.
        assert_eq!(digest.size_bits(), 762);
        // The crafted URLs drive the fill ratio well above the honest
        // expectation for 151 entries.
        assert!(digest.fill_ratio() > 0.55, "fill {}", digest.fill_ratio());
    }

    #[test]
    fn squid_experiment_reproduces_the_paper_gap() {
        // Paper: 79% false hits after pollution vs 40% clean, with 51 clean
        // URLs, 100 polluting URLs and 100 probes. We use more probes to
        // reduce variance; the clean-vs-polluted gap is the claim under test.
        let report = run_squid_experiment(51, 100, 2000, NetworkModel::default());
        assert_eq!(report.digest_bits, 762);
        // The paper reports 40% → 79% on 100 probes; with the textbook
        // false-positive model our clean baseline sits near the theoretical
        // ~9% and pollution multiplies it several-fold — the gap (pollution
        // makes unnecessary sibling hits far more common) is the claim.
        assert!(
            report.polluted_false_hit_rate > 2.5 * report.clean_false_hit_rate,
            "polluted {} vs clean {}",
            report.polluted_false_hit_rate,
            report.clean_false_hit_rate
        );
        assert!(report.polluted_false_hit_rate > 0.25);
        assert!(report.clean_false_hit_rate < 0.15);
        assert_eq!(report.wasted_probe_latency, Duration::from_millis(10));
    }

    #[test]
    fn stats_probe_rate_helper() {
        let stats = TrafficStats { sibling_hits: 10, wasted_probes: 30, ..TrafficStats::default() };
        assert!((stats.false_positive_probe_rate() - 0.75).abs() < 1e-12);
        assert_eq!(TrafficStats::default().false_positive_probe_rate(), 0.0);
    }
}
