//! # evilbloom-spamfilter
//!
//! A Bitly-like URL-shortening service protected by a Dablooms filter
//! (Section 6 of the paper).
//!
//! The service keeps a scaling, counting Bloom filter of known-malicious
//! URLs: [`Dablooms`], the filters crate's scalable stack with counting
//! slices. Shortening requests are checked against it: a hit means the URL
//! is refused (or sent to a slow, expensive secondary verification). Three
//! adversarial behaviours are modelled:
//!
//! * **pollution**: the adversary registers crafted "phishing" URLs with the
//!   blocklist operator (e.g. via PhishTank), inflating the filter until a
//!   large fraction of *benign* shortening requests are wrongly refused
//!   (Figure 8);
//! * **deletion**: delisting requests for crafted URLs evict genuine
//!   malicious URLs from the counting filter;
//! * **counter overflow**: crafted insert/overflow patterns leave whole
//!   sub-filters "full but empty" (Section 6.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;

use evilbloom_attacks::pollution::craft_polluting_items;
use evilbloom_attacks::SearchStats;
use evilbloom_filters::{Dablooms, ScalableConfig};
use evilbloom_hashes::{KirschMitzenmacher, Murmur3_128};
use evilbloom_urlgen::UrlGenerator;

/// Outcome of a shortening request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The URL was accepted and shortened.
    Accepted,
    /// The URL was refused because the blocklist filter reported it.
    Refused,
}

/// Statistics kept by the shortening service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Shortening requests accepted.
    pub accepted: u64,
    /// Shortening requests refused by the filter.
    pub refused: u64,
}

/// A URL-shortening service with a Dablooms-backed malicious-URL blocklist.
pub struct ShorteningService {
    blocklist: Dablooms,
    known_malicious: HashSet<String>,
    stats: ServiceStats,
}

impl ShorteningService {
    /// Creates a service with the paper's Dablooms configuration
    /// (`δ = 10 000`, `f0 = 0.01`, `r = 0.9`, MurmurHash3 + KM).
    pub fn new_paper_configuration() -> Self {
        Self::with_config(ScalableConfig::dablooms())
    }

    /// Creates a service with a custom Dablooms configuration.
    pub fn with_config(config: ScalableConfig) -> Self {
        ShorteningService {
            blocklist: Dablooms::new(config, KirschMitzenmacher::new(Murmur3_128)),
            known_malicious: HashSet::new(),
            stats: ServiceStats::default(),
        }
    }

    /// The blocklist filter (read access for experiments and attacks).
    pub fn blocklist(&self) -> &Dablooms {
        &self.blocklist
    }

    /// Accumulated service statistics.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Reports a URL as malicious (e.g. via an anti-phishing feed). The URL
    /// is inserted into the Dablooms filter.
    pub fn report_malicious(&mut self, url: &str) {
        self.blocklist.insert(url.as_bytes());
        self.known_malicious.insert(url.to_owned());
    }

    /// Requests delisting of a URL (e.g. after a successful appeal). Like
    /// the original Dablooms `remove`, the deletion is performed without a
    /// membership check — the trusting behaviour the deletion adversary
    /// needs.
    pub fn delist(&mut self, url: &str) {
        self.blocklist.force_delete(url.as_bytes());
        self.known_malicious.remove(url);
    }

    /// Handles a shortening request.
    pub fn shorten(&mut self, url: &str) -> Verdict {
        if self.blocklist.contains(url.as_bytes()) {
            self.stats.refused += 1;
            Verdict::Refused
        } else {
            self.stats.accepted += 1;
            Verdict::Accepted
        }
    }

    /// Fraction of the provided benign URLs that the service wrongly refuses
    /// (collateral damage of pollution).
    pub fn false_refusal_rate<'a, I>(&mut self, benign: I) -> f64
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut total = 0u64;
        let mut refused = 0u64;
        for url in benign {
            total += 1;
            if self.shorten(url) == Verdict::Refused {
                refused += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            refused as f64 / total as f64
        }
    }

    /// Whether a URL the operator believes to be malicious is still detected
    /// (used to measure the impact of deletion attacks).
    pub fn still_detected(&self, url: &str) -> bool {
        self.blocklist.contains(url.as_bytes())
    }
}

impl Default for ShorteningService {
    fn default() -> Self {
        Self::new_paper_configuration()
    }
}

/// A pollution campaign against the service: crafted "phishing" URLs the
/// adversary gets reported as malicious.
#[derive(Debug, Clone)]
pub struct PollutionCampaign {
    /// The crafted URLs, in reporting order.
    pub urls: Vec<String>,
    /// Cost accounting of the forgery search.
    pub stats: SearchStats,
}

/// Plans one wave of a pollution campaign: `count` crafted URLs, drawn from
/// the URL stream named `label`, against the service's *active* sub-filter.
///
/// The adversary targets whichever slice new reports currently land in; as
/// slices fill up she re-plans, which [`run_pollution_campaign`] does
/// automatically slice by slice, one wave per slice.
pub fn plan_pollution_campaign(
    service: &ShorteningService,
    count: usize,
    label: &str,
) -> PollutionCampaign {
    let active = service.blocklist().active_slice();
    let plan = craft_polluting_items(&*active, &UrlGenerator::new(label), count, u64::MAX);
    PollutionCampaign { urls: plan.items, stats: plan.stats }
}

/// Runs a full pollution campaign: keeps crafting URLs against the active
/// slice and reporting them until `total` URLs have been reported. Returns
/// the overall number of crafted URLs reported.
pub fn run_pollution_campaign(service: &mut ShorteningService, total: usize) -> usize {
    let slice_capacity = service.blocklist().params().capacity as usize;
    let mut reported = 0usize;
    let mut wave = 0u32;
    while reported < total {
        let active = service.blocklist().active_slice();
        let remaining = slice_capacity.saturating_sub(active.inserted() as usize);
        if remaining == 0 {
            // The active slice is full: one ordinary report rolls Dablooms
            // over to a fresh slice, which the next wave then targets.
            service.report_malicious(&format!("http://phish-rollover-{wave}.example/"));
            reported += 1;
            wave += 1;
            continue;
        }
        let batch = (total - reported).min(remaining);
        let campaign = plan_pollution_campaign(service, batch, &format!("phish-wave-{wave}"));
        let crafted = campaign.urls.len();
        for url in &campaign.urls {
            service.report_malicious(url);
        }
        reported += crafted;
        wave += 1;
        if crafted == 0 {
            break;
        }
    }
    reported
}

/// Plans a delisting (deletion) attack that evicts `victim` from the
/// blocklist: crafted URLs are delisted so their shared cells drop to zero.
pub fn plan_delisting_attack(service: &ShorteningService, victim: &str) -> Vec<String> {
    // Work against every slice that currently reports the victim.
    let mut items = Vec::new();
    for slice in service.blocklist().slices() {
        if !slice.contains(victim.as_bytes()) {
            continue;
        }
        let generator = UrlGenerator::new("delist");
        let plan = evilbloom_attacks::deletion::plan_targeted_deletion(
            &*slice,
            victim.as_bytes(),
            &generator,
            50_000_000,
        );
        items.extend(plan.items);
    }
    items.sort();
    items.dedup();
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_service() -> ShorteningService {
        ShorteningService::with_config(ScalableConfig {
            slice_capacity: 500,
            base_fpp: 0.01,
            tightening_ratio: 0.9,
        })
    }

    fn benign_urls(count: usize) -> Vec<String> {
        (0..count).map(|i| format!("http://legit-site-{i}.example/article")).collect()
    }

    #[test]
    fn honest_operation_blocks_malicious_and_accepts_benign() {
        let mut service = small_service();
        for i in 0..300 {
            service.report_malicious(&format!("http://phish-{i}.example/login"));
        }
        // Reported URLs are refused.
        assert_eq!(service.shorten("http://phish-0.example/login"), Verdict::Refused);
        assert_eq!(service.shorten("http://phish-299.example/login"), Verdict::Refused);
        // Benign URLs are almost always accepted (f0 = 1%).
        let benign = benign_urls(2000);
        let rate = service.false_refusal_rate(benign.iter().map(String::as_str));
        assert!(rate < 0.03, "false refusal rate {rate}");
    }

    #[test]
    fn pollution_campaign_raises_false_refusals() {
        let mut service = small_service();
        // Honest baseline: a few genuine reports.
        for i in 0..100 {
            service.report_malicious(&format!("http://real-phish-{i}.example/"));
        }
        let benign = benign_urls(2000);
        let baseline = service.false_refusal_rate(benign.iter().map(String::as_str));

        // The adversary floods the feed with crafted URLs (4 slices worth).
        let reported = run_pollution_campaign(&mut service, 2000);
        assert!(reported >= 1900);

        let probe = benign_urls(4000);
        let polluted_rate = service.false_refusal_rate(probe.iter().skip(2000).map(String::as_str));
        assert!(polluted_rate > baseline + 0.05, "polluted {polluted_rate} vs baseline {baseline}");
        // The compound false-positive estimate agrees that things got worse.
        assert!(service.blocklist().current_false_positive_probability() > 0.05);
    }

    #[test]
    fn campaign_pollutes_slices_beyond_design_fill() {
        let mut service = small_service();
        run_pollution_campaign(&mut service, 500);
        let slice = &service.blocklist().slices()[0];
        // A crafted slice-load sets ~capacity*k cells, well above the ~50%
        // fill an honest load produces.
        assert!(slice.fill_ratio() > 0.6, "fill {}", slice.fill_ratio());
    }

    #[test]
    fn delisting_attack_unblocks_a_malicious_url() {
        let mut service = small_service();
        for i in 0..50 {
            service.report_malicious(&format!("http://cover-{i}.example/"));
        }
        let victim = "http://actually-malicious.example/exploit";
        service.report_malicious(victim);
        assert!(service.still_detected(victim));

        let crafted = plan_delisting_attack(&service, victim);
        assert!(!crafted.is_empty());
        // The adversary gets her crafted URLs delisted (repeating the appeal
        // until the shared counters drain).
        let mut rounds = 0;
        while service.still_detected(victim) && rounds < 8 {
            for url in &crafted {
                service.delist(url);
            }
            rounds += 1;
        }
        assert!(!service.still_detected(victim), "victim still detected after {rounds} rounds");
    }

    #[test]
    fn stats_accumulate() {
        let mut service = small_service();
        service.report_malicious("http://bad.example/");
        service.shorten("http://bad.example/");
        service.shorten("http://good.example/");
        let stats = service.stats();
        assert_eq!(stats.refused, 1);
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn default_service_uses_paper_configuration() {
        let service = ShorteningService::default();
        assert_eq!(service.blocklist().params().capacity, 10_000);
    }
}
