//! # evilbloom-webspider
//!
//! A Scrapy-like web crawler simulation (Section 5 of the paper).
//!
//! The crawler walks a synthetic web graph, de-duplicating visited URLs with
//! a pluggable store: an exact hash set (Scrapy's default fingerprint list)
//! or a Bloom filter (the memory-saving alternative the paper attacks). Two
//! attacks are modelled end to end:
//!
//! * **pollution / blinding** (Section 5.2): the adversary's start page links
//!   to crafted URLs; once crawled, they pollute the de-duplication filter so
//!   that pages of an honest site are skipped as "already visited";
//! * **ghost pages** (Figures 6 and 7): the adversary hides pages from the
//!   crawler by giving them URLs that are false positives of the filter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet, VecDeque};

use evilbloom_attacks::forgery::plan_ghost_pages;
use evilbloom_attacks::pollution::craft_polluting_items;
use evilbloom_filters::{ConcurrentBloomFilter, FilterParams};
use evilbloom_hashes::{SaltedCrypto, Sha512};
use evilbloom_store::ConcurrentDedup;
use evilbloom_urlgen::UrlGenerator;

/// A synthetic web graph: pages and their outgoing links.
#[derive(Debug, Clone, Default)]
pub struct WebGraph {
    links: HashMap<String, Vec<String>>,
}

impl WebGraph {
    /// Creates an empty web graph.
    pub fn new() -> Self {
        WebGraph { links: HashMap::new() }
    }

    /// Adds a page with its outgoing links (creates the page if absent).
    pub fn add_page<S: Into<String>>(&mut self, url: S, links: Vec<String>) {
        self.links.insert(url.into(), links);
    }

    /// Outgoing links of a page (empty if the page has none or is unknown).
    pub fn links_of(&self, url: &str) -> &[String] {
        self.links.get(url).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the graph knows the page.
    pub fn has_page(&self, url: &str) -> bool {
        self.links.contains_key(url)
    }

    /// Total number of pages.
    pub fn page_count(&self) -> usize {
        self.links.len()
    }

    /// Builds an "honest" site: `page_count` pages under `domain`, chained so
    /// a breadth-first crawl starting at the root reaches all of them.
    pub fn honest_site(domain: &str, page_count: usize) -> (Self, String) {
        let mut graph = WebGraph::new();
        let urls: Vec<String> =
            (0..page_count).map(|i| format!("http://{domain}/page/{i}")).collect();
        for (i, url) in urls.iter().enumerate() {
            // Each page links to the next few pages, forming a connected site.
            let links: Vec<String> = urls.iter().skip(i + 1).take(3).cloned().collect();
            graph.add_page(url.clone(), links);
        }
        (graph, urls[0].clone())
    }

    /// Merges another graph into this one (pages of `other` overwrite).
    pub fn merge(&mut self, other: WebGraph) {
        self.links.extend(other.links);
    }
}

/// De-duplication store used by the crawler to mark visited URLs.
pub enum DedupStore {
    /// Exact membership via a hash set of URL fingerprints (Scrapy default:
    /// no false positives, large memory footprint).
    Exact(HashSet<String>),
    /// Bloom-filter membership (small footprint, attackable).
    Bloom(ConcurrentBloomFilter),
    /// Concurrent sharded-store membership (`evilbloom-store`): the same
    /// probabilistic semantics as [`DedupStore::Bloom`], but shareable
    /// across crawler workers and hardened/rotatable underneath.
    Concurrent(ConcurrentDedup),
}

impl DedupStore {
    /// Scrapy-like exact store.
    pub fn exact() -> Self {
        DedupStore::Exact(HashSet::new())
    }

    /// pyBloom-like store: SHA-512-salted indexes with average-case optimal
    /// parameters for `capacity` URLs at false-positive probability `fpp`.
    pub fn bloom(capacity: u64, fpp: f64) -> Self {
        let params = FilterParams::optimal(capacity, fpp);
        DedupStore::Bloom(ConcurrentBloomFilter::new(params, SaltedCrypto::new(Box::new(Sha512))))
    }

    /// Wraps an existing Bloom filter (used to install hardened filters).
    pub fn from_filter(filter: ConcurrentBloomFilter) -> Self {
        DedupStore::Bloom(filter)
    }

    /// Hardened concurrent store: `capacity` URLs at false-positive
    /// probability `fpp` over `shards` keyed shards (keys drawn from
    /// `seed` — deterministic for experiments).
    pub fn concurrent(shards: usize, capacity: u64, fpp: f64, seed: u64) -> Self {
        DedupStore::Concurrent(ConcurrentDedup::hardened_seeded(shards, capacity, fpp, seed))
    }

    /// Wraps an existing concurrent dedup adapter (e.g. one shared with
    /// other crawler workers).
    pub fn from_concurrent(dedup: ConcurrentDedup) -> Self {
        DedupStore::Concurrent(dedup)
    }

    /// Marks a URL as visited.
    pub fn mark_visited(&mut self, url: &str) {
        match self {
            DedupStore::Exact(set) => {
                set.insert(url.to_owned());
            }
            DedupStore::Bloom(filter) => {
                filter.insert(url.as_bytes());
            }
            DedupStore::Concurrent(dedup) => dedup.mark_visited(url.as_bytes()),
        }
    }

    /// Whether a URL is considered already visited.
    pub fn seen(&self, url: &str) -> bool {
        match self {
            DedupStore::Exact(set) => set.contains(url),
            DedupStore::Bloom(filter) => filter.contains(url.as_bytes()),
            DedupStore::Concurrent(dedup) => dedup.seen(url.as_bytes()),
        }
    }

    /// Approximate memory footprint in bytes (the motivation for using Bloom
    /// filters in the first place: Scrapy fingerprints are 77 bytes each).
    pub fn memory_bytes(&self) -> u64 {
        match self {
            DedupStore::Exact(set) => set.len() as u64 * 77,
            DedupStore::Bloom(filter) => filter.params().memory_bytes(),
            DedupStore::Concurrent(dedup) => dedup.memory_bytes(),
        }
    }

    /// Read-only access to the underlying Bloom filter, if any. The
    /// concurrent store deliberately returns `None`: its filters are keyed,
    /// so the offline attack tooling has nothing to inspect.
    pub fn filter(&self) -> Option<&ConcurrentBloomFilter> {
        match self {
            DedupStore::Exact(_) | DedupStore::Concurrent(_) => None,
            DedupStore::Bloom(filter) => Some(filter),
        }
    }
}

/// Statistics of one crawl.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrawlReport {
    /// Pages actually fetched.
    pub fetched: u64,
    /// URLs skipped because the de-duplication store said "already visited"
    /// although they had never been fetched (false-positive skips).
    pub wrongly_skipped: u64,
    /// URLs skipped because they genuinely had been fetched before.
    pub duplicate_skips: u64,
}

/// A breadth-first crawler with a pluggable de-duplication store.
pub struct Crawler {
    store: DedupStore,
    fetched: HashSet<String>,
    report: CrawlReport,
}

impl Crawler {
    /// Creates a crawler using `store` for de-duplication.
    pub fn new(store: DedupStore) -> Self {
        Crawler { store, fetched: HashSet::new(), report: CrawlReport::default() }
    }

    /// The crawl report accumulated so far.
    pub fn report(&self) -> CrawlReport {
        self.report
    }

    /// The de-duplication store (e.g. to inspect the polluted filter).
    pub fn store(&self) -> &DedupStore {
        &self.store
    }

    /// Set of URLs that were actually fetched.
    pub fn fetched_urls(&self) -> &HashSet<String> {
        &self.fetched
    }

    /// Crawls `graph` breadth-first from `start`, up to `max_pages` fetches.
    pub fn crawl(&mut self, graph: &WebGraph, start: &str, max_pages: u64) -> CrawlReport {
        let mut frontier = VecDeque::new();
        frontier.push_back(start.to_owned());
        while let Some(url) = frontier.pop_front() {
            if self.report.fetched >= max_pages {
                break;
            }
            if self.store.seen(&url) {
                if self.fetched.contains(&url) {
                    self.report.duplicate_skips += 1;
                } else {
                    self.report.wrongly_skipped += 1;
                }
                continue;
            }
            // Fetch the page and mark it visited.
            self.store.mark_visited(&url);
            self.fetched.insert(url.clone());
            self.report.fetched += 1;
            for link in graph.links_of(&url) {
                frontier.push_back(link.clone());
            }
        }
        self.report
    }
}

/// The adversary's link-farm site: a start page whose links are crafted
/// polluting URLs (Section 5.2).
#[derive(Debug, Clone)]
pub struct LinkFarm {
    /// Root URL of the adversary's site (the crawl entry point).
    pub root: String,
    /// The crafted polluting URLs.
    pub crafted_urls: Vec<String>,
    /// Search cost of crafting the URLs.
    pub stats: evilbloom_attacks::SearchStats,
}

/// Builds a link farm of `count` polluting URLs against the crawler's current
/// Bloom filter (the filter must be the crawler's store).
///
/// # Panics
///
/// Panics if the crawler uses an exact store (nothing to pollute).
pub fn build_link_farm(crawler: &Crawler, domain: &str, count: usize) -> LinkFarm {
    let filter = crawler.store().filter().expect("pollution only applies to Bloom-filter stores");
    let generator = UrlGenerator::new(&format!("farm-{domain}"));
    let plan = craft_polluting_items(filter, &generator, count, u64::MAX);
    LinkFarm { root: format!("http://{domain}/"), crafted_urls: plan.items, stats: plan.stats }
}

/// Inserts the link farm into a web graph: the root links to every crafted
/// URL and each crafted URL is an empty page.
pub fn install_link_farm(graph: &mut WebGraph, farm: &LinkFarm) {
    graph.add_page(farm.root.clone(), farm.crafted_urls.clone());
    for url in &farm.crafted_urls {
        graph.add_page(url.clone(), Vec::new());
    }
}

/// The adversary's hidden site: decoy pages chaining to ghost pages that the
/// crawler's filter already believes to have visited (Figure 7).
#[derive(Debug, Clone)]
pub struct HiddenSite {
    /// Decoy chain, root first.
    pub decoys: Vec<String>,
    /// Ghost pages (forged false positives).
    pub ghosts: Vec<String>,
}

/// Plans and installs a hidden site against the crawler's Bloom filter.
///
/// # Panics
///
/// Panics if the crawler uses an exact store.
pub fn build_hidden_site(
    crawler: &Crawler,
    graph: &mut WebGraph,
    domain: &str,
    decoy_depth: usize,
    ghost_count: usize,
) -> HiddenSite {
    let filter = crawler.store().filter().expect("ghost pages only apply to Bloom-filter stores");
    let plan = plan_ghost_pages(filter, domain, decoy_depth, ghost_count, u64::MAX);
    // Chain the decoys and hang the ghosts off the last decoy.
    for (i, decoy) in plan.decoys.iter().enumerate() {
        let mut links = Vec::new();
        if i + 1 < plan.decoys.len() {
            links.push(plan.decoys[i + 1].clone());
        } else {
            links.extend(plan.ghosts.iter().cloned());
        }
        graph.add_page(decoy.clone(), links);
    }
    for ghost in &plan.ghosts {
        graph.add_page(ghost.clone(), Vec::new());
    }
    HiddenSite { decoys: plan.decoys, ghosts: plan.ghosts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_store_crawls_everything_exactly_once() {
        let (graph, root) = WebGraph::honest_site("honest.example", 200);
        let mut crawler = Crawler::new(DedupStore::exact());
        let report = crawler.crawl(&graph, &root, 10_000);
        assert_eq!(report.fetched, 200);
        assert_eq!(report.wrongly_skipped, 0);
    }

    #[test]
    fn bloom_store_crawls_honest_site_fine() {
        let (graph, root) = WebGraph::honest_site("honest.example", 500);
        let mut crawler = Crawler::new(DedupStore::bloom(10_000, 0.01));
        let report = crawler.crawl(&graph, &root, 10_000);
        assert_eq!(report.fetched, 500);
        // With a 1% filter and only 500 URLs, wrongful skips are essentially
        // impossible.
        assert_eq!(report.wrongly_skipped, 0);
    }

    #[test]
    fn bloom_store_uses_less_memory_than_fingerprints() {
        let (graph, root) = WebGraph::honest_site("big.example", 2000);
        let mut exact = Crawler::new(DedupStore::exact());
        exact.crawl(&graph, &root, 10_000);
        let mut bloom = Crawler::new(DedupStore::bloom(2000, 0.001));
        bloom.crawl(&graph, &root, 10_000);
        assert!(bloom.store().memory_bytes() < exact.store().memory_bytes() / 10);
    }

    #[test]
    fn pollution_blinds_the_spider() {
        // The paper's Section 5.2 scenario: the crawl starts on the
        // adversary's page, then moves on to an honest site. The crafted
        // links inflate the filter so that honest pages are skipped.
        let capacity = 2_000u64;
        let mut crawler = Crawler::new(DedupStore::bloom(capacity, 0.05));
        let farm_size = 1_900usize;

        let farm = build_link_farm(&crawler, "evil.example", farm_size);
        let (mut graph, honest_root) = WebGraph::honest_site("victim.example", 400);
        install_link_farm(&mut graph, &farm);
        // The adversary's root links to the honest site once the farm is
        // exhausted, modelling the crawl moving on.
        let mut root_links = farm.crafted_urls.clone();
        root_links.push(honest_root.clone());
        graph.add_page(farm.root.clone(), root_links);

        let report = crawler.crawl(&graph, &farm.root, 100_000);
        assert!(report.fetched > farm_size as u64, "the farm itself is crawled");
        assert!(
            report.wrongly_skipped > 0,
            "pollution must cause honest pages to be skipped: {report:?}"
        );
        // The filter is far fuller than the designer expected.
        let fill = crawler.store().filter().expect("bloom store").fill_ratio();
        assert!(fill > 0.6, "fill {fill}");
    }

    #[test]
    fn ghost_pages_stay_hidden() {
        // Crawl an honest site first so the filter has weight, then let the
        // adversary hide pages behind forged false positives.
        let (mut graph, root) = WebGraph::honest_site("honest.example", 800);
        let mut crawler = Crawler::new(DedupStore::bloom(1_000, 0.05));
        crawler.crawl(&graph, &root, 10_000);

        let hidden = build_hidden_site(&crawler, &mut graph, "evil.example", 3, 4);
        assert_eq!(hidden.ghosts.len(), 4);

        // Continue the crawl from the adversary's decoy root.
        let report_before = crawler.report();
        let report = crawler.crawl(&graph, &hidden.decoys[0], 100_000);
        // The decoys are fetched…
        for decoy in &hidden.decoys {
            assert!(crawler.fetched_urls().contains(decoy), "decoy {decoy} must be crawled");
        }
        // …but every ghost is skipped as "already visited".
        for ghost in &hidden.ghosts {
            assert!(!crawler.fetched_urls().contains(ghost), "ghost {ghost} must stay hidden");
        }
        assert!(report.wrongly_skipped >= report_before.wrongly_skipped + 4);
    }

    #[test]
    fn concurrent_store_crawl_matches_single_threaded_filter() {
        // The same honest site, crawled once with the classic single-threaded
        // Bloom dedup and once with the concurrent sharded store: both must
        // fetch exactly the same pages exactly once.
        let (graph, root) = WebGraph::honest_site("honest.example", 600);

        let mut bloom = Crawler::new(DedupStore::bloom(10_000, 0.01));
        let bloom_report = bloom.crawl(&graph, &root, 10_000);

        let mut concurrent = Crawler::new(DedupStore::concurrent(8, 10_000, 0.01, 42));
        let concurrent_report = concurrent.crawl(&graph, &root, 10_000);

        assert_eq!(concurrent_report.fetched, bloom_report.fetched);
        assert_eq!(concurrent_report.wrongly_skipped, 0);
        assert_eq!(concurrent_report.duplicate_skips, bloom_report.duplicate_skips);
        assert_eq!(concurrent.fetched_urls(), bloom.fetched_urls());
    }

    #[test]
    fn concurrent_store_dedups_across_sequential_crawls() {
        // Two crawlers sharing one concurrent store model two spider workers:
        // what the first fetched, the second skips as duplicates.
        let dedup = ConcurrentDedup::hardened_seeded(4, 5_000, 0.01, 7);
        let (graph, root) = WebGraph::honest_site("shared.example", 300);

        let mut first = Crawler::new(DedupStore::from_concurrent(dedup.clone()));
        let first_report = first.crawl(&graph, &root, 10_000);
        assert_eq!(first_report.fetched, 300);

        let mut second = Crawler::new(DedupStore::from_concurrent(dedup));
        let second_report = second.crawl(&graph, &root, 10_000);
        // Every page the first worker fetched is "already visited" now. The
        // second crawler never fetched them itself, so its report counts the
        // skips as wrongful — from the shared store's viewpoint they are the
        // dedup working as intended.
        assert_eq!(second_report.fetched, 0);
        assert_eq!(second_report.wrongly_skipped, 1);
    }

    #[test]
    fn concurrent_store_exposes_no_filter_to_attack_tooling() {
        let crawler = Crawler::new(DedupStore::concurrent(4, 1_000, 0.01, 1));
        assert!(crawler.store().filter().is_none());
        assert!(crawler.store().memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "only applies to Bloom-filter stores")]
    fn link_farm_requires_a_bloom_store() {
        let crawler = Crawler::new(DedupStore::exact());
        build_link_farm(&crawler, "evil.example", 10);
    }

    #[test]
    fn graph_helpers() {
        let (graph, root) = WebGraph::honest_site("site.example", 10);
        assert_eq!(graph.page_count(), 10);
        assert!(graph.has_page(&root));
        assert!(!graph.links_of(&root).is_empty());
        assert!(graph.links_of("http://unknown.example/").is_empty());
    }
}
