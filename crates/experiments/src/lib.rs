//! # evilbloom-experiments
//!
//! Reproduction harness for every table and figure in the evaluation of
//! *"The Power of Evil Choices in Bloom Filters"*. Each `figN` / `tableN`
//! function computes the series/rows the paper reports and returns them as a
//! plain-text table; the `evilbloom-experiments` binary prints them.
//!
//! | Function | Paper artefact |
//! |---|---|
//! | [`fig3_pollution_curve`] | Fig. 3 — false-positive probability vs insertions (m=3200, k=4) |
//! | [`table1_attack_probabilities`] | Table 1 — attack success probabilities (analytic + Monte-Carlo) |
//! | [`fig5_polluting_url_cost`] | Fig. 5 — cost of forging polluting URLs for several target `f` |
//! | [`fig6_ghost_url_cost`] | Fig. 6 — cost of forging ghost URLs vs filter occupation |
//! | [`scrapy_attack`] | Section 5 — blinding the spider + ghost pages (Fig. 7) |
//! | [`fig8_dablooms_pollution`] | Fig. 8 — compound FPP of Dablooms under partial/full pollution |
//! | [`dablooms_overflow`] | Section 6.2 — "empty but full" counter-overflow attack |
//! | [`squid_attack`] | Section 7 — cache-digest pollution between sibling proxies |
//! | [`fig9_hash_domain`] | Fig. 9 — digest bits required vs filter size |
//! | [`table2_query_times`] | Table 2 — naive vs recycling query cost per hash function |
//! | [`worst_case_parameters`] | Section 8.1 — worst-case parameter ratios |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::Instant;

use evilbloom_analysis::{attack_probability, false_positive, hash_domain, scalable, worst_case};
use evilbloom_attacks::pollution::insertion_sweep;
use evilbloom_attacks::{craft_false_positives, craft_polluting_items};
use evilbloom_filters::{ConcurrentBloomFilter, ConcurrentCountingFilter, FilterParams};
use evilbloom_hashes::{
    CryptoHash, IndexStrategy, KirschMitzenmacher, Md5, Murmur2_32, Murmur3_128, RecycledCrypto,
    SaltedCrypto, SaltedHashes, Sha1, Sha256, Sha384, Sha512, SipHash24, SipKey,
};
use evilbloom_urlgen::UrlGenerator;

/// Scale knob: `Quick` keeps every experiment under a few seconds (used by
/// tests and CI); `Paper` uses the paper's parameters where practical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced-scale run (default).
    Quick,
    /// Paper-scale run (slower).
    Paper,
}

/// Figure 3: false-positive probability as a function of inserted items for
/// the honest, fully adversarial and partial-attack scenarios
/// (m = 3200, k = 4, threshold f_opt = 0.077).
pub fn fig3_pollution_curve() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 3 — m=3200, k=4, f_opt=0.077");
    let _ =
        writeln!(out, "{:>8} {:>12} {:>12} {:>12}", "n", "honest_f", "partial_f", "adversarial_f");
    for point in insertion_sweep(3200, 4, 600, 50, 400) {
        let _ = writeln!(
            out,
            "{:>8} {:>12.4} {:>12.4} {:>12.4}",
            point.inserted, point.honest, point.partial, point.adversarial
        );
    }
    let threshold = 0.077;
    let _ = writeln!(
        out,
        "threshold {:.3}: honest after {} insertions, adversarial after {} insertions",
        threshold,
        worst_case::honest_insertions_to_reach(3200, 4, threshold),
        worst_case::insertions_to_reach(3200, 4, threshold),
    );
    out
}

/// Table 1: analytic success probabilities of each attack, next to a
/// Monte-Carlo estimate measured against a real filter.
pub fn table1_attack_probabilities(scale: Scale) -> String {
    let (m, k) = (4096u64, 4u32);
    let trials: u64 = match scale {
        Scale::Quick => 20_000,
        Scale::Paper => 200_000,
    };
    // Load the filter to half weight with random items.
    let filter = ConcurrentBloomFilter::new(
        FilterParams::explicit(m, k, m / (2 * u64::from(k))),
        KirschMitzenmacher::new(Murmur3_128),
    );
    let mut i = 0u64;
    while filter.hamming_weight() < m / 2 {
        filter.insert(format!("member-{i}").as_bytes());
        i += 1;
    }
    let w = filter.hamming_weight();

    let mut pollution_hits = 0u64;
    let mut forgery_hits = 0u64;
    let mut deletion_hits = 0u64;
    let victim_cells = filter.indexes(b"victim-item");
    for t in 0..trials {
        let candidate = format!("probe-{t}");
        let idx = filter.indexes(candidate.as_bytes());
        let distinct: std::collections::HashSet<u64> = idx.iter().copied().collect();
        if distinct.len() == idx.len() && idx.iter().all(|&b| !filter.is_set(b)) {
            pollution_hits += 1;
        }
        if idx.iter().all(|&b| filter.is_set(b)) {
            forgery_hits += 1;
        }
        if idx.iter().any(|b| victim_cells.contains(b)) {
            deletion_hits += 1;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table 1 — attack success probabilities (m={m}, k={k}, W={w}, {trials} trials)"
    );
    let _ = writeln!(out, "{:<36} {:>14} {:>14}", "attack", "analytic", "measured");
    let _ = writeln!(
        out,
        "{:<36} {:>14.3e} {:>14}",
        "second pre-image (128-bit hash)",
        attack_probability::second_preimage_hash(128),
        "-"
    );
    let _ = writeln!(
        out,
        "{:<36} {:>14.3e} {:>14}",
        "second pre-image (Bloom)",
        attack_probability::second_preimage_bloom(m, k),
        "-"
    );
    let _ = writeln!(
        out,
        "{:<36} {:>14.3e} {:>14.3e}",
        "pollution",
        attack_probability::pollution_exact(m, w, k),
        pollution_hits as f64 / trials as f64
    );
    let _ = writeln!(
        out,
        "{:<36} {:>14.3e} {:>14.3e}",
        "false-positive forgery",
        attack_probability::false_positive_forgery(m, w, k),
        forgery_hits as f64 / trials as f64
    );
    let _ = writeln!(
        out,
        "{:<36} {:>14.3e} {:>14.3e}",
        "deletion (index overlap)",
        attack_probability::deletion_exact_overlap(m, k),
        deletion_hits as f64 / trials as f64
    );
    out
}

/// Figure 5: wall-clock cost of forging polluting URLs for pyBloom-style
/// filters sized for `n` items at several target false-positive rates.
///
/// The paper forges 10^6 URLs; the quick scale forges a fixed fraction of
/// the filter capacity so the run completes in seconds while preserving the
/// shape (cost grows steeply as `f` shrinks, i.e. as `k` grows).
pub fn fig5_polluting_url_cost(scale: Scale) -> String {
    let (capacity, batch): (u64, usize) = match scale {
        Scale::Quick => (20_000, 2_000),
        Scale::Paper => (1_000_000, 100_000),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 5 — cost of forging {batch} polluting URLs (filter capacity {capacity})"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>6} {:>12} {:>14} {:>12}",
        "f", "k", "attempts", "attempts/URL", "seconds"
    );
    for exponent in [5i32, 10, 15, 20] {
        let f = 2f64.powi(-exponent);
        let params = FilterParams::optimal(capacity, f);
        let filter = ConcurrentBloomFilter::new(params, SaltedCrypto::new(Box::new(Sha512)));
        let generator = UrlGenerator::new(&format!("fig5-{exponent}"));
        let start = Instant::now();
        let plan = craft_polluting_items(&filter, &generator, batch, u64::MAX);
        let elapsed = start.elapsed();
        let _ = writeln!(
            out,
            "{:>10} {:>6} {:>12} {:>14.2} {:>12.3}",
            format!("2^-{exponent}"),
            params.k,
            plan.stats.attempts,
            plan.stats.attempts_per_accepted(),
            elapsed.as_secs_f64()
        );
    }
    out
}

/// Figure 6: wall-clock cost of forging ghost (false-positive) URLs as a
/// function of the filter occupation.
pub fn fig6_ghost_url_cost(scale: Scale) -> String {
    // The attempt budget bounds the worst cell (low occupation at f = 2^-10,
    // where a ghost needs ~10^9 candidates in expectation): quick scale caps
    // the search early and reports the attempts/URL trend instead of hanging
    // for minutes on a cell that cannot succeed.
    let (capacity, ghosts, max_attempts): (u64, usize, u64) = match scale {
        Scale::Quick => (20_000, 5, 1_000_000),
        Scale::Paper => (1_000_000, 20, 30_000_000),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 6 — cost of forging {ghosts} ghost URLs (filter capacity {capacity})"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>14} {:>12}",
        "f", "occupation", "attempts", "attempts/URL", "seconds"
    );
    for exponent in [5i32, 10] {
        let f = 2f64.powi(-exponent);
        let params = FilterParams::optimal(capacity, f);
        for occupation in [20u64, 40, 60, 80, 100] {
            let filter = ConcurrentBloomFilter::new(params, SaltedCrypto::new(Box::new(Sha512)));
            let load = capacity * occupation / 100;
            for i in 0..load {
                filter.insert(format!("member-{i}").as_bytes());
            }
            let generator = UrlGenerator::new(&format!("fig6-{exponent}-{occupation}"));
            let start = Instant::now();
            let outcome = craft_false_positives(&filter, &generator, ghosts, max_attempts);
            let elapsed = start.elapsed();
            let _ = writeln!(
                out,
                "{:>10} {:>11}% {:>12} {:>14.1} {:>12.3}",
                format!("2^-{exponent}"),
                occupation,
                outcome.stats.attempts,
                outcome.stats.attempts_per_accepted(),
                elapsed.as_secs_f64()
            );
        }
    }
    out
}

/// Section 5 / Figure 7: the Scrapy pollution (blinding) and ghost-page
/// attacks run end to end on the crawler simulation.
pub fn scrapy_attack() -> String {
    use evilbloom_webspider::*;

    let mut out = String::new();
    let _ = writeln!(out, "# Section 5 — blinding a Bloom-filter-backed spider");

    let capacity = 2_000u64;
    let mut crawler = Crawler::new(DedupStore::bloom(capacity, 0.05));
    let farm = build_link_farm(&crawler, "evil.example", 1_800);
    let (mut graph, honest_root) = WebGraph::honest_site("victim.example", 400);
    install_link_farm(&mut graph, &farm);
    let mut root_links = farm.crafted_urls.clone();
    root_links.push(honest_root.clone());
    graph.add_page(farm.root.clone(), root_links);

    let report = crawler.crawl(&graph, &farm.root, 1_000_000);
    let fill = crawler.store().filter().expect("bloom store").fill_ratio();
    let _ = writeln!(out, "crafted URLs on the adversary's page : {}", farm.crafted_urls.len());
    let _ = writeln!(out, "forgery attempts                     : {}", farm.stats.attempts);
    let _ = writeln!(out, "pages fetched                        : {}", report.fetched);
    let _ = writeln!(out, "honest pages wrongly skipped         : {}", report.wrongly_skipped);
    let _ = writeln!(out, "filter fill after the attack         : {fill:.3}");

    // Ghost pages (Figure 7).
    let mut crawler = Crawler::new(DedupStore::bloom(1_000, 0.05));
    let (mut graph, root) = WebGraph::honest_site("honest.example", 800);
    crawler.crawl(&graph, &root, 1_000_000);
    let hidden = build_hidden_site(&crawler, &mut graph, "evil.example", 3, 4);
    crawler.crawl(&graph, &hidden.decoys[0], 1_000_000);
    let hidden_ok = hidden.ghosts.iter().filter(|g| !crawler.fetched_urls().contains(*g)).count();
    let _ =
        writeln!(out, "ghost pages hidden from the crawler  : {hidden_ok}/{}", hidden.ghosts.len());
    out
}

/// Figure 8: compound false-positive probability of a Dablooms stack
/// (λ=10, δ=10 000, f0=0.01, r=0.9) when the last `i` sub-filters are
/// polluted, for i = 0 (no attack) to 10 (full attack).
pub fn fig8_dablooms_pollution() -> String {
    let (f0, r, lambda) = (0.01, 0.9, 10u32);
    let attacked = scalable::attacked_sub_filter_probability(10_000, f0, 7);
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 8 — Dablooms pollution (λ=10, δ=10000, f0=0.01, r=0.9)");
    let _ = writeln!(out, "per-sub-filter probability once polluted: {attacked:.4}");
    let _ = writeln!(out, "{:>18} {:>10}", "polluted filters", "F");
    let _ = writeln!(out, "{:>18} {:>10.4}", 0, scalable::compound_unattacked(f0, r, lambda));
    for polluted in 1..=lambda {
        let compound = scalable::compound_with_last_polluted(f0, r, lambda, polluted, attacked);
        let _ = writeln!(out, "{:>18} {:>10.4}", polluted, compound);
    }
    let _ = writeln!(
        out,
        "{:>18} {:>10.4}  (full attack)",
        lambda,
        scalable::compound_fully_polluted(lambda, attacked)
    );
    out
}

/// Section 6.2: the counter-overflow attack leaves a wrapping counting
/// filter "full but empty".
pub fn dablooms_overflow() -> String {
    use evilbloom_attacks::deletion::plan_counter_overflow;
    use evilbloom_filters::counting::OverflowPolicy;
    use evilbloom_filters::CountingOptions;
    use std::sync::Arc;

    let strategy = Arc::new(KirschMitzenmacher::new(Murmur3_128));
    let filter = ConcurrentCountingFilter::with_overflow_policy(
        FilterParams::explicit(256, 2, 32),
        strategy,
        CountingOptions::default(),
        OverflowPolicy::Wrap,
    );
    let generator = UrlGenerator::new("overflow-experiment");
    let plan = plan_counter_overflow(&filter, 1, 8, &generator, u64::MAX);
    for item in &plan.items {
        filter.insert(item.as_bytes());
    }
    let detected = plan.items.iter().filter(|i| filter.contains(i.as_bytes())).count();

    let mut out = String::new();
    let _ = writeln!(out, "# Section 6.2 — counter-overflow (wrap-around) attack");
    let _ = writeln!(out, "crafted insertions            : {}", plan.items.len());
    let _ = writeln!(out, "forgery attempts              : {}", plan.stats.attempts);
    let _ = writeln!(out, "cells targeted                : {:?}", plan.target_cells);
    let _ = writeln!(out, "insertion counter afterwards  : {}", filter.inserted());
    let _ = writeln!(out, "occupied cells afterwards     : {}", filter.occupied_cells());
    let _ = writeln!(out, "crafted items still detected  : {detected}/{}", plan.items.len());
    out
}

/// Section 7: the Squid cache-digest pollution experiment (51 clean URLs,
/// 100 polluting URLs, probes through the sibling proxy).
pub fn squid_attack(scale: Scale) -> String {
    use evilbloom_webcache::{run_squid_experiment, NetworkModel};
    let probes = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 10_000,
    };
    let report = run_squid_experiment(51, 100, probes, NetworkModel::default());
    let mut out = String::new();
    let _ = writeln!(out, "# Section 7 — Squid cache-digest pollution");
    let _ = writeln!(out, "digest size                      : {} bits", report.digest_bits);
    let _ = writeln!(
        out,
        "false sibling hits (clean)       : {:.1}%",
        report.clean_false_hit_rate * 100.0
    );
    let _ = writeln!(
        out,
        "false sibling hits (polluted)    : {:.1}%",
        report.polluted_false_hit_rate * 100.0
    );
    let _ = writeln!(out, "added latency per false hit      : {:?}", report.wasted_probe_latency);
    let _ = writeln!(out, "(paper reports 40% -> 79% on its 100-query LAN testbed)");
    out
}

/// Figure 9: digest bits required (`k·⌈log2 m⌉`) as a function of the filter
/// size for the paper's four target probabilities, with the SHA thresholds.
pub fn fig9_hash_domain() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Figure 9 — domain of application of hash functions");
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "m (MB)", "f=2^-5", "f=2^-10", "f=2^-15", "f=2^-20"
    );
    for row in hash_domain::figure9_series(1024, 128) {
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>10} {:>10}",
            row.m_megabytes, row.bits_f5, row.bits_f10, row.bits_f15, row.bits_f20
        );
    }
    for (name, bits) in hash_domain::FIGURE9_DIGEST_SIZES {
        let one_gb = 8u64 * 1024 * 1024 * 1024;
        let covered: Vec<String> = [5i32, 10, 15, 20]
            .iter()
            .filter(|e| hash_domain::single_call_sufficient(bits, one_gb, 2f64.powi(-**e)))
            .map(|e| format!("2^-{e}"))
            .collect();
        let _ = writeln!(
            out,
            "{name} ({bits} bits) covers up to 1 GB for f in {{{}}}",
            covered.join(", ")
        );
    }
    out
}

/// Table 2: time to derive all Bloom-filter indexes of an item, naive
/// (k salted calls) versus recycling (bits of one digest), for every hash
/// function of the paper, plus MurmurHash and SipHash baselines.
pub fn table2_query_times(scale: Scale) -> String {
    let iterations: u64 = match scale {
        Scale::Quick => 3_000,
        Scale::Paper => 100_000,
    };
    // Table 2 setup: f = 2^-10, n = 10^6 → k = 10; 32-byte items.
    let params = FilterParams::optimal(1_000_000, 2f64.powi(-10));
    let item = [0xabu8; 32];

    let time_strategy = |strategy: &dyn IndexStrategy| -> f64 {
        let start = Instant::now();
        let mut sink = 0u64;
        for _ in 0..iterations {
            sink = sink.wrapping_add(strategy.indexes(&item, params.k, params.m)[0]);
        }
        std::hint::black_box(sink);
        start.elapsed().as_secs_f64() * 1e6 / iterations as f64
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table 2 — time to derive k={} indexes (m={} bits, {} iterations, µs/query)",
        params.k, params.m, iterations
    );
    let _ = writeln!(out, "{:<16} {:>12} {:>12} {:>10}", "hash", "naive", "recycling", "speed-up");

    let murmur = time_strategy(&SaltedHashes::new(Murmur2_32));
    let _ = writeln!(out, "{:<16} {:>12.2} {:>12} {:>10}", "MurmurHash-32", murmur, "-", "-");

    let crypto: Vec<Box<dyn CryptoHash>> =
        vec![Box::new(Md5), Box::new(Sha1), Box::new(Sha256), Box::new(Sha384), Box::new(Sha512)];
    for hash in crypto {
        let name = hash.name();
        let naive = time_strategy(&SaltedCrypto::new(clone_hash(name)));
        let recycled = time_strategy(&RecycledCrypto::new(hash));
        let _ = writeln!(
            out,
            "{:<16} {:>12.2} {:>12.2} {:>10.1}",
            name,
            naive,
            recycled,
            naive / recycled
        );
    }

    let sip = time_strategy(&SaltedHashes::new(SipHash24::new(SipKey::new(7, 7))));
    let _ = writeln!(out, "{:<16} {:>12.2} {:>12} {:>10}", "SipHash-2-4", sip, "-", "-");
    out
}

fn clone_hash(name: &str) -> Box<dyn CryptoHash> {
    match name {
        "MD5" => Box::new(Md5),
        "SHA-1" => Box::new(Sha1),
        "SHA-256" => Box::new(Sha256),
        "SHA-384" => Box::new(Sha384),
        _ => Box::new(Sha512),
    }
}

/// Section 8.1: the worst-case parameter derivation and the headline ratios.
pub fn worst_case_parameters() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Section 8.1 — worst-case parameters");
    let _ = writeln!(out, "k_opt / k_adv_opt = e ln 2 = {:.3}", worst_case::k_ratio());
    let (m, n) = (14_430_000u64, 1_000_000u64);
    let _ = writeln!(
        out,
        "example m={m}, n={n}: k_opt={}, k_adv_opt={}",
        false_positive::optimal_k_rounded(m, n),
        worst_case::adversarial_optimal_k_rounded(m, n)
    );
    let _ = writeln!(
        out,
        "honest FPP at k_adv_opt: ln f = -0.433 m/n -> f = {:.3e} (vs f_opt {:.3e})",
        worst_case::honest_false_positive_at_adversarial_k(m, n),
        false_positive::optimal_false_positive(m, n)
    );
    let _ = writeln!(
        out,
        "size ratio for equal FPP: {:.2} (re-derived) vs {:.2} (as printed in the paper)",
        worst_case::size_ratio_same_fpp(),
        worst_case::size_ratio_as_reported()
    );
    out
}

/// Runs every experiment at the given scale and concatenates the reports.
pub fn run_all(scale: Scale) -> String {
    [
        fig3_pollution_curve(),
        table1_attack_probabilities(scale),
        fig5_polluting_url_cost(scale),
        fig6_ghost_url_cost(scale),
        scrapy_attack(),
        fig8_dablooms_pollution(),
        dablooms_overflow(),
        squid_attack(scale),
        fig9_hash_domain(),
        table2_query_times(scale),
        worst_case_parameters(),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_report_contains_the_key_numbers() {
        let report = fig3_pollution_curve();
        assert!(report.contains("0.316") || report.contains("0.3164"), "{report}");
        assert!(report.contains("adversarial after 422 insertions"), "{report}");
    }

    #[test]
    fn table1_measured_close_to_analytic() {
        let report = table1_attack_probabilities(Scale::Quick);
        assert!(report.contains("pollution"));
        assert!(report.contains("false-positive forgery"));
        assert!(report.contains("deletion"));
    }

    #[test]
    fn fig8_report_shows_monotone_compound() {
        let report = fig8_dablooms_pollution();
        assert!(report.contains("Figure 8"));
        assert!(report.lines().count() > 12);
    }

    #[test]
    fn fig9_report_lists_sha_coverage() {
        let report = fig9_hash_domain();
        assert!(report.contains("SHA-512"));
        assert!(report.contains("2^-15"));
    }

    #[test]
    fn worst_case_report_mentions_both_ratios() {
        let report = worst_case_parameters();
        assert!(report.contains("1.88"));
        assert!(report.contains("as printed in the paper"));
    }

    #[test]
    fn overflow_report_shows_empty_filter() {
        let report = dablooms_overflow();
        assert!(report.contains("occupied cells afterwards     : 0"), "{report}");
    }
}
