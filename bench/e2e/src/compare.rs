//! `e2e compare <parent-dir> <change-dir>`: the paired comparison of two
//! sets of untraced result files (written by `--out`), one row per
//! (workload, end-to-end metric).
//!
//! Runs pair up in path order per workload, so run the two commits
//! alternately and name the result directories in run order. A row reads:
//!
//! - **improved** — at least [`MIN_PAIRS`] pairs, the change wins at least
//!   nine tenths of them (ties count for neither side), and its median is
//!   better than the parent's by more than the parent's interquartile range;
//! - **unresolved** — otherwise, when the parent's spread (interquartile
//!   range over median) is wider than the metric's bound, unless every
//!   change run reads better than every parent run;
//! - **regressed** — otherwise, when the change's median is worse than the
//!   parent's by more than the bound;
//! - **unchanged** — within the bound.

use std::path::Path;
use std::process::ExitCode;

use criterion::report::Json;

use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::{median, quartiles};

/// Pairs a gain claim needs.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Judgement {
    pub verdict: Verdict,
    pub wins: usize,
    pub losses: usize,
    pub ties: usize,
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
}

/// `(q1, median, q3)`; a single value is its own quartiles.
fn spread(values: &[f64]) -> (f64, f64, f64) {
    let mid = median(values);
    let (q1, q3) = if values.len() >= 2 { quartiles(values) } else { (mid, mid) };
    (q1, mid, q3)
}

/// Judges one row. `parent[i]` and `change[i]` form pair `i`.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Judgement {
    let beats = |a: f64, b: f64| match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(&p, &c)| beats(c, p)).count();
    let losses = parent.iter().zip(change).filter(|(&p, &c)| beats(p, c)).count();
    let (p, c) = (spread(parent), spread(change));
    let base = p.1.abs().max(f64::MIN_POSITIVE);
    let gain = match better {
        Better::Higher => c.1 - p.1,
        Better::Lower => p.1 - c.1,
    };
    let iqr = p.2 - p.0;
    let every_change_better = change.iter().all(|&x| parent.iter().all(|&y| beats(x, y)));
    let verdict = if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > iqr {
        Verdict::Improved
    } else if iqr / base > bound && !every_change_better {
        Verdict::Unresolved
    } else if -gain / base > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Judgement { verdict, wins, losses, ties: pairs - wins - losses, parent: p, change: c }
}

/// Untraced, correct result files under `dir`, in path order.
fn load(dir: &Path) -> Result<Vec<Json>, String> {
    let mut paths = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        let entries = std::fs::read_dir(&next).map_err(|e| format!("{}: {e}", next.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    let mut results = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let is_result = json.get("workload").is_some() && json.get("metrics").is_some();
        if is_result
            && json.get("trace") == Some(&Json::Bool(false))
            && json.get("correct") == Some(&Json::Bool(true))
        {
            results.push(json);
        }
    }
    Ok(results)
}

fn values(results: &[Json], workload: &str, metric: &Metric) -> Vec<f64> {
    results
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric.name)?.get("value")?.as_f64())
        .collect()
}

pub fn main(args: &[String]) -> ExitCode {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: e2e compare <parent-dir> <change-dir>");
        return ExitCode::from(2);
    };
    let (parent, change) = match (load(Path::new(parent_dir)), load(Path::new(change_dir))) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workloads: Vec<&str> =
        parent.iter().filter_map(|r| r.get("workload").and_then(Json::as_str)).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let (mut regressed, mut few_pairs) = (false, false);
    println!(
        "{:<16} {:<13} {:>5} {:>36} {:>36} {:>22} {:>8}  verdict",
        "workload",
        "metric",
        "pairs",
        "parent q1 / median / q3",
        "change q1 / median / q3",
        "change/parent (base)",
        "W/L/T"
    );
    for workload in workloads {
        for metric in &END_TO_END {
            let (p, c) = (values(&parent, workload, metric), values(&change, workload, metric));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let j = judge(&p, &c, metric.better, metric.bound);
            regressed |= j.verdict == Verdict::Regressed;
            few_pairs |= p.len().min(c.len()) < MIN_PAIRS;
            let triple = |(q1, m, q3): (f64, f64, f64)| format!("{q1:.4e} / {m:.4e} / {q3:.4e}");
            println!(
                "{workload:<16} {:<13} {:>5} {:>36} {:>36} {:>8.4} ({:.4e} {}) {:>8}  {}",
                metric.name,
                p.len().min(c.len()),
                triple(j.parent),
                triple(j.change),
                j.change.1 / j.parent.1,
                j.parent.1,
                metric.unit,
                format!("{}/{}/{}", j.wins, j.losses, j.ties),
                format!("{:?}", j.verdict).to_lowercase(),
            );
        }
    }
    if few_pairs {
        println!("note: rows with fewer than {MIN_PAIRS} pairs cannot read improved");
    }
    if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUND: f64 = 0.05;

    fn around(center: f64, offsets: &[f64]) -> Vec<f64> {
        offsets.iter().map(|o| center * (1.0 + o)).collect()
    }

    const JITTER: [f64; 10] =
        [0.0, 0.004, -0.003, 0.002, -0.001, 0.003, -0.004, 0.001, -0.002, 0.0];

    #[test]
    fn identical_sets_are_unchanged() {
        let runs = around(100.0, &JITTER);
        let j = judge(&runs, &runs, Better::Higher, BOUND);
        assert_eq!(j.verdict, Verdict::Unchanged);
        assert_eq!((j.wins, j.losses, j.ties), (0, 0, 10));
    }

    #[test]
    fn a_consistent_gain_over_ten_pairs_is_improved() {
        let parent = around(100.0, &JITTER);
        let change = around(110.0, &JITTER);
        assert_eq!(judge(&parent, &change, Better::Higher, BOUND).verdict, Verdict::Improved);
        // Lower-is-better metrics improve downwards.
        assert_eq!(judge(&change, &parent, Better::Lower, BOUND).verdict, Verdict::Improved);
    }

    #[test]
    fn nine_pairs_cannot_claim_a_gain() {
        let parent = around(100.0, &JITTER[..9]);
        let change = around(110.0, &JITTER[..9]);
        assert_eq!(judge(&parent, &change, Better::Higher, BOUND).verdict, Verdict::Unchanged);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = around(100.0, &JITTER);
        // Nine wins and one tie: 9/10 of all pairs, so a gain.
        let mut change = around(110.0, &JITTER);
        change[0] = parent[0];
        let j = judge(&parent, &change, Better::Higher, BOUND);
        assert_eq!((j.wins, j.losses, j.ties), (9, 0, 1));
        assert_eq!(j.verdict, Verdict::Improved);
        // Eight wins and two ties fall short.
        change[1] = parent[1];
        assert_ne!(judge(&parent, &change, Better::Higher, BOUND).verdict, Verdict::Improved);
    }

    #[test]
    fn a_gain_inside_the_parent_spread_is_not_claimed() {
        let parent = around(100.0, &[0.0, 0.03, -0.03, 0.02, -0.02, 0.01, -0.01, 0.03, -0.03, 0.0]);
        let change: Vec<f64> = parent.iter().map(|p| p + 0.5).collect();
        let j = judge(&parent, &change, Better::Higher, BOUND);
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = around(100.0, &[0.0, 0.2, -0.2, 0.1, -0.1, 0.15, -0.15, 0.05, -0.05, 0.0]);
        assert_eq!(judge(&noisy, &noisy, Better::Higher, BOUND).verdict, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let far = around(200.0, &JITTER);
        assert_eq!(judge(&noisy, &far, Better::Higher, BOUND).verdict, Verdict::Improved);
        let five = |v: &[f64]| v[..5].to_vec();
        assert_eq!(
            judge(&five(&noisy), &five(&far), Better::Higher, BOUND).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_regressed() {
        let parent = around(100.0, &JITTER);
        let change = around(90.0, &JITTER);
        assert_eq!(judge(&parent, &change, Better::Higher, BOUND).verdict, Verdict::Regressed);
        let slight = around(98.0, &JITTER);
        assert_eq!(judge(&parent, &slight, Better::Higher, BOUND).verdict, Verdict::Unchanged);
        assert_eq!(judge(&slight, &parent, Better::Lower, BOUND).verdict, Verdict::Unchanged);
    }
}
