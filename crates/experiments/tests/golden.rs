//! Golden-output test: the deterministic experiments must print exactly the
//! recorded report.
//!
//! Every experiment below is seeded and untimed, so any byte of difference
//! means a filter, attack or analysis changed behaviour. The timed reports
//! (`table1`, `fig5`, `fig6`, `table2`) print wall-clock figures and are left
//! out. After an intended change of output, regenerate the fixture with
//!
//! ```text
//! cargo run --release -p evilbloom-experiments -- \
//!     fig3 scrapy fig8 dablooms-overflow squid fig9 worstcase \
//!     > crates/experiments/tests/golden/deterministic.txt
//! ```

use std::process::Command;

const EXPERIMENTS: [&str; 7] =
    ["fig3", "scrapy", "fig8", "dablooms-overflow", "squid", "fig9", "worstcase"];

#[test]
fn deterministic_experiments_match_the_golden_report() {
    let output = Command::new(env!("CARGO_BIN_EXE_evilbloom-experiments"))
        .args(EXPERIMENTS)
        .output()
        .expect("run evilbloom-experiments");
    assert!(output.status.success(), "exit status {}", output.status);
    let actual = String::from_utf8(output.stdout).expect("utf-8 report");
    let expected = include_str!("golden/deterministic.txt");
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "report differs from the golden fixture at line {}:\n  got:      {:?}\n  expected: {:?}",
            line + 1,
            actual.lines().nth(line),
            expected.lines().nth(line),
        );
    }
}
