//! Ablations of SPB's design choices (beyond the paper's N sweep).
//!
//! Variants against the shipped detector, on the SB-bound suite at a
//! 14-entry SB:
//!
//! - **backward bursts** (§IV-A, left out by the paper): the paper
//!   "found no evidence that backward store bursts cause SB stalls" —
//!   this ablation verifies that on our suite (expect ≈ no change).
//! - **cross-page bursts** (footnote 2): prefetch 1 or 3 pages past the
//!   boundary. Expect small gains at best (the next page is usually a
//!   fresh burst's job) and extra traffic.
//! - **no-dedupe**: re-burst the same page every window (the literal
//!   67-bit design). Expect identical performance but more L1 requests.
//! - **half-page bursts** (`frac=0.5`): request only the nearest half
//!   of the remaining page — less traffic, less coverage.
//! - **feedback bursts**: FDP-style accuracy feedback picks the page
//!   fraction at run time.
//!
//! Every variant is an ordinary [`PolicyKind`] spelling — the same
//! grammar `spbsim run --policy` and `spbsim tune` accept — so this
//! experiment is now plain sweep plumbing over the standard suite
//! runner rather than a bespoke policy loop.
//!
//! Columns: performance normalized to the ideal SB, and L1 tag checks
//! normalized to the shipped SPB configuration.

use crate::Budget;
use spb_sim::config::{PolicyKind, SimConfig};
use spb_sim::suite::SuiteResult;
use spb_stats::summary::geomean;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// The ablation rows: display label + policy spelling.
const VARIANTS: [(&str, &str); 7] = [
    ("spb (shipped)", "spb"),
    ("+ backward bursts", "spb:backward=on"),
    ("+ cross-page (1)", "spb:cross=1"),
    ("+ cross-page (3)", "spb:cross=3"),
    ("no-dedupe", "spb:dedupe=off"),
    ("half-page bursts", "spb:frac=0.5"),
    ("feedback bursts", "spb-feedback"),
];

fn suite_cycles_and_tags(apps: &[AppProfile], cfg: &SimConfig) -> Vec<(u64, u64)> {
    SuiteResult::run(apps, cfg)
        .runs
        .iter()
        .map(|r| (r.cycles, r.mem.l1_tag_checks))
        .collect()
}

/// Runs the experiment at `budget`.
pub fn run(budget: Budget) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let base_cfg = budget.sim_config().with_sb(14);
    let ideal = SuiteResult::run(&apps, &base_cfg.clone().with_policy(PolicyKind::IdealSb));
    let ideal_cycles: Vec<u64> = ideal.runs.iter().map(|r| r.cycles).collect();

    let mut t = Table::new(
        "Ablations — SPB design choices (SB-bound suite, SB14)",
        &["perf vs ideal", "tag checks vs shipped"],
    );
    let mut shipped_tags: Option<Vec<u64>> = None;
    for (label, spec) in VARIANTS {
        let policy = PolicyKind::parse(spec).expect(spec);
        let results = suite_cycles_and_tags(&apps, &base_cfg.clone().with_policy(policy));
        let perf: Vec<f64> = results
            .iter()
            .zip(&ideal_cycles)
            .map(|((cycles, _), &ic)| ic as f64 / *cycles as f64)
            .collect();
        let tags: Vec<u64> = results.iter().map(|(_, t)| *t).collect();
        let tag_ratio = match &shipped_tags {
            None => {
                shipped_tags = Some(tags);
                1.0
            }
            Some(base) => geomean(
                &tags
                    .iter()
                    .zip(base)
                    .map(|(&a, &b)| a as f64 / b.max(1) as f64)
                    .collect::<Vec<_>>(),
            ),
        };
        t.push_row(label, &[geomean(&perf), tag_ratio]);
    }
    vec![t]
}
