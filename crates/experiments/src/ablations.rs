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

use crate::Evaluation;
use spb_sim::config::PolicyKind;
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

/// Runs the ablations over the SB-bound subset at SB14.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let base_cfg = ev.base().with_sb(14);
    let mut configs = vec![base_cfg.clone().with_policy(PolicyKind::IdealSb)];
    for (_, spec) in VARIANTS {
        configs.push(
            base_cfg
                .clone()
                .with_policy(PolicyKind::parse(spec).expect(spec)),
        );
    }
    let suites = ev.suites(&apps, &configs);
    let (ideal, variants) = suites.split_first().expect("the ideal suite");
    let shipped = &variants[0];

    let mut t = Table::new(
        "Ablations — SPB design choices (SB-bound suite, SB14)",
        &["perf vs ideal", "tag checks vs shipped"],
    );
    for (i, ((label, _), suite)) in VARIANTS.iter().zip(variants).enumerate() {
        let perf: Vec<f64> = suite
            .runs
            .iter()
            .zip(&ideal.runs)
            .map(|(r, i)| i.cycles as f64 / r.cycles as f64)
            .collect();
        let tag_ratio = if i == 0 {
            1.0
        } else {
            geomean(
                &suite
                    .runs
                    .iter()
                    .zip(&shipped.runs)
                    .map(|(a, b)| a.mem.l1_tag_checks as f64 / b.mem.l1_tag_checks.max(1) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        t.push_row(*label, &[geomean(&perf), tag_ratio]);
    }
    vec![t]
}
