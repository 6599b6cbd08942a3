//! Figure 18: PARSEC with 8 threads.
//!
//! Multi-threaded runs over the shared-L3 MESI hierarchy. Two things the
//! paper checks: (i) multi-threaded applications also contain store
//! bursts that SPB captures, and (ii) SPB is coherence-friendly — no
//! application regresses, because bursts target uncontended (private)
//! pages.

use crate::Evaluation;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs Figure 18 over 8-thread PARSEC at SB56 and SB14.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::parsec();
    let configs = crate::fig16::ideal_and_pairs(&ev.parsec_base(), [56, 14]);
    let suites = ev.suites(&apps, &configs);
    let (ideal, suites) = suites.split_first().expect("the ideal suite");

    let mut t = Table::new(
        "Fig. 18 — PARSEC (8 threads) normalized to Ideal",
        &["at-commit SB56", "spb SB56", "at-commit SB14", "spb SB14"],
    );
    let norm: Vec<Vec<f64>> = suites.iter().map(|s| s.speedup_vs(ideal)).collect();
    for (a, app) in apps.iter().enumerate() {
        if app.is_sb_bound() {
            t.push_row(app.name(), &norm.iter().map(|n| n[a]).collect::<Vec<_>>());
        }
    }
    let sb_bound: Vec<f64> = suites
        .iter()
        .map(|s| s.geomean_speedup_sb_bound(ideal))
        .collect();
    t.push_row("SB-BOUND", &sb_bound);
    let all: Vec<f64> = suites
        .iter()
        .map(|s| s.geomean_speedup_all(ideal))
        .collect();
    t.push_row("ALL", &all);
    vec![t]
}
