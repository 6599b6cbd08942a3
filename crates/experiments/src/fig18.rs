//! Figure 18: PARSEC with 8 threads.
//!
//! Multi-threaded runs over the shared-L3 MESI hierarchy. Two things the
//! paper checks: (i) multi-threaded applications also contain store
//! bursts that SPB captures, and (ii) SPB is coherence-friendly — no
//! application regresses, because bursts target uncontended (private)
//! pages.

use crate::Budget;
use spb_sim::config::PolicyKind;
use spb_sim::suite::SuiteResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the experiment at `budget`.
pub fn run(budget: Budget) -> Vec<Table> {
    let apps = AppProfile::parsec();
    let cfg = budget.parsec_sim_config();
    let ideal = SuiteResult::run(&apps, &cfg.clone().with_policy(PolicyKind::IdealSb));
    let ac56 = SuiteResult::run(&apps, &cfg.clone().with_sb(56));
    let spb56 = SuiteResult::run(
        &apps,
        &cfg.clone()
            .with_sb(56)
            .with_policy(PolicyKind::spb_default()),
    );
    let ac14 = SuiteResult::run(&apps, &cfg.clone().with_sb(14));
    let spb14 = SuiteResult::run(
        &apps,
        &cfg.clone()
            .with_sb(14)
            .with_policy(PolicyKind::spb_default()),
    );

    let mut t = Table::new(
        "Fig. 18 — PARSEC (8 threads) normalized to Ideal",
        &["at-commit SB56", "spb SB56", "at-commit SB14", "spb SB14"],
    );
    let suites = [&ac56, &spb56, &ac14, &spb14];
    let norm: Vec<Vec<f64>> = suites.iter().map(|s| s.speedup_vs(&ideal)).collect();
    for (a, app) in apps.iter().enumerate() {
        if app.is_sb_bound() {
            t.push_row(app.name(), &norm.iter().map(|n| n[a]).collect::<Vec<_>>());
        }
    }
    let sb_bound: Vec<f64> = suites
        .iter()
        .map(|s| s.geomean_speedup_sb_bound(&ideal))
        .collect();
    t.push_row("SB-BOUND", &sb_bound);
    let all: Vec<f64> = suites
        .iter()
        .map(|s| s.geomean_speedup_all(&ideal))
        .collect();
    t.push_row("ALL", &all);
    vec![t]
}
