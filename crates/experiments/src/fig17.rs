//! Figure 17 (+ Table II): SPB across core aggressiveness.
//!
//! Sweeps the five Table II cores (Silvermont → Sunny Cove), each at its
//! full SB size and at half (the per-thread SB under SMT-2), normalized
//! to that core's ideal SB. Paper headline: the at-commit gap widens on
//! energy-efficient cores, while SPB stays at or near ideal; with halved
//! SBs, SPB delivers ≥89% of ideal where at-commit manages ~67%.

use crate::Budget;
use spb_cpu::CoreConfig;
use spb_sim::config::PolicyKind;
use spb_sim::suite::SuiteResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the experiment at `budget`.
pub fn run(budget: Budget) -> Vec<Table> {
    let apps = AppProfile::spec2017();
    let mut tables = Vec::new();
    for (scope, sb_bound_only) in [("ALL", false), ("SB-BOUND", true)] {
        let norm = |suite: &SuiteResult, ideal: &SuiteResult| {
            if sb_bound_only {
                suite.geomean_speedup_sb_bound(ideal)
            } else {
                suite.geomean_speedup_all(ideal)
            }
        };
        let mut t = Table::new(
            format!("Fig. 17 — perf normalized to Ideal per core configuration ({scope})"),
            &["at-commit full", "spb full", "at-commit half", "spb half"],
        );
        for (name, core) in CoreConfig::table2() {
            let mut cfg = budget.sim_config();
            cfg.core = core;
            let ideal = SuiteResult::run(&apps, &cfg.clone().with_policy(PolicyKind::IdealSb));
            let full = core.sb_entries;
            let half = (core.sb_entries / 2).max(1);
            let ac_full = SuiteResult::run(&apps, &cfg.clone().with_sb(full));
            let spb_full = SuiteResult::run(
                &apps,
                &cfg.clone()
                    .with_sb(full)
                    .with_policy(PolicyKind::spb_default()),
            );
            let ac_half = SuiteResult::run(&apps, &cfg.clone().with_sb(half));
            let spb_half = SuiteResult::run(
                &apps,
                &cfg.clone()
                    .with_sb(half)
                    .with_policy(PolicyKind::spb_default()),
            );
            t.push_row(
                name,
                &[
                    norm(&ac_full, &ideal),
                    norm(&spb_full, &ideal),
                    norm(&ac_half, &ideal),
                    norm(&spb_half, &ideal),
                ],
            );
        }
        tables.push(t);
    }
    tables
}
