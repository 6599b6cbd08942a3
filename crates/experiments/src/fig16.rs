//! Figure 16: SPB on top of aggressive cache prefetchers.
//!
//! Each configuration is normalized to the *ideal SB running the same
//! generic prefetcher*, so the table shows how much SB-induced headroom
//! remains per prefetcher. Paper headline: aggressive/adaptive cache
//! prefetchers do not close the SB gap (their window is still anchored
//! to the SB's demand stream); SPB is needed — and orthogonal — on top.

use crate::Budget;
use spb_mem::prefetch::PrefetcherKind;
use spb_sim::config::PolicyKind;
use spb_sim::suite::SuiteResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the experiment at `budget` (SB56 and SB14).
pub fn run(budget: Budget) -> Vec<Table> {
    let apps = AppProfile::spec2017();
    let prefetchers = [
        ("stream", PrefetcherKind::Stride),
        ("aggressive", PrefetcherKind::Aggressive),
        ("adaptive", PrefetcherKind::Adaptive),
    ];
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
            format!("Fig. 16 — perf normalized to Ideal + same prefetcher ({scope})"),
            &["at-commit SB56", "spb SB56", "at-commit SB14", "spb SB14"],
        );
        for (name, pk) in prefetchers {
            let mut cfg = budget.sim_config();
            cfg.mem.prefetcher = pk;
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
            t.push_row(
                name,
                &[
                    norm(&ac56, &ideal),
                    norm(&spb56, &ideal),
                    norm(&ac14, &ideal),
                    norm(&spb14, &ideal),
                ],
            );
        }
        tables.push(t);
    }
    tables
}
