//! §VII-A: why spatial (page-footprint) prefetchers cannot replace SPB.
//!
//! "Spatial prefetchers … collect the accessed blocks within a page and
//! prefetch them again on the first access to that page. … [a memory
//! copy or initialization] may happen only once in the execution of a
//! program, so learning the page is not an effective mechanism."
//!
//! This experiment runs the SB-bound suite at SB14 under the stride and
//! spatial generic prefetchers, with and without SPB. If the paper is
//! right, the spatial prefetcher's column should look like the stride
//! column (store bursts touch each page once — nothing to replay),
//! while SPB helps under both.

use crate::Budget;
use spb_mem::prefetch::PrefetcherKind;
use spb_sim::config::PolicyKind;
use spb_sim::suite::SuiteResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the experiment at `budget`.
pub fn run(budget: Budget) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let mut t = Table::new(
        "§VII-A — spatial prefetching vs SPB (SB-bound geomean, SB14, vs Ideal+stride)",
        &["at-commit", "spb"],
    );
    // One ideal baseline (stride) so columns are directly comparable.
    let mut base_cfg = budget.sim_config().with_sb(14);
    base_cfg.mem.prefetcher = PrefetcherKind::Stride;
    let ideal = SuiteResult::run(&apps, &base_cfg.clone().with_policy(PolicyKind::IdealSb));
    let norm = |suite: &SuiteResult| suite.geomean_speedup_all(&ideal);
    for (label, pk) in [
        ("stride", PrefetcherKind::Stride),
        ("spatial", PrefetcherKind::Spatial),
        ("none", PrefetcherKind::None),
    ] {
        let mut cfg = budget.sim_config().with_sb(14);
        cfg.mem.prefetcher = pk;
        let ac = SuiteResult::run(&apps, &cfg.clone());
        let spb = SuiteResult::run(&apps, &cfg.clone().with_policy(PolicyKind::spb_default()));
        t.push_row(label, &[norm(&ac), norm(&spb)]);
    }
    vec![t]
}
