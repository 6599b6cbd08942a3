//! Figure 17 (+ Table II): SPB across core aggressiveness.
//!
//! Sweeps the five Table II cores (Silvermont → Sunny Cove), each at its
//! full SB size and at half (the per-thread SB under SMT-2), normalized
//! to that core's ideal SB. Paper headline: the at-commit gap widens on
//! energy-efficient cores, while SPB stays at or near ideal; with halved
//! SBs, SPB delivers ≥89% of ideal where at-commit manages ~67%.

use crate::Evaluation;
use spb_cpu::CoreConfig;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs Figure 17 over SPEC on every Table II core.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let cores = CoreConfig::table2();
    let mut configs = Vec::new();
    for (_, core) in cores {
        let mut cfg = ev.base();
        cfg.core = core;
        let half = (core.sb_entries / 2).max(1);
        configs.extend(crate::fig16::ideal_and_pairs(&cfg, [core.sb_entries, half]));
    }
    let suites = ev.suites(&AppProfile::spec2017(), &configs);
    crate::fig16::scope_tables(
        "Fig. 17 — perf normalized to Ideal per core configuration",
        &["at-commit full", "spb full", "at-commit half", "spb half"],
        &cores.map(|(name, _)| name),
        &suites,
    )
}
