//! §VII-B: SPB versus non-speculative store coalescing.
//!
//! Coalescing (Ros & Kaxiras, ISCA'18) merges same-block stores into one
//! SB entry, multiplying the *effective* SB size by up to 8 for 8-byte
//! bursts — but it does nothing about the *latency* of the head entry's
//! miss, while SPB hides that latency without enlarging the SB. The
//! paper argues SPB reaches near-ideal "with minimal hardware overhead"
//! where coalescing needs significant SB redesign; this experiment puts
//! the two (and their combination) side by side.

use crate::Budget;
use spb_sim::config::PolicyKind;
use spb_sim::suite::SuiteResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the experiment at `budget`.
pub fn run(budget: Budget) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let mut t = Table::new(
        "§VII-B — SPB vs store coalescing (SB-bound geomean vs Ideal)",
        &["SB14", "SB56"],
    );
    let base = budget.sim_config();
    let ideal = SuiteResult::run(&apps, &base.clone().with_policy(PolicyKind::IdealSb));
    let run_cfg = |sb: usize, coalesce: bool, policy: PolicyKind| {
        let mut cfg = base.clone().with_sb(sb).with_policy(policy);
        if coalesce {
            cfg.core = cfg.core.with_coalescing();
        }
        SuiteResult::run(&apps, &cfg).geomean_speedup_all(&ideal)
    };
    for (label, coalesce, policy) in [
        ("at-commit", false, PolicyKind::AtCommit),
        ("at-commit + coalescing", true, PolicyKind::AtCommit),
        ("spb", false, PolicyKind::spb_default()),
        ("spb + coalescing", true, PolicyKind::spb_default()),
    ] {
        t.push_row(
            label,
            &[run_cfg(14, coalesce, policy), run_cfg(56, coalesce, policy)],
        );
    }
    vec![t]
}
