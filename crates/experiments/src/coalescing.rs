//! §VII-B: SPB versus non-speculative store coalescing.
//!
//! Coalescing (Ros & Kaxiras, ISCA'18) merges same-block stores into one
//! SB entry, multiplying the *effective* SB size by up to 8 for 8-byte
//! bursts — but it does nothing about the *latency* of the head entry's
//! miss, while SPB hides that latency without enlarging the SB. The
//! paper argues SPB reaches near-ideal "with minimal hardware overhead"
//! where coalescing needs significant SB redesign; this experiment puts
//! the two (and their combination) side by side.

use crate::Evaluation;
use spb_sim::config::PolicyKind;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the comparison over the SB-bound subset at SB14 and SB56.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let base = ev.base();
    let rows = [
        ("at-commit", false, PolicyKind::AtCommit),
        ("at-commit + coalescing", true, PolicyKind::AtCommit),
        ("spb", false, PolicyKind::spb_default()),
        ("spb + coalescing", true, PolicyKind::spb_default()),
    ];
    let mut configs = vec![base.clone().with_policy(PolicyKind::IdealSb)];
    for (_, coalesce, policy) in rows {
        for sb in [14, 56] {
            let mut cfg = base.clone().with_sb(sb).with_policy(policy);
            if coalesce {
                cfg.core = cfg.core.with_coalescing();
            }
            configs.push(cfg);
        }
    }
    let suites = ev.suites(&apps, &configs);
    let (ideal, suites) = suites.split_first().expect("the ideal suite");
    let mut t = Table::new(
        "§VII-B — SPB vs store coalescing (SB-bound geomean vs Ideal)",
        &["SB14", "SB56"],
    );
    for ((label, _, _), pair) in rows.iter().zip(suites.chunks(2)) {
        t.push_row(
            *label,
            &[
                pair[0].geomean_speedup_all(ideal),
                pair[1].geomean_speedup_all(ideal),
            ],
        );
    }
    vec![t]
}
