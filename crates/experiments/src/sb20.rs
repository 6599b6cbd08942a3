//! The SB-shrinking claim: a 20-entry SB with SPB matches a standard
//! 56-entry SB with at-commit prefetching (§I / §VI-A), making SPB an
//! enabler for smaller, more energy-efficient store buffers.

use crate::Evaluation;
use spb_sim::config::PolicyKind;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the claim: SB ∈ {14, 20, 28, 56} for both policies, normalized
/// to the 56-entry at-commit baseline (>1.0 means faster than the
/// Skylake default).
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017();
    let base = ev.base();
    let sbs = [14usize, 20, 28, 56];
    let mut configs = vec![base.clone().with_sb(56)];
    for sb in sbs {
        configs.push(base.clone().with_sb(sb));
        configs.push(
            base.clone()
                .with_sb(sb)
                .with_policy(PolicyKind::spb_default()),
        );
    }
    let suites = ev.suites(&apps, &configs);
    let (baseline, suites) = suites.split_first().expect("the baseline suite");
    let mut t = Table::new(
        "SB-shrink claim — geomean speedup vs 56-entry at-commit",
        &["at-commit", "spb"],
    );
    for (sb, pair) in sbs.iter().zip(suites.chunks(2)) {
        t.push_row(
            format!("SB{sb}"),
            &[
                pair[0].geomean_speedup_all(baseline),
                pair[1].geomean_speedup_all(baseline),
            ],
        );
    }
    vec![t]
}
