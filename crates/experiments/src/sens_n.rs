//! §IV-C sensitivity analysis: the detector window N, the dynamic-S
//! variant, and the burst-dedupe ablation.
//!
//! Paper headline: N between 24 and 48 performs well (48 chosen); the
//! dynamic variant that adapts the threshold to store sizes performs
//! worse due to adaptation hysteresis and lost opportunity.

use crate::Budget;
use spb_sim::config::PolicyKind;
use spb_sim::suite::SuiteResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the experiment at `budget` over the SB-bound subset.
pub fn run(budget: Budget) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let base = budget.sim_config();
    let sbs = [14usize, 28, 56];
    let mut t = Table::new(
        "§IV-C — SPB sensitivity to N (SB-bound geomean, normalized to Ideal)",
        &["SB14", "SB28", "SB56"],
    );
    let ideal = SuiteResult::run(&apps, &base.clone().with_policy(PolicyKind::IdealSb));
    // The N sweep, then the dynamic-S variant and disabling burst dedupe.
    let windows = [8u32, 16, 24, 32, 48, 64].map(|n| (format!("N={n}"), PolicyKind::spb(n, true)));
    let ablations = [
        (
            "dynamic-S (N=48)".to_string(),
            PolicyKind::SpbDynamic { n: 48 },
        ),
        ("no-dedupe (N=48)".to_string(), PolicyKind::spb(48, false)),
    ];
    for (label, policy) in windows.into_iter().chain(ablations) {
        let row: Vec<f64> = sbs
            .iter()
            .map(|&sb| {
                let cfg = base.clone().with_sb(sb).with_policy(policy);
                SuiteResult::run(&apps, &cfg).geomean_speedup_sb_bound(&ideal)
            })
            .collect();
        t.push_row(label, &row);
    }
    vec![t]
}
