//! §IV-C sensitivity analysis: the detector window N, the dynamic-S
//! variant, and the burst-dedupe ablation.
//!
//! Paper headline: N between 24 and 48 performs well (48 chosen); the
//! dynamic variant that adapts the threshold to store sizes performs
//! worse due to adaptation hysteresis and lost opportunity.

use crate::Evaluation;
use spb_sim::config::PolicyKind;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the sensitivity study over the SB-bound subset.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let base = ev.base();
    let sbs = [14usize, 28, 56];
    let mut t = Table::new(
        "§IV-C — SPB sensitivity to N (SB-bound geomean, normalized to Ideal)",
        &["SB14", "SB28", "SB56"],
    );
    // The N sweep, then the dynamic-S variant and disabling burst dedupe.
    let windows = [8u32, 16, 24, 32, 48, 64].map(|n| (format!("N={n}"), PolicyKind::spb(n, true)));
    let ablations = [
        (
            "dynamic-S (N=48)".to_string(),
            PolicyKind::SpbDynamic { n: 48 },
        ),
        ("no-dedupe (N=48)".to_string(), PolicyKind::spb(48, false)),
    ];
    let rows: Vec<(String, PolicyKind)> = windows.into_iter().chain(ablations).collect();
    let mut configs = vec![base.clone().with_policy(PolicyKind::IdealSb)];
    for (_, policy) in &rows {
        configs.extend(sbs.map(|sb| base.clone().with_sb(sb).with_policy(*policy)));
    }
    let suites = ev.suites(&apps, &configs);
    let (ideal, suites) = suites.split_first().expect("the ideal suite");
    for ((label, _), row) in rows.iter().zip(suites.chunks(sbs.len())) {
        let norm: Vec<f64> = row
            .iter()
            .map(|s| s.geomean_speedup_sb_bound(ideal))
            .collect();
        t.push_row(label, &norm);
    }
    vec![t]
}
