//! Seed robustness of the headline result.
//!
//! The workloads are synthetic and seeded; a reproduction that only
//! holds for seed 42 would be worthless. This experiment re-runs the
//! Figure 5 headline cell (SB14, at-commit vs SPB, SB-bound geomean
//! normalized to ideal) under several workload seeds and reports the
//! spread.

use crate::Evaluation;
use spb_sim::config::PolicyKind;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the headline cell under every seed, over the SB-bound subset.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let seeds = [42u64, 7, 1234, 987654321];
    let mut configs = Vec::new();
    for seed in seeds {
        let mut cfg = ev.base().with_sb(14);
        cfg.seed = seed;
        configs.push(cfg.clone().with_policy(PolicyKind::IdealSb));
        configs.push(cfg.clone());
        configs.push(cfg.with_policy(PolicyKind::spb_default()));
    }
    let suites = ev.suites(&apps, &configs);
    let mut t = Table::new(
        "Seed robustness — SB-bound geomean vs Ideal at SB14",
        &["at-commit", "spb", "spb gain %"],
    );
    let mut gains = Vec::new();
    for (seed, row) in seeds.iter().zip(suites.chunks(3)) {
        let [ideal, ac, spb] = row else {
            unreachable!("three suites per seed")
        };
        let (a, b) = (
            ac.geomean_speedup_all(ideal),
            spb.geomean_speedup_all(ideal),
        );
        let gain = (b / a - 1.0) * 100.0;
        gains.push(gain);
        t.push_row(format!("seed {seed}"), &[a, b, gain]);
    }
    let spread = gains.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - gains.iter().cloned().fold(f64::INFINITY, f64::min);
    t.push_row("max-min gain spread", &[0.0, 0.0, spread]);
    vec![t]
}
