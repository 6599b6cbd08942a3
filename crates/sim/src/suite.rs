//! Suite-level runs and the paper's aggregation conventions.
//!
//! Most figures plot per-application bars for the SB-bound subset plus
//! two geometric-mean bars: **ALL** (every application in the suite) and
//! **SB-BOUND** (only the SB-bound subset). [`SuiteResult`] captures one
//! (policy, SB size) sweep over a suite and exposes those aggregates.

use crate::config::SimConfig;
use crate::runner::RunResult;
use crate::sweep::{run_cells, SweepOptions};
use spb_stats::summary::geomean;
use spb_trace::profile::AppProfile;

/// Results of running every application of a suite under one config.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Per-application results, in suite order.
    pub runs: Vec<RunResult>,
    /// Which applications are SB-bound (parallel to `runs`).
    pub sb_bound: Vec<bool>,
}

impl SuiteResult {
    /// Runs `cfg` over all `apps` with explicit sweep options
    /// ([`SweepOptions::from_env`] picks `SPB_JOBS` or the machine's
    /// available parallelism). Results are identical to a
    /// [`SweepOptions::serial`] run except for wall-clock fields.
    pub fn run_with(apps: &[AppProfile], cfg: &SimConfig, opts: &SweepOptions) -> Self {
        let cells: Vec<(&AppProfile, SimConfig)> = apps.iter().map(|a| (a, cfg.clone())).collect();
        Self {
            runs: run_cells(&cells, opts),
            sb_bound: apps.iter().map(|a| a.is_sb_bound()).collect(),
        }
    }

    /// The result for one application.
    pub fn get(&self, app: &str) -> Option<&RunResult> {
        self.runs.iter().find(|r| r.app == app)
    }

    /// Extracts `metric` for every application, in order.
    pub fn metric<F: Fn(&RunResult) -> f64>(&self, metric: F) -> Vec<f64> {
        self.runs.iter().map(metric).collect()
    }

    /// Geometric mean of `metric` over ALL applications.
    pub fn geomean_all<F: Fn(&RunResult) -> f64>(&self, metric: F) -> f64 {
        geomean(&self.metric(metric))
    }

    /// Geometric mean of `metric` over the SB-bound subset.
    pub fn geomean_sb_bound<F: Fn(&RunResult) -> f64>(&self, metric: F) -> f64 {
        let vals: Vec<f64> = self
            .runs
            .iter()
            .zip(&self.sb_bound)
            .filter(|(_, sb)| **sb)
            .map(|(r, _)| metric(r))
            .collect();
        geomean(&vals)
    }

    /// Per-application speedups of this suite result versus a baseline
    /// sweep of the same applications (`baseline_cycles / cycles`).
    ///
    /// # Panics
    ///
    /// Panics if the two sweeps ran different application lists.
    pub fn speedup_vs(&self, baseline: &SuiteResult) -> Vec<f64> {
        assert_eq!(self.runs.len(), baseline.runs.len(), "mismatched suites");
        self.runs
            .iter()
            .zip(&baseline.runs)
            .map(|(a, b)| {
                assert_eq!(a.app, b.app, "mismatched application order");
                b.cycles as f64 / a.cycles as f64
            })
            .collect()
    }

    /// Geometric-mean speedup versus a baseline over ALL applications.
    pub fn geomean_speedup_all(&self, baseline: &SuiteResult) -> f64 {
        geomean(&self.speedup_vs(baseline))
    }

    /// Geometric-mean speedup versus a baseline over the SB-bound subset.
    pub fn geomean_speedup_sb_bound(&self, baseline: &SuiteResult) -> f64 {
        let speedups: Vec<f64> = self
            .speedup_vs(baseline)
            .into_iter()
            .zip(&self.sb_bound)
            .filter(|(_, sb)| **sb)
            .map(|(s, _)| s)
            .collect();
        geomean(&speedups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;

    fn two_apps() -> Vec<AppProfile> {
        ["x264", "povray"]
            .iter()
            .map(|n| AppProfile::by_name(n).unwrap())
            .collect()
    }

    fn tiny_cfg() -> SimConfig {
        SimConfig::quick()
    }

    #[test]
    fn suite_runs_all_apps_and_tracks_sb_bound() {
        let apps = two_apps();
        let s = SuiteResult::run_with(&apps, &tiny_cfg(), &SweepOptions::from_env());
        assert_eq!(s.runs.len(), 2);
        assert_eq!(s.sb_bound, vec![true, false]);
        assert!(s.get("x264").is_some());
        assert!(s.get("nope").is_none());
    }

    #[test]
    fn geomeans_partition_correctly() {
        let apps = two_apps();
        let s = SuiteResult::run_with(&apps, &tiny_cfg(), &SweepOptions::from_env());
        let all = s.geomean_all(|r| r.ipc());
        let sb = s.geomean_sb_bound(|r| r.ipc());
        let x264_ipc = s.get("x264").unwrap().ipc();
        assert!((sb - x264_ipc).abs() < 1e-12, "only x264 is SB-bound here");
        assert!(all > 0.0);
    }

    #[test]
    fn speedup_vs_self_is_one() {
        let apps = two_apps();
        let s = SuiteResult::run_with(&apps, &tiny_cfg(), &SweepOptions::from_env());
        let speedups = s.speedup_vs(&s);
        assert!(speedups.iter().all(|&v| (v - 1.0).abs() < 1e-12));
        assert!((s.geomean_speedup_all(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spb_suite_speedup_at_small_sb_is_positive_for_sb_bound() {
        let apps = two_apps();
        let base = SuiteResult::run_with(&apps, &tiny_cfg().with_sb(14), &SweepOptions::from_env());
        let spb = SuiteResult::run_with(
            &apps,
            &tiny_cfg()
                .with_sb(14)
                .with_policy(PolicyKind::spb_default()),
            &SweepOptions::from_env(),
        );
        assert!(
            spb.geomean_speedup_sb_bound(&base) > 1.02,
            "SPB must visibly help the SB-bound app at SB14"
        );
    }
}
