//! The shared run grid most figures are views of.
//!
//! Figures 5, 6, 8, 9, 10, 14 and 15 all slice the same experiment
//! space: {at-execute, at-commit, SPB} × {SB14, SB28, SB56} plus the
//! ideal SB, over SPEC CPU 2017. [`Evaluation::grid`](crate::Evaluation::grid)
//! runs it once; the figure modules extract their views.

use spb_sim::config::PolicyKind;
use spb_sim::suite::SuiteResult;
use spb_sim::sweep::SweepReport;
use spb_sim::RunResult;
use spb_stats::summary::geomean;
use spb_trace::profile::AppProfile;

/// The SB sizes the paper evaluates.
pub(crate) const SB_SIZES: [usize; 3] = [14, 28, 56];

/// The non-ideal policies of the main comparison, in figure order.
pub(crate) fn policies() -> [PolicyKind; 3] {
    [
        PolicyKind::AtExecute,
        PolicyKind::AtCommit,
        PolicyKind::spb_default(),
    ]
}

/// Geomean over apps (only the SB-bound ones if `sb_bound_only`) of
/// `ratio(run, baseline run)`; apps it maps to `None` are skipped.
pub(crate) fn geomean_ratio(
    suite: &SuiteResult,
    baseline: &SuiteResult,
    sb_bound_only: bool,
    ratio: impl Fn(&RunResult, &RunResult) -> Option<f64>,
) -> f64 {
    let vals: Vec<f64> = suite
        .runs
        .iter()
        .zip(&baseline.runs)
        .zip(&suite.sb_bound)
        .filter(|(_, b)| !sb_bound_only || **b)
        .filter_map(|((r, base), _)| ratio(r, base))
        .collect();
    geomean(&vals)
}

/// All runs of the main comparison.
pub struct Grid {
    /// The applications, in suite order.
    pub(crate) apps: Vec<AppProfile>,
    /// Ideal-SB results (SB-size independent).
    pub(crate) ideal: SuiteResult,
    /// `results[p][s]` = policy `policies()[p]` at SB size `SB_SIZES[s]`.
    pub(crate) results: Vec<Vec<SuiteResult>>,
}

impl Grid {
    /// Flattens every run of the grid into one machine-readable report
    /// (ideal suite first, then policy-major × SB-minor, the order
    /// [`Evaluation::grid`](crate::Evaluation::grid) simulates them in).
    pub fn to_report(&self, name: impl Into<String>) -> SweepReport {
        let all: Vec<_> = std::iter::once(&self.ideal)
            .chain(self.results.iter().flatten())
            .flat_map(|s| s.runs.iter().cloned())
            .collect();
        SweepReport::new(name, &all)
    }

    /// The result set for (policy index, SB index).
    pub(crate) fn at(&self, policy_idx: usize, sb_idx: usize) -> &SuiteResult {
        &self.results[policy_idx][sb_idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, Evaluation};
    use spb_sim::sweep::SweepOptions;

    #[test]
    fn small_grid_has_expected_shape() {
        let apps: Vec<AppProfile> = ["x264", "povray"]
            .iter()
            .map(|n| AppProfile::by_name(n).unwrap())
            .collect();
        let grid = Evaluation::new(Budget::Quick, SweepOptions::from_env()).grid(apps);
        assert_eq!(grid.results.len(), 3);
        assert_eq!(grid.results[0].len(), 3);
        assert_eq!(grid.ideal.runs.len(), 2);
        let norm = grid.at(1, 2).speedup_vs(&grid.ideal);
        assert_eq!(norm.len(), 2);
        // 1 ideal + 3 policies × 3 SB sizes, each over 2 apps.
        let report = grid.to_report("unit");
        assert_eq!(report.records.len(), 2 * 10);
        assert_eq!(report.records[0].app, "x264");
        // Nothing should beat the ideal SB by much.
        for v in norm {
            assert!(v < 1.15, "normalized perf {v} suspiciously above ideal");
        }
    }
}
