//! The shared run grid most figures are views of.
//!
//! Figures 5, 6, 8, 9, 10, 14 and 15 all slice the same experiment
//! space: {at-execute, at-commit, SPB} × {SB14, SB28, SB56} plus the
//! ideal SB, over SPEC CPU 2017. [`Grid::compute`] runs it once; the
//! figure modules extract their views.

use crate::Budget;
use spb_sim::config::{PolicyKind, SimConfig};
use spb_sim::suite::SuiteResult;
use spb_sim::sweep::{run_cells, SweepOptions, SweepReport};
use spb_trace::profile::AppProfile;

/// The SB sizes the paper evaluates.
pub const SB_SIZES: [usize; 3] = [14, 28, 56];

/// The non-ideal policies of the main comparison, in figure order.
pub fn policies() -> [PolicyKind; 3] {
    [
        PolicyKind::AtExecute,
        PolicyKind::AtCommit,
        PolicyKind::spb_default(),
    ]
}

/// All runs of the main comparison.
pub struct Grid {
    /// The applications, in suite order.
    pub apps: Vec<AppProfile>,
    /// Ideal-SB results (SB-size independent).
    pub ideal: SuiteResult,
    /// `results[p][s]` = policy `policies()[p]` at SB size `SB_SIZES[s]`.
    pub results: Vec<Vec<SuiteResult>>,
}

impl Grid {
    /// Runs the full grid over `apps` at `budget`, parallelized per
    /// [`SweepOptions::from_env`].
    pub fn compute(apps: Vec<AppProfile>, budget: Budget) -> Self {
        Self::compute_with(apps, budget, &SweepOptions::from_env())
    }

    /// Runs the full grid with explicit sweep options. The whole grid —
    /// the ideal SB plus every `policy × SB size` suite — is flattened
    /// into one cell list so the worker pool never drains between
    /// suites; results are re-assembled in the serial order.
    pub fn compute_with(apps: Vec<AppProfile>, budget: Budget, opts: &SweepOptions) -> Self {
        let base = budget.sim_config();
        let mut configs = vec![base.clone().with_policy(PolicyKind::IdealSb)];
        for p in policies() {
            for &sb in &SB_SIZES {
                configs.push(base.clone().with_sb(sb).with_policy(p));
            }
        }
        let cells: Vec<(&AppProfile, SimConfig)> = configs
            .iter()
            .flat_map(|c| apps.iter().map(|a| (a, c.clone())))
            .collect();
        let mut runs = run_cells(&cells, opts).into_iter();
        let sb_bound: Vec<bool> = apps.iter().map(|a| a.is_sb_bound()).collect();
        let mut next_suite = || SuiteResult {
            runs: runs.by_ref().take(apps.len()).collect(),
            sb_bound: sb_bound.clone(),
        };
        let ideal = next_suite();
        let results = policies()
            .iter()
            .map(|_| SB_SIZES.iter().map(|_| next_suite()).collect())
            .collect();
        Self {
            apps,
            ideal,
            results,
        }
    }

    /// Flattens every run of the grid into one machine-readable report
    /// (ideal suite first, then policy-major × SB-minor, matching
    /// [`Grid::compute`] order).
    pub fn to_report(&self, name: impl Into<String>) -> SweepReport {
        let all: Vec<_> = std::iter::once(&self.ideal)
            .chain(self.results.iter().flatten())
            .flat_map(|s| s.runs.iter().cloned())
            .collect();
        SweepReport::new(name, &all)
    }

    /// The full SPEC CPU 2017 grid.
    pub fn spec(budget: Budget) -> Self {
        Self::compute(AppProfile::spec2017(), budget)
    }

    /// Only the SB-bound subset (for per-application figures).
    pub(crate) fn spec_sb_bound(budget: Budget) -> Self {
        Self::compute(AppProfile::spec2017_sb_bound(), budget)
    }

    /// The result set for (policy index, SB index).
    pub fn at(&self, policy_idx: usize, sb_idx: usize) -> &SuiteResult {
        &self.results[policy_idx][sb_idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid_has_expected_shape() {
        let apps: Vec<AppProfile> = ["x264", "povray"]
            .iter()
            .map(|n| AppProfile::by_name(n).unwrap())
            .collect();
        let grid = Grid::compute(apps, Budget::Quick);
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
