//! Figure 8: SB-induced stall cycles normalized to at-commit.
//!
//! Paper headline: SPB removes 24% (SB56) to 37% (SB28) of the remaining
//! SB stalls; what is left is cold stalls, late bursts, and patterns the
//! detector cannot capture.

use crate::grid::{Grid, SB_SIZES};
use crate::Budget;
use spb_sim::suite::SuiteResult;
use spb_stats::summary::geomean;
use spb_stats::{StallCause, Table, TopDown};

/// Per-suite geomean of a Top-Down stall count normalized to a
/// baseline suite. Apps with (near-)zero baseline stalls are skipped — a
/// ratio over ~nothing is noise, and the paper's figures are over
/// SB-bound apps anyway.
fn norm_stalls(
    suite: &SuiteResult,
    baseline: &SuiteResult,
    sb_bound_only: bool,
    stalls: fn(&TopDown) -> u64,
) -> f64 {
    let vals: Vec<f64> = suite
        .runs
        .iter()
        .zip(&baseline.runs)
        .zip(&suite.sb_bound)
        .filter(|(_, b)| !sb_bound_only || **b)
        .filter_map(|((r, base), _)| {
            let b = stalls(&base.topdown);
            (b > 100).then(|| stalls(&r.topdown) as f64 / b as f64)
        })
        .collect();
    geomean(&vals)
}

/// The ALL and SB-BOUND tables of a stall count normalized to
/// at-commit: at-execute, SPB and the ideal SB at every SB size
/// (Figures 8 and 14).
pub(crate) fn stall_tables(
    grid: &Grid,
    titles: [&str; 2],
    stalls: fn(&TopDown) -> u64,
) -> Vec<Table> {
    let mut out = Vec::new();
    for (title, bound_only) in titles.into_iter().zip([false, true]) {
        let mut t = Table::new(title, &["at-execute", "spb", "ideal"]);
        for (s, &sb) in SB_SIZES.iter().enumerate() {
            let norm = |suite: &SuiteResult| norm_stalls(suite, grid.at(1, s), bound_only, stalls);
            t.push_row(
                format!("SB{sb}"),
                &[norm(grid.at(0, s)), norm(grid.at(2, s)), norm(&grid.ideal)],
            );
        }
        out.push(t);
    }
    out
}

/// Builds the Figure 8 tables from the main grid.
pub fn tables_from_grid(grid: &Grid) -> Vec<Table> {
    let titles = [
        "Fig. 8 — SB stalls normalized to at-commit (ALL)",
        "Fig. 8 — SB stalls normalized to at-commit (SB-BOUND)",
    ];
    stall_tables(grid, titles, |t| t.stall_cycles(StallCause::StoreBuffer))
}

/// Runs the experiment at `budget`.
pub fn run(budget: Budget) -> Vec<Table> {
    tables_from_grid(&Grid::spec(budget))
}
