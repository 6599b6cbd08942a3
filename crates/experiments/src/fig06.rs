//! Figure 6: per-application performance of the SB-bound applications,
//! normalized to the ideal SB, for each SB size.

use crate::grid::{policies, Grid, SB_SIZES};
use crate::Budget;
use spb_stats::Table;

/// Builds the three per-SB-size tables from a grid run over the
/// SB-bound subset.
pub fn tables_from_grid(grid: &Grid) -> Vec<Table> {
    let labels: Vec<String> = policies().iter().map(|p| p.label()).collect();
    let cols: Vec<&str> = labels.iter().map(String::as_str).collect();
    SB_SIZES
        .iter()
        .enumerate()
        .map(|(s, &sb)| {
            let mut t = Table::new(
                format!("Fig. 6 — SB-bound apps normalized to Ideal (SB{sb})"),
                &cols,
            );
            let norm: Vec<Vec<f64>> = (0..policies().len())
                .map(|p| grid.at(p, s).speedup_vs(&grid.ideal))
                .collect();
            for (a, app) in grid.apps.iter().enumerate() {
                let row: Vec<f64> = norm.iter().map(|n| n[a]).collect();
                t.push_row(app.name(), &row);
            }
            t
        })
        .collect()
}

/// Runs the experiment at `budget`.
pub fn run(budget: Budget) -> Vec<Table> {
    tables_from_grid(&Grid::spec_sb_bound(budget))
}
