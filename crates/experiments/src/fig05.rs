//! Figure 5: performance normalized to the ideal SB.
//!
//! Paper targets (geomean over SPEC CPU 2017, "ALL" / "SB-BOUND"):
//!
//! | SB size | at-commit | SPB |
//! |---------|-----------|-----|
//! | SB56    | 0.981     | 1.005 (SB-bound 1.023) |
//! | SB28    | 0.936     | 0.989 (SB-bound 0.987) |
//! | SB14    | 0.859 (SB-bound 0.701) | 0.954 (SB-bound 0.926) |

use crate::grid::{policies, Grid, SB_SIZES};
use crate::Budget;
use spb_stats::Table;

/// Builds the Figure 5 tables from an existing grid.
pub fn tables_from_grid(grid: &Grid) -> Vec<Table> {
    let mut all = Table::new(
        "Fig. 5 — performance normalized to Ideal (geomean, ALL)",
        &["at-execute", "at-commit", "spb"],
    );
    let mut sb_bound = Table::new(
        "Fig. 5 — performance normalized to Ideal (geomean, SB-BOUND)",
        &["at-execute", "at-commit", "spb"],
    );
    for (s, &sb) in SB_SIZES.iter().enumerate() {
        let row_all: Vec<f64> = (0..policies().len())
            .map(|p| grid.at(p, s).geomean_speedup_all(&grid.ideal))
            .collect();
        let row_sb: Vec<f64> = (0..policies().len())
            .map(|p| grid.at(p, s).geomean_speedup_sb_bound(&grid.ideal))
            .collect();
        all.push_row(format!("SB{sb}"), &row_all);
        sb_bound.push_row(format!("SB{sb}"), &row_sb);
    }
    vec![all, sb_bound]
}

/// Runs the experiment at `budget`.
pub fn run(budget: Budget) -> Vec<Table> {
    let grid = Grid::spec(budget);
    tables_from_grid(&grid)
}
