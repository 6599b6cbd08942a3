//! Figure 14: execution stalls with an L1D miss pending, normalized to
//! at-commit (Intel Top-Down's memory-boundness proxy).
//!
//! Paper headline: SPB *reduces* this metric despite its extra traffic
//! (−27.2% at SB14 overall, −52.8% for SB-bound apps), because bursts
//! convert long store-miss waits into hits.

use crate::grid::Grid;
use crate::Budget;
use spb_stats::{Table, TopDown};

/// Builds the tables from the main grid.
pub fn tables_from_grid(grid: &Grid) -> Vec<Table> {
    let titles = [
        "Fig. 14 — execution stalls with L1D miss pending, vs at-commit (ALL)",
        "Fig. 14 — execution stalls with L1D miss pending, vs at-commit (SB-BOUND)",
    ];
    crate::fig08::stall_tables(grid, titles, TopDown::l1d_miss_pending_stalls)
}

/// Runs the experiment at `budget`.
pub fn run(budget: Budget) -> Vec<Table> {
    tables_from_grid(&Grid::spec(budget))
}
