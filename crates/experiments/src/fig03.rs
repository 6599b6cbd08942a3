//! Figure 3: where the stores causing SB-induced stalls live.
//!
//! For each SB-bound application, the fraction of SB-stall cycles whose
//! blocking store belongs to `memcpy`, `memset`, `calloc`, the kernel's
//! `clear_page`, or the application itself. Library/OS code dominates
//! for most applications; `deepsjeng` and `roms` stall on their own
//! hand-written copy loops.

use crate::grid::Grid;
use crate::Budget;
use spb_sim::suite::SuiteResult;
use spb_sim::RunResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;
use spb_trace::CodeRegion;

fn empty_table() -> Table {
    let columns: Vec<String> = CodeRegion::ALL.iter().map(|r| r.to_string()).collect();
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    Table::new(
        "Fig. 3 — SB-stall cycles by code region of the blocking store (at-commit, SB56)",
        &col_refs,
    )
}

fn region_fractions(r: &RunResult) -> Vec<f64> {
    let total: u64 = r.cpu.sb_stall_by_region.iter().sum();
    r.cpu
        .sb_stall_by_region
        .iter()
        .map(|&c| {
            if total == 0 {
                0.0
            } else {
                c as f64 / total as f64
            }
        })
        .collect()
}

/// Re-renders the figure from the shared grid's at-commit/SB56 view,
/// keeping only the SB-bound applications.
pub fn tables_from_grid(grid: &Grid) -> Vec<Table> {
    let mut t = empty_table();
    let suite = grid.at(1, 2); // at-commit, SB56
    for (a, app) in grid.apps.iter().enumerate() {
        if app.is_sb_bound() {
            t.push_row(app.name(), &region_fractions(&suite.runs[a]));
        }
    }
    vec![t]
}

/// Runs the experiment at `budget` (at-commit, 56-entry SB).
pub fn run(budget: Budget) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let suite = SuiteResult::run(&apps, &budget.sim_config());
    let mut t = empty_table();
    for (app, r) in apps.iter().zip(&suite.runs) {
        t.push_row(app.name(), &region_fractions(r));
    }
    vec![t]
}
