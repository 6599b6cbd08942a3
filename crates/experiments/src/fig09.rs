//! Figure 9: per-application SB stalls normalized to at-commit, for the
//! SB-bound applications at each SB size.

use crate::grid::SB_SIZES;
use crate::Evaluation;
use spb_stats::{StallCause, Table, TopDown};
use spb_trace::profile::AppProfile;

/// One table per SB size, from the grid over the SB-bound subset.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let title = "Fig. 9 — per-app SB stalls normalized to at-commit";
    per_app_tables(ev, title, |t| t.stall_cycles(StallCause::StoreBuffer))
}

/// One table per SB size: each SB-bound app's `stalls` under
/// at-execute, SPB and the ideal SB, normalized to at-commit (Figures 9
/// and 15).
pub(crate) fn per_app_tables(
    ev: &mut Evaluation,
    title: &str,
    stalls: fn(&TopDown) -> u64,
) -> Vec<Table> {
    let grid = &ev.grid(AppProfile::spec2017_sb_bound());
    SB_SIZES
        .iter()
        .enumerate()
        .map(|(s, &sb)| {
            let mut t = Table::new(format!("{title} (SB{sb})"), &["at-execute", "spb", "ideal"]);
            for (a, app) in grid.apps.iter().enumerate() {
                let b = stalls(&grid.at(1, s).runs[a].topdown).max(1) as f64;
                let row: Vec<f64> = [grid.at(0, s), grid.at(2, s), &grid.ideal]
                    .iter()
                    .map(|suite| stalls(&suite.runs[a].topdown) as f64 / b)
                    .collect();
                t.push_row(app.name(), &row);
            }
            t
        })
        .collect()
}
