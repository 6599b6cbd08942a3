//! Figure 1: ratio of stall cycles due to a full SB.
//!
//! The paper's motivation figure: with the at-commit baseline, the
//! fraction of cycles stalled on a full SB grows steeply as the SB
//! shrinks from 56 to 14 entries (the per-thread share under SMT-4).
//! "All" averages the whole suite; "SB-Bound" only the >2% subset.

use crate::grid::SB_SIZES;
use crate::Evaluation;
use spb_stats::summary::mean;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Figure 1 from the SPEC grid (at-commit is policy index 1).
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let grid = &ev.grid(AppProfile::spec2017());
    let mut t = Table::new(
        "Fig. 1 — % of cycles stalled on a full SB (at-commit)",
        &["All", "SB-Bound"],
    );
    for (s, &sb) in SB_SIZES.iter().enumerate() {
        let suite = grid.at(1, s);
        let all: Vec<f64> = suite
            .runs
            .iter()
            .map(|r| r.sb_stall_ratio() * 100.0)
            .collect();
        let bound: Vec<f64> = suite
            .runs
            .iter()
            .zip(&suite.sb_bound)
            .filter(|(_, b)| **b)
            .map(|(r, _)| r.sb_stall_ratio() * 100.0)
            .collect();
        t.push_row(format!("SB{sb}"), &[mean(&all), mean(&bound)]);
    }
    t.set_precision(1);
    vec![t]
}
