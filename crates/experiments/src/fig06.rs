//! Figure 6: per-application performance of the SB-bound applications,
//! normalized to the ideal SB, for each SB size.

use crate::grid::{policies, SB_SIZES};
use crate::Evaluation;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// One table per SB size, from the grid over the SB-bound subset.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let grid = &ev.grid(AppProfile::spec2017_sb_bound());
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
