//! Figure 8: SB-induced stall cycles normalized to at-commit.
//!
//! Paper headline: SPB removes 24% (SB56) to 37% (SB28) of the remaining
//! SB stalls; what is left is cold stalls, late bursts, and patterns the
//! detector cannot capture.

use crate::grid::{geomean_ratio, Grid, SB_SIZES};
use crate::Evaluation;
use spb_sim::suite::SuiteResult;
use spb_stats::{StallCause, Table, TopDown};
use spb_trace::profile::AppProfile;

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
            // Apps with (near-)zero baseline stalls are skipped: a ratio
            // over ~nothing is noise.
            let norm = |suite: &SuiteResult| {
                geomean_ratio(suite, grid.at(1, s), bound_only, |r, base| {
                    let b = stalls(&base.topdown);
                    (b > 100).then(|| stalls(&r.topdown) as f64 / b as f64)
                })
            };
            t.push_row(
                format!("SB{sb}"),
                &[norm(grid.at(0, s)), norm(grid.at(2, s)), norm(&grid.ideal)],
            );
        }
        out.push(t);
    }
    out
}

/// Figure 8 from the SPEC grid.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let grid = &ev.grid(AppProfile::spec2017());
    let titles = [
        "Fig. 8 — SB stalls normalized to at-commit (ALL)",
        "Fig. 8 — SB stalls normalized to at-commit (SB-BOUND)",
    ];
    stall_tables(grid, titles, |t| t.stall_cycles(StallCause::StoreBuffer))
}
