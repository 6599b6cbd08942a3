//! Figure 13: L1D tag-access overhead of SPB normalized to at-commit.
//!
//! SPB's burst RFOs (and the continuing per-store at-commit requests
//! that get discarded as `PopReq`) all check the L1 tags. Paper
//! headline: +3.4% / +7.7% / +3.5% tag checks for SB14 / SB28 / SB56
//! overall (8.6–18.9% for SB-bound apps), partially offset by fewer
//! wrong-path L1 accesses.

use crate::grid::{geomean_ratio, SB_SIZES};
use crate::Evaluation;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Figure 13 from the SPEC grid.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let grid = &ev.grid(AppProfile::spec2017());
    let mut t = Table::new(
        "Fig. 13 — L1D tag checks of SPB normalized to at-commit",
        &["ALL", "SB-BOUND"],
    );
    for (s, &sb) in SB_SIZES.iter().enumerate() {
        let norm = |sb_bound_only| {
            geomean_ratio(grid.at(2, s), grid.at(1, s), sb_bound_only, |r, base| {
                Some(r.mem.l1_tag_checks as f64 / base.mem.l1_tag_checks.max(1) as f64)
            })
        };
        t.push_row(format!("SB{sb}"), &[norm(false), norm(true)]);
    }
    vec![t]
}
