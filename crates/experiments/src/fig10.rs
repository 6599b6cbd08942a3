//! Figure 10: issue-stall cycles normalized to at-commit, split into
//! SB-caused and Other-caused.
//!
//! Removing SB stalls (the ideal SB) shifts pressure to other resources
//! (ROB, load queue, …): the ideal's "Other" bar *grows* while its SB
//! bar vanishes. SPB removes a large share of SB stalls while slightly
//! *reducing* Other stalls (its prefetches shorten load waits), which is
//! how it can approach — and for SB-bound apps at SB56 beat — the
//! ideal's net stall reduction.

use crate::grid::SB_SIZES;
use crate::Evaluation;
use spb_sim::suite::SuiteResult;
use spb_stats::summary::mean;
use spb_stats::{StallCause, Table};
use spb_trace::profile::AppProfile;

/// Mean (over apps) of the given stall component normalized to the
/// baseline's *total* issue stalls — so components of one row sum to the
/// row's net total.
fn component(
    suite: &SuiteResult,
    baseline: &SuiteResult,
    sb_bound_only: bool,
    sb_part: bool,
) -> f64 {
    let vals: Vec<f64> = suite
        .runs
        .iter()
        .zip(&baseline.runs)
        .zip(&suite.sb_bound)
        .filter(|(_, b)| !sb_bound_only || **b)
        .filter_map(|((r, base), _)| {
            let total_base = base.topdown.total_stall_cycles();
            if total_base < 100 {
                return None;
            }
            let part = if sb_part {
                r.topdown.stall_cycles(StallCause::StoreBuffer)
            } else {
                r.topdown.other_stall_cycles()
            };
            Some(part as f64 / total_base as f64)
        })
        .collect();
    mean(&vals)
}

/// Figure 10 from the SPEC grid.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let grid = &ev.grid(AppProfile::spec2017());
    let mut out = Vec::new();
    for (scope, bound_only) in [("ALL", false), ("SB-BOUND", true)] {
        for (s, &sb) in SB_SIZES.iter().enumerate() {
            let base = grid.at(1, s);
            let mut t = Table::new(
                format!("Fig. 10 — issue stalls normalized to at-commit (SB{sb}, {scope})"),
                &["sb-stalls", "other-stalls", "net"],
            );
            for (label, suite) in [
                ("at-commit", base),
                ("at-execute", grid.at(0, s)),
                ("spb", grid.at(2, s)),
                ("ideal", &grid.ideal),
            ] {
                let sb_part = component(suite, base, bound_only, true);
                let other = component(suite, base, bound_only, false);
                t.push_row(label, &[sb_part, other, sb_part + other]);
            }
            out.push(t);
        }
    }
    out
}
