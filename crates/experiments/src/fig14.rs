//! Figure 14: execution stalls with an L1D miss pending, normalized to
//! at-commit (Intel Top-Down's memory-boundness proxy).
//!
//! Paper headline: SPB *reduces* this metric despite its extra traffic
//! (−27.2% at SB14 overall, −52.8% for SB-bound apps), because bursts
//! convert long store-miss waits into hits.

use crate::Evaluation;
use spb_stats::{Table, TopDown};
use spb_trace::profile::AppProfile;

/// Figure 14 from the SPEC grid.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let grid = &ev.grid(AppProfile::spec2017());
    let titles = [
        "Fig. 14 — execution stalls with L1D miss pending, vs at-commit (ALL)",
        "Fig. 14 — execution stalls with L1D miss pending, vs at-commit (SB-BOUND)",
    ];
    crate::fig08::stall_tables(grid, titles, TopDown::l1d_miss_pending_stalls)
}
