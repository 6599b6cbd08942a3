//! Figure 15: per-application version of Figure 14 for the SB-bound
//! applications — execution stalls with an L1D miss pending, normalized
//! to at-commit.
//!
//! All SB-bound applications benefit except `roms`, whose SPB bursts
//! evict live blocks (conflict misses) that its re-referenced loads then
//! miss on — the §VI-A pathology.

use crate::Evaluation;
use spb_stats::{Table, TopDown};

/// One table per SB size, from the grid over the SB-bound subset.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let title = "Fig. 15 — per-app execution stalls w/ L1D miss pending vs at-commit";
    crate::fig09::per_app_tables(ev, title, TopDown::l1d_miss_pending_stalls)
}
