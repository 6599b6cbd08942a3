//! Figure 11: breakdown of store-prefetch outcomes at the L1D.
//!
//! Every block brought in by a store prefetch is classified by its fate:
//! *successful* (owned and ready when the demanding store drained),
//! *late* (still in flight), *early* (evicted or invalidated unused but
//! demanded later), or *never used*. Paper headline: at-commit is
//! dominated by late prefetches (success 5–10%) because its RFOs issue
//! at the end of the store's life; SPB bursts run a page ahead and reach
//! 45–50% success on SB-bound applications.

use crate::Evaluation;
use spb_mem::RfoOrigin;
use spb_sim::config::PolicyKind;
use spb_sim::runner::RunResult;
use spb_stats::summary::mean;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// The four outcome fractions for one origin set, over classified blocks.
fn fractions(r: &RunResult, origins: &[RfoOrigin]) -> [f64; 4] {
    let mut sums = [0u64; 4];
    for o in origins {
        let i = o.index();
        sums[0] += r.mem.prefetch_successful[i];
        sums[1] += r.mem.prefetch_late[i];
        sums[2] += r.mem.prefetch_early[i];
        sums[3] += r.mem.prefetch_never_used[i];
    }
    let total: u64 = sums.iter().sum();
    if total == 0 {
        return [0.0; 4];
    }
    [
        sums[0] as f64 / total as f64,
        sums[1] as f64 / total as f64,
        sums[2] as f64 / total as f64,
        sums[3] as f64 / total as f64,
    ]
}

/// Runs Figure 11 over SPEC at SB56 (at-commit and SPB).
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017();
    let ac = ev.base();
    let spb = ac.clone().with_policy(PolicyKind::spb_default());
    let suites = ev.suites(&apps, &[ac, spb]);
    let mut t = Table::new(
        "Fig. 11 — store-prefetch outcome fractions at L1D (SB56; ac = at-commit, spb = SPB policy)",
        &[
            "ac succ", "ac late", "ac early", "ac never", "spb succ", "spb late", "spb early",
            "spb never",
        ],
    );
    let mut all_rows: Vec<[f64; 8]> = Vec::new();
    let mut bound_rows: Vec<[f64; 8]> = Vec::new();
    for (a, app) in apps.iter().enumerate() {
        let f_ac = fractions(&suites[0].runs[a], &[RfoOrigin::AtCommit]);
        // The SPB policy's prefetching is its bursts plus the underlying
        // per-store at-commit requests.
        let f_spb = fractions(
            &suites[1].runs[a],
            &[RfoOrigin::SpbBurst, RfoOrigin::AtCommit],
        );
        let row = [
            f_ac[0], f_ac[1], f_ac[2], f_ac[3], f_spb[0], f_spb[1], f_spb[2], f_spb[3],
        ];
        if app.is_sb_bound() {
            t.push_row(app.name(), &row);
            bound_rows.push(row);
        }
        all_rows.push(row);
    }
    let col_mean =
        |rows: &[[f64; 8]], i: usize| mean(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    let all: Vec<f64> = (0..8).map(|i| col_mean(&all_rows, i)).collect();
    let bound: Vec<f64> = (0..8).map(|i| col_mean(&bound_rows, i)).collect();
    t.push_row("SB-BOUND", &bound);
    t.push_row("ALL", &all);
    vec![t]
}
