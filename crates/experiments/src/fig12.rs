//! Figure 12: prefetch traffic of SPB normalized to at-commit.
//!
//! REQ counts all store-prefetch requests reaching the L1 controller
//! (each checks the tags); MISS counts the subset that missed L1 and
//! generated downstream (L2 and beyond) traffic. Paper headline: SPB
//! adds modest traffic (a few percent overall; 8–19% REQ for SB-bound
//! apps) because it is only enabled on detected bursts.

use crate::Evaluation;
use spb_mem::RfoOrigin;
use spb_sim::config::PolicyKind;
use spb_sim::RunResult;
use spb_stats::summary::geomean;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

fn store_prefetch_traffic(r: &RunResult) -> (u64, u64) {
    let origins = [
        RfoOrigin::AtExecute,
        RfoOrigin::AtCommit,
        RfoOrigin::SpbBurst,
    ];
    let req = origins
        .iter()
        .map(|o| r.mem.prefetch_requests[o.index()])
        .sum();
    let miss = origins
        .iter()
        .map(|o| r.mem.prefetch_downstream[o.index()])
        .sum();
    (req, miss)
}

/// Runs Figure 12 over SPEC at SB56 (at-commit and SPB).
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017();
    let ac = ev.base();
    let spb = ac.clone().with_policy(PolicyKind::spb_default());
    let suites = ev.suites(&apps, &[ac, spb]);
    let mut t = Table::new(
        "Fig. 12 — SPB prefetch traffic normalized to at-commit (SB56)",
        &["REQ", "MISS"],
    );
    let mut all_req = Vec::new();
    let mut all_miss = Vec::new();
    let mut bound_req = Vec::new();
    let mut bound_miss = Vec::new();
    for (a, app) in apps.iter().enumerate() {
        let (req_ac, miss_ac) = store_prefetch_traffic(&suites[0].runs[a]);
        let (req_spb, miss_spb) = store_prefetch_traffic(&suites[1].runs[a]);
        if req_ac < 100 {
            // Effectively store-free application: a traffic *ratio* is
            // meaningless noise, skip it (matches the paper's plotting
            // of SB-bound apps only).
            continue;
        }
        let req = req_spb as f64 / req_ac as f64;
        let miss = miss_spb as f64 / miss_ac.max(1) as f64;
        if app.is_sb_bound() {
            t.push_row(app.name(), &[req, miss]);
            bound_req.push(req);
            bound_miss.push(miss);
        }
        all_req.push(req);
        if miss_ac >= 100 {
            // MISS ratios are only meaningful when the baseline has
            // downstream traffic (cache-resident stores have none).
            all_miss.push(miss);
        }
    }
    t.push_row("SB-BOUND", &[geomean(&bound_req), geomean(&bound_miss)]);
    t.push_row("ALL", &[geomean(&all_req), geomean(&all_miss)]);
    vec![t]
}
