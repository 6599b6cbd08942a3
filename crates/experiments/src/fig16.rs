//! Figure 16: SPB on top of aggressive cache prefetchers.
//!
//! Each configuration is normalized to the *ideal SB running the same
//! generic prefetcher*, so the table shows how much SB-induced headroom
//! remains per prefetcher. Paper headline: aggressive/adaptive cache
//! prefetchers do not close the SB gap (their window is still anchored
//! to the SB's demand stream); SPB is needed — and orthogonal — on top.

use crate::Evaluation;
use spb_mem::prefetch::PrefetcherKind;
use spb_sim::config::{PolicyKind, SimConfig};
use spb_sim::suite::SuiteResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// The ideal SB, then at-commit and SPB at each of `sbs`, on `cfg`.
pub(crate) fn ideal_and_pairs(cfg: &SimConfig, sbs: [usize; 2]) -> Vec<SimConfig> {
    let mut configs = vec![cfg.clone().with_policy(PolicyKind::IdealSb)];
    for sb in sbs {
        configs.push(cfg.clone().with_sb(sb));
        configs.push(
            cfg.clone()
                .with_sb(sb)
                .with_policy(PolicyKind::spb_default()),
        );
    }
    configs
}

/// The ALL and SB-BOUND tables over rows of [`ideal_and_pairs`]
/// suites: row `r` is `suites[5r..5r + 5]`, the last four normalized to
/// the first.
pub(crate) fn scope_tables(
    title: &str,
    cols: &[&str],
    labels: &[&str],
    suites: &[SuiteResult],
) -> Vec<Table> {
    [("ALL", false), ("SB-BOUND", true)]
        .into_iter()
        .map(|(scope, sb_bound_only)| {
            let mut t = Table::new(format!("{title} ({scope})"), cols);
            for (label, row) in labels.iter().zip(suites.chunks(5)) {
                let (ideal, rest) = row.split_first().expect("five suites per row");
                let norm: Vec<f64> = rest
                    .iter()
                    .map(|suite| {
                        if sb_bound_only {
                            suite.geomean_speedup_sb_bound(ideal)
                        } else {
                            suite.geomean_speedup_all(ideal)
                        }
                    })
                    .collect();
                t.push_row(*label, &norm);
            }
            t
        })
        .collect()
}

/// Runs Figure 16 over SPEC at SB56 and SB14.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let prefetchers = [
        ("stream", PrefetcherKind::Stride),
        ("aggressive", PrefetcherKind::Aggressive),
        ("adaptive", PrefetcherKind::Adaptive),
    ];
    let mut configs = Vec::new();
    for (_, pk) in prefetchers {
        let mut cfg = ev.base();
        cfg.mem.prefetcher = pk;
        configs.extend(ideal_and_pairs(&cfg, [56, 14]));
    }
    let suites = ev.suites(&AppProfile::spec2017(), &configs);
    scope_tables(
        "Fig. 16 — perf normalized to Ideal + same prefetcher",
        &["at-commit SB56", "spb SB56", "at-commit SB14", "spb SB14"],
        &prefetchers.map(|(name, _)| name),
        &suites,
    )
}
