//! §VII-A: why spatial (page-footprint) prefetchers cannot replace SPB.
//!
//! "Spatial prefetchers … collect the accessed blocks within a page and
//! prefetch them again on the first access to that page. … [a memory
//! copy or initialization] may happen only once in the execution of a
//! program, so learning the page is not an effective mechanism."
//!
//! This experiment runs the SB-bound suite at SB14 under the stride and
//! spatial generic prefetchers, with and without SPB. If the paper is
//! right, the spatial prefetcher's column should look like the stride
//! column (store bursts touch each page once — nothing to replay),
//! while SPB helps under both.

use crate::Evaluation;
use spb_mem::prefetch::PrefetcherKind;
use spb_sim::config::PolicyKind;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

/// Runs the comparison over the SB-bound subset at SB14.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let prefetchers = [
        ("stride", PrefetcherKind::Stride),
        ("spatial", PrefetcherKind::Spatial),
        ("none", PrefetcherKind::None),
    ];
    // One ideal baseline (stride) so columns are directly comparable,
    // then at-commit and SPB under each prefetcher.
    let mut ideal = ev.base().with_sb(14).with_policy(PolicyKind::IdealSb);
    ideal.mem.prefetcher = PrefetcherKind::Stride;
    let mut configs = vec![ideal];
    for (_, pk) in prefetchers {
        let mut cfg = ev.base().with_sb(14);
        cfg.mem.prefetcher = pk;
        configs.push(cfg.clone());
        configs.push(cfg.with_policy(PolicyKind::spb_default()));
    }
    let suites = ev.suites(&apps, &configs);
    let (ideal, suites) = suites.split_first().expect("the ideal suite");
    let mut t = Table::new(
        "§VII-A — spatial prefetching vs SPB (SB-bound geomean, SB14, vs Ideal+stride)",
        &["at-commit", "spb"],
    );
    for ((label, _), pair) in prefetchers.iter().zip(suites.chunks(2)) {
        t.push_row(
            *label,
            &[
                pair[0].geomean_speedup_all(ideal),
                pair[1].geomean_speedup_all(ideal),
            ],
        );
    }
    vec![t]
}
