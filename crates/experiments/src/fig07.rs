//! Figure 7: energy normalized to at-commit (lower is better).
//!
//! Breakdown into cache dynamic energy (L1+L2+L3), total core dynamic
//! energy, and total energy (dynamic + static), for the at-execute and
//! SPB policies relative to the at-commit baseline at each SB size.
//! Paper headline: SPB's net total-energy savings are 6.7% / 3.4% / 1.5%
//! for SB14 / SB28 / SB56 (16.8% / 9% / 4.3% for SB-bound only).

use crate::grid::{geomean_ratio, SB_SIZES};
use crate::Evaluation;
use spb_energy::EnergyBreakdown;
use spb_sim::suite::SuiteResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;

fn norm_energy(
    suite: &SuiteResult,
    baseline: &SuiteResult,
    sb_bound_only: bool,
    metric: fn(&EnergyBreakdown) -> f64,
) -> f64 {
    geomean_ratio(suite, baseline, sb_bound_only, |r, base| {
        Some(metric(&r.energy) / metric(&base.energy))
    })
}

/// Figure 7 from the SPEC grid (at-execute = policy 0, at-commit = 1,
/// SPB = 2).
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let grid = &ev.grid(AppProfile::spec2017());
    let mut out = Vec::new();
    for (title, sb_bound_only) in [
        (
            "Fig. 7 — energy normalized to at-commit (geomean, ALL)",
            false,
        ),
        (
            "Fig. 7 — energy normalized to at-commit (geomean, SB-BOUND)",
            true,
        ),
    ] {
        let mut t = Table::new(
            title,
            &[
                "exe cache-dyn",
                "exe core-dyn",
                "exe total",
                "spb cache-dyn",
                "spb core-dyn",
                "spb total",
            ],
        );
        for (s, &sb) in SB_SIZES.iter().enumerate() {
            let base = grid.at(1, s);
            let exe = grid.at(0, s);
            let spb = grid.at(2, s);
            t.push_row(
                format!("SB{sb}"),
                &[
                    norm_energy(exe, base, sb_bound_only, |e| e.cache_dynamic_nj),
                    norm_energy(exe, base, sb_bound_only, |e| e.core_dynamic_nj),
                    norm_energy(exe, base, sb_bound_only, |e| e.total_nj()),
                    norm_energy(spb, base, sb_bound_only, |e| e.cache_dynamic_nj),
                    norm_energy(spb, base, sb_bound_only, |e| e.core_dynamic_nj),
                    norm_energy(spb, base, sb_bound_only, |e| e.total_nj()),
                ],
            );
        }
        out.push(t);
    }
    out
}
