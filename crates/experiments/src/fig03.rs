//! Figure 3: where the stores causing SB-induced stalls live.
//!
//! For each SB-bound application, the fraction of SB-stall cycles whose
//! blocking store belongs to `memcpy`, `memset`, `calloc`, the kernel's
//! `clear_page`, or the application itself. Library/OS code dominates
//! for most applications; `deepsjeng` and `roms` stall on their own
//! hand-written copy loops.

use crate::Evaluation;
use spb_sim::RunResult;
use spb_stats::Table;
use spb_trace::profile::AppProfile;
use spb_trace::CodeRegion;

fn region_fractions(r: &RunResult) -> Vec<f64> {
    let total: u64 = r.cpu.sb_stall_by_region.iter().sum();
    r.cpu
        .sb_stall_by_region
        .iter()
        .map(|&c| {
            if total == 0 {
                0.0
            } else {
                c as f64 / total as f64
            }
        })
        .collect()
}

/// Runs Figure 3 over the SB-bound apps (at-commit, 56-entry SB).
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let suite = ev.suite(&apps, &ev.base());
    let columns: Vec<String> = CodeRegion::ALL.iter().map(|r| r.to_string()).collect();
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig. 3 — SB-stall cycles by code region of the blocking store (at-commit, SB56)",
        &col_refs,
    );
    for (app, r) in apps.iter().zip(&suite.runs) {
        t.push_row(app.name(), &region_fractions(r));
    }
    vec![t]
}
