//! Seeded timing faults (delayed prefetch acks, DRAM latency spikes,
//! forced MSHR exhaustion, dropped SPB burst blocks) stress exactly the
//! paths the coherence invariant checker guards. A supervised quick
//! sweep of x264 and dedup under at-commit and SPB at fault rates 0 /
//! 0.005 / 0.02 (seed 0xFA17) must complete every cell: an invariant
//! violation, a watchdog trip or a panic fails its cell, and the test.
//! EXPERIMENTS.md ("Fault robustness") tabulates these cells.

use spb_mem::FaultConfig;
use spb_sim::sweep::{run_cells_supervised, Supervision, SweepOptions};
use spb_sim::{Budget, PolicyKind};
use spb_trace::profile::AppProfile;

#[test]
fn every_fault_injected_cell_stays_coherent() {
    let mut cells = Vec::new();
    for name in ["x264", "dedup"] {
        let app = AppProfile::by_name(name).unwrap();
        let base = if app.threads() > 1 {
            Budget::Quick.parsec_sim_config()
        } else {
            Budget::Quick.sim_config()
        };
        for rate in [0.0, 0.005, 0.02] {
            for policy in [PolicyKind::AtCommit, PolicyKind::spb_default()] {
                let mut cfg = base.clone().with_sb(14).with_policy(policy);
                if rate > 0.0 {
                    cfg.mem.fault = FaultConfig::uniform(rate, 0xFA17);
                }
                cells.push((app.clone(), cfg));
            }
        }
    }
    let cell_refs: Vec<_> = cells.iter().map(|(a, c)| (a, c.clone())).collect();
    let results = run_cells_supervised(
        &cell_refs,
        &SweepOptions::from_env(),
        &Supervision::default(),
    );
    assert_eq!(results.len(), 12);
    let failed: Vec<String> = results
        .iter()
        .filter_map(|(r, _)| r.as_ref().err().map(ToString::to_string))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
