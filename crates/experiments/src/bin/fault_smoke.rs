//! Fault-injection smoke: sweeps seeded fault rates over SPEC and
//! PARSEC cells and verifies every run survives with a clean coherence
//! checker.
//!
//! This is the robustness gate CI runs: deterministic faults (delayed
//! prefetch acks, DRAM latency spikes, forced MSHR exhaustion, dropped
//! SPB bursts) stress exactly the paths the invariant checker guards.
//! Any invariant violation, watchdog trip, or panic exits non-zero with
//! the cell's diagnostic. The table also shows the expected performance
//! story: as the fault rate grows, SPB's advantage decays toward the
//! at-commit baseline (prefetches help less when the memory system
//! misbehaves), but correctness never does.
//!
//! Pass --quick for the smoke budget; SPB_JOBS controls the pool.
use spb_experiments as exp;
use spb_mem::FaultConfig;
use spb_sim::config::PolicyKind;
use spb_sim::sweep::{run_cells_supervised, Supervision, SweepOptions};
use spb_trace::profile::AppProfile;

fn main() {
    let budget = exp::Budget::from_args();
    let rates = [0.0, 0.005, 0.02];
    let policies = [PolicyKind::AtCommit, PolicyKind::spb_default()];

    let mut cells = Vec::new();
    let mut meta = Vec::new();
    for name in ["x264", "dedup"] {
        let app = AppProfile::by_name(name).expect("suite app");
        let base = if app.threads() > 1 {
            budget.parsec_sim_config()
        } else {
            budget.sim_config()
        };
        for &rate in &rates {
            for &policy in &policies {
                let mut cfg = base.clone().with_sb(14).with_policy(policy);
                if rate > 0.0 {
                    cfg.mem.fault = FaultConfig::uniform(rate, 0xFA17);
                }
                meta.push(rate);
                cells.push((app.clone(), cfg));
            }
        }
    }
    let cell_refs: Vec<_> = cells.iter().map(|(a, c)| (a, c.clone())).collect();
    let opts = SweepOptions::from_env().progress(true);
    let results = run_cells_supervised(&cell_refs, &opts, &Supervision::default());

    let mut violations = 0;
    println!(
        "{:<8} {:<10} {:>6} {:>12} {:>7} {:>8} {:>8} {:>7} {:>7} {:>8}",
        "app",
        "policy",
        "rate",
        "cycles",
        "ipc",
        "ack-del",
        "spikes",
        "denied",
        "dropped",
        "repairs"
    );
    for ((r, _), rate) in results.iter().zip(&meta) {
        match r {
            Ok(run) => println!(
                "{:<8} {:<10} {:>6} {:>12} {:>7.3} {:>8} {:>8} {:>7} {:>7} {:>8}",
                run.app,
                run.policy,
                rate,
                run.cycles,
                run.ipc(),
                run.mem.faults_ack_delayed,
                run.mem.faults_dram_spiked,
                run.mem.faults_mshr_denied,
                run.mem.faults_bursts_dropped,
                run.mem.coherence_repairs,
            ),
            Err(f) => {
                violations += 1;
                eprintln!("FAILED {f}");
            }
        }
    }
    if violations > 0 {
        eprintln!("fault smoke: {violations} cell(s) failed");
        std::process::exit(1);
    }
    println!(
        "fault smoke: all {} cells clean under injected faults",
        results.len()
    );
}
