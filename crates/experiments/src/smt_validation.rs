//! Validation of the paper's SMT methodology.
//!
//! The paper never simulates SMT directly: it approximates an SMT-2
//! (SMT-4) processor by running one thread with a 28-entry (14-entry)
//! SB — the per-thread share of the statically partitioned 56-entry
//! buffer. This experiment runs a *real* fine-grained SMT-2 core
//! (shared pipeline, partitioned queues) and compares the per-thread
//! SB-stall ratio and SPB benefit against the single-thread SB28
//! approximation, for the SB-bound applications.
//!
//! If the approximation is sound, the two columns of each pair should
//! tell the same story: similar SB-stall ratios, similar relative SPB
//! gains.

use crate::Evaluation;
use spb_cpu::smt::{SmtCore, ThreadContext};
use spb_cpu::CoreConfig;
use spb_mem::{MemoryConfig, MemorySystem};
use spb_sim::config::PolicyKind;
use spb_stats::Table;
use spb_trace::phased::PhasedWorkload;
use spb_trace::profile::AppProfile;

fn run_smt2(app: &AppProfile, policy: PolicyKind, uops_per_thread: u64) -> (u64, f64) {
    let mem_cfg = MemoryConfig {
        cores: 2,
        ..Default::default()
    };
    let mut mem = MemorySystem::new(mem_cfg);
    let mut contexts: Vec<ThreadContext> = Vec::new();
    for i in 0..2usize {
        let trace = PhasedWorkload::for_thread(app.phases().to_vec(), 42, i as u32);
        contexts.push((i, Box::new(trace), policy.build()));
    }
    let mut core = SmtCore::new(CoreConfig::skylake(), contexts);
    // Warm up, then measure, on one continuous clock.
    let mut now = 0u64;
    let warm = uops_per_thread / 4;
    while core
        .thread(0)
        .committed_uops()
        .min(core.thread(1).committed_uops())
        < warm
    {
        mem.tick(now);
        core.cycle(&mut mem, now);
        now += 1;
    }
    // reset_stats zeroes the committed-µop counters, so the measured
    // loop targets the per-thread budget directly.
    core.reset_stats();
    mem.reset_stats();
    let start = now;
    while core
        .thread(0)
        .committed_uops()
        .min(core.thread(1).committed_uops())
        < uops_per_thread
    {
        mem.tick(now);
        core.cycle(&mut mem, now);
        now += 1;
    }
    (now - start, core.topdown().sb_stall_ratio())
}

/// Runs the validation over the SB-bound subset.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    let apps = AppProfile::spec2017_sb_bound();
    let approx = ev.base().with_sb(28);
    let approx = ev.suites(
        &apps,
        &[
            approx.clone().with_policy(PolicyKind::AtCommit),
            approx.with_policy(PolicyKind::spb_default()),
        ],
    );
    let uops = ev.base().measure_uops / 2;
    let mut t = Table::new(
        "SMT validation — real SMT-2 vs the paper's single-thread SB28 approximation",
        &[
            "smt2 SB-stall %",
            "approx SB-stall %",
            "smt2 spb speedup",
            "approx spb speedup",
        ],
    );
    for (a, app) in apps.iter().enumerate() {
        let (smt_ac, smt_stall) = run_smt2(app, PolicyKind::AtCommit, uops);
        let (smt_spb, _) = run_smt2(app, PolicyKind::spb_default(), uops);
        let (approx_ac, approx_spb) = (&approx[0].runs[a], &approx[1].runs[a]);
        t.push_row(
            app.name(),
            &[
                smt_stall * 100.0,
                approx_ac.sb_stall_ratio() * 100.0,
                smt_ac as f64 / smt_spb as f64,
                approx_ac.cycles as f64 / approx_spb.cycles as f64,
            ],
        );
    }
    t.set_precision(2);
    vec![t]
}
