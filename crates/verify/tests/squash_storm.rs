//! Squash storms: the wrong-path speculation model under load.
//!
//! Squash rates 0 / 0.05 / 0.2 × {at-execute, spb, at-commit} on a SPEC
//! and a PARSEC app (one test per app and policy, so they run in
//! parallel), under the tick and the skip-ahead kernels. Every cell
//! must complete with zero invariant violations (a coherence-checker
//! trip fails the run itself), the two kernels must agree bit for bit
//! on every counter, the speculative-waste ones included, and the
//! cell's waste accounting must satisfy the leak oracle
//! [`spb_verify::check_run`]. A batch of
//! interleaving-fuzzer seeds with squash steps enabled must run green.
//!
//! The rate-0 golden-grid identity and the forget-to-untag negative
//! control are `metamorphic::squash_rate_zero_reproduces_the_golden_grid_byte_for_byte`
//! and `fuzz::tests::the_forget_untag_mutation_is_caught_and_replayable`.

use spb_sim::{KernelMode, PolicyKind, RunResult, SimConfig, Simulation};
use spb_trace::profile::AppProfile;
use spb_trace::SquashConfig;
use spb_verify::{check_run, run_seeds, FuzzConfig};

fn digest(r: &RunResult) -> String {
    format!(
        "{} {} {:?} {:?} {:?}",
        r.cycles, r.uops, r.cpu, r.mem, r.per_core
    )
}

/// One app under one policy at every squash rate.
fn storm(app_name: &str, policy: PolicyKind) {
    let app = AppProfile::by_name(app_name).unwrap();
    let mut base = SimConfig::quick().with_sb(14).with_policy(policy);
    if app.threads() > 1 {
        base.warmup_uops = 10_000;
        base.measure_uops = 80_000;
    }
    for rate in [0.0, 0.05, 0.2] {
        let spec = format!("rate={rate},depth=8..32,storm=4,seed=11");
        let cfg = base
            .clone()
            .with_squash(SquashConfig::parse(&spec).unwrap());
        let cell = format!("{app_name} {} rate={rate}", policy.label());
        let run = |kernel: KernelMode| {
            Simulation::with_config(&app, &cfg.clone().with_kernel(kernel))
                .run()
                .unwrap_or_else(|e| panic!("{cell} {}: {e}", kernel.label()))
        };
        let tick = run(KernelMode::Tick);
        if let Err(e) = check_run(&cfg, &tick) {
            panic!("{cell}: {e}");
        }
        assert_eq!(
            digest(&run(KernelMode::Wheel)),
            digest(&tick),
            "{cell}: the skip-ahead kernel diverged from tick"
        );
    }
}

#[test]
fn x264_at_execute_squash_storm() {
    storm("x264", PolicyKind::AtExecute);
}

#[test]
fn x264_spb_squash_storm() {
    storm("x264", PolicyKind::spb_default());
}

#[test]
fn x264_at_commit_squash_storm() {
    storm("x264", PolicyKind::AtCommit);
}

#[test]
fn dedup_at_execute_squash_storm() {
    storm("dedup", PolicyKind::AtExecute);
}

#[test]
fn dedup_spb_squash_storm() {
    storm("dedup", PolicyKind::spb_default());
}

#[test]
fn dedup_at_commit_squash_storm() {
    storm("dedup", PolicyKind::AtCommit);
}

#[test]
fn squash_fuzz_seeds_run_clean() {
    let fuzz = FuzzConfig {
        seed: 50_000,
        steps: 192,
        squash: true,
        ..FuzzConfig::default()
    };
    if let Err(f) = run_seeds(&fuzz, 32) {
        panic!("{f}");
    }
}
