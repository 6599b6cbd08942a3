//! The differential oracles and the interleaving fuzzer over a spot
//! check of the catalog, and the negative control that proves the
//! invariant checker can fail.
//!
//! The spot check runs one SPEC and one PARSEC app under baseline, SPB
//! and ideal-RFO at SB 14 and 56 against the executable oracles, then
//! 22 clean and 10 fault-injected fuzzing seeds with the invariant
//! checker after every step; then a schedule with the test-only "lost
//! directory owner" mutation armed at step 64 must be caught and
//! minimized. The ignored
//! `whole_catalog_agrees_with_the_oracles_and_256_fuzz_seeds_run_clean`
//! runs the acceptance budget: every app of both suites and 256 seeds
//! (`cargo test -p spb-verify --release --test oracle_spot_check -- --ignored`).

use spb_sim::{PolicyKind, SimConfig};
use spb_trace::profile::{AppCatalog, AppProfile};
use spb_verify::{check_app, minimize, run_one, run_seeds, FuzzConfig};

/// Diffs every app under three policies at SB 14 and 56 against the
/// oracles and fails with every mismatch.
fn check_cells(apps: &[AppProfile]) {
    let mut failures = Vec::new();
    for app in apps {
        let mut base = SimConfig::quick();
        if app.threads() > 1 {
            // PARSEC runs 8 cores in lock-step; shrink the per-core
            // window to keep the whole-catalog sweep tractable.
            base.warmup_uops = 10_000;
            base.measure_uops = 80_000;
        }
        for policy in [
            PolicyKind::AtCommit,
            PolicyKind::spb_default(),
            PolicyKind::IdealSb,
        ] {
            for sb in [14usize, 56] {
                if let Err(f) = check_app(app, &base.clone().with_sb(sb).with_policy(policy)) {
                    failures.push(f.to_string());
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Runs `count` 2 048-step fuzzing schedules from `seed` at the given
/// fault rate (in 1/10 000; 0 = clean).
fn fuzz(seed: u64, count: u64, fault_rate_e4: u32) {
    let cfg = FuzzConfig {
        seed,
        steps: 2_048,
        fault_rate_e4,
        ..FuzzConfig::default()
    };
    if let Err(f) = run_seeds(&cfg, count) {
        panic!("{f}");
    }
}

fn app(name: &str) -> AppProfile {
    AppProfile::by_name(name).unwrap()
}

#[test]
fn x264_agrees_with_the_oracles() {
    check_cells(&[app("x264")]);
}

#[test]
fn dedup_agrees_with_the_oracles() {
    check_cells(&[app("dedup")]);
}

#[test]
fn clean_fuzz_seeds_run_clean() {
    fuzz(1, 22, 0);
}

#[test]
fn fault_injected_fuzz_seeds_run_clean() {
    fuzz(10_001, 10, 250);
}

#[test]
fn the_lost_owner_mutation_at_step_64_is_caught() {
    let cfg = FuzzConfig {
        seed: 3,
        steps: 1_024,
        mutate_at: Some(64),
        ..FuzzConfig::default()
    };
    let failure = run_one(&cfg).expect_err(
        "the seeded lost-owner mutation went undetected: the invariant checker is blind",
    );
    let minimized = minimize(&failure);
    assert!(minimized
        .minimized_steps
        .is_some_and(|n| n <= failure.step + 1));
}

#[test]
#[ignore = "the whole catalog: 204 cells and 256 fuzz seeds"]
fn whole_catalog_agrees_with_the_oracles_and_256_fuzz_seeds_run_clean() {
    check_cells(AppCatalog::standard().all());
    fuzz(1, 171, 0);
    fuzz(10_001, 85, 250);
}
