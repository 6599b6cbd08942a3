//! Verification smoke: the differential-oracle suite plus an
//! interleaving-fuzzer batch, sized for CI.
//!
//! Default budget (the CI gate, well under two minutes in release):
//! one SPEC and one PARSEC application, each under baseline / SPB /
//! ideal-RFO at SB 14 and 56, diffed against the executable oracles;
//! then 32 fuzzing seeds with the invariant checker after every step;
//! then a *negative* control — a schedule with the test-only
//! "lost directory owner" mutation armed must be caught and minimized,
//! proving the checker can actually fail.
//!
//! `--full` runs the acceptance budget instead: every application in
//! the catalog (both suites) under all three policies at both SB
//! points, and 256 fuzzing seeds (a third of them fault-injected).
//! Any mismatch, violation, or missed mutation exits non-zero with the
//! offending diagnostic and a replay command.

use spb_sim::config::PolicyKind;
use spb_sim::SimConfig;
use spb_trace::profile::{AppCatalog, AppProfile};
use spb_verify::{check_app, minimize, run_one, run_seeds, FuzzConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a != "--full") {
        eprintln!("usage: verify_smoke [--full]");
        std::process::exit(2);
    }
    let full = !args.is_empty();
    let t0 = std::time::Instant::now();

    let apps: Vec<AppProfile> = if full {
        AppCatalog::standard().all().to_vec()
    } else {
        ["x264", "dedup"]
            .iter()
            .map(|n| AppProfile::by_name(n).expect("suite app"))
            .collect()
    };
    let policies = [
        PolicyKind::AtCommit,
        PolicyKind::spb_default(),
        PolicyKind::IdealSb,
    ];

    let mut failures = 0usize;
    let mut cells = 0usize;
    println!(
        "{:<12} {:<10} {:>4} {:>12} {:>7} {:>10} {:>8}",
        "app", "policy", "sb", "cycles", "ipc", "drains", "blocks"
    );
    for app in &apps {
        let mut base = SimConfig::quick();
        if app.threads() > 1 {
            // PARSEC runs 8 cores in lock-step; shrink the per-core
            // window to keep the whole-catalog sweep tractable.
            base.warmup_uops = 10_000;
            base.measure_uops = 80_000;
        }
        for policy in policies {
            for sb in [14usize, 56] {
                let cfg = base.clone().with_sb(sb).with_policy(policy);
                cells += 1;
                match check_app(app, &cfg) {
                    Ok(out) => println!(
                        "{:<12} {:<10} {:>4} {:>12} {:>7.3} {:>10} {:>8}",
                        out.run.app,
                        out.run.policy,
                        sb,
                        out.run.cycles,
                        out.run.ipc(),
                        out.drains,
                        out.blocks
                    ),
                    Err(f) => {
                        failures += 1;
                        eprintln!("FAILED {f}");
                    }
                }
            }
        }
    }
    println!(
        "differential: {}/{} cells agree with the oracles ({:.1}s)",
        cells - failures,
        cells,
        t0.elapsed().as_secs_f64()
    );

    // Fuzzing: clean seeds, then fault-injected seeds.
    let seeds: u64 = if full { 256 } else { 32 };
    let clean = seeds - seeds / 3;
    let faulty = seeds / 3;
    let base = FuzzConfig {
        seed: 1,
        steps: 2_048,
        ..FuzzConfig::default()
    };
    match run_seeds(&base, clean) {
        Ok(s) => println!(
            "fuzz: {clean} clean seeds, {} steps, {} loads / {} drains / {} prefetches / {} bursts / {} wheel wakeups, 0 violations",
            s.steps, s.loads, s.drains, s.prefetches, s.bursts, s.wakeups
        ),
        Err(f) => {
            failures += 1;
            eprintln!("FAILED fuzz (clean): {f}");
        }
    }
    let faulted = FuzzConfig {
        seed: 10_001,
        fault_rate_e4: 250,
        ..base
    };
    match run_seeds(&faulted, faulty) {
        Ok(s) => println!(
            "fuzz: {faulty} fault-injected seeds (rate 2.5%), {} steps, 0 violations",
            s.steps
        ),
        Err(f) => {
            failures += 1;
            eprintln!("FAILED fuzz (faulty): {f}");
        }
    }

    // Negative control: an armed protocol mutation MUST be caught.
    let mutated = FuzzConfig {
        seed: 3,
        steps: 1_024,
        mutate_at: Some(64),
        ..FuzzConfig::default()
    };
    match run_one(&mutated) {
        Err(f) => {
            let m = minimize(&f);
            println!(
                "mutation control: lost-owner bug caught at step {} ({}), minimized to {} steps",
                f.step,
                f.violation.split('\n').next().unwrap_or(""),
                m.minimized_steps.unwrap_or(f.step + 1)
            );
        }
        Ok(_) => {
            failures += 1;
            eprintln!(
                "FAILED mutation control: the seeded lost-owner mutation was NOT detected — \
                 the invariant checker is blind"
            );
        }
    }

    if failures > 0 {
        eprintln!("verify smoke: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!(
        "verify smoke: all checks green in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
