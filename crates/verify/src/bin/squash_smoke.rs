//! Squash-storm smoke: the CI gate for the wrong-path speculation
//! model.
//!
//! Four checks, sized well under a minute in release:
//!
//! 1. **Sweep**: squash rates 0 / 0.05 / 0.2 × {at-execute, spb,
//!    at-commit} on a SPEC and a PARSEC app, under both kernels.
//!    Every cell must complete with zero invariant violations (a
//!    coherence-checker trip fails the run itself) and the tick and
//!    skip-ahead kernels must agree bit-for-bit on every counter — including the
//!    new speculative-waste ones.
//! 2. **Leak oracle**: every cell's waste accounting must satisfy
//!    `spb_verify::leak::check_run` — conservation for at-execute, the
//!    page-span bound for SPB, silence for at-commit and for rate 0.
//! 3. **Golden grid**: the 10 quick-grid cells of x264 re-run with an
//!    *explicit* rate-0 squash config must reproduce the committed
//!    `results/sweep-grid-quick.json` records byte-for-byte under
//!    every kernel (`wall_ms`, host time, zeroed on both sides).
//! 4. **Fuzz**: 32 interleaving-fuzzer seeds with squash steps enabled
//!    (speculative RFO runs, burst enqueues, mid-drain squashes) run
//!    green, and the seeded forget-to-untag mutation is still caught —
//!    proving the speculative-leak checker can actually fail.

use spb_sim::config::{KernelMode, PolicyKind};
use spb_sim::sweep::{SweepRecord, SweepReport};
use spb_sim::{SimConfig, Simulation};
use spb_trace::profile::AppProfile;
use spb_trace::SquashConfig;
use spb_verify::{check_run, run_one, run_seeds, FuzzConfig};

const KERNELS: [KernelMode; 2] = [KernelMode::Tick, KernelMode::Wheel];
const RATES: [f64; 3] = [0.0, 0.05, 0.2];

fn digest(r: &spb_sim::RunResult) -> String {
    format!(
        "{} {} {:?} {:?} {:?}",
        r.cycles, r.uops, r.cpu, r.mem, r.per_core
    )
}

fn main() {
    let t0 = std::time::Instant::now();
    let mut failures = 0usize;

    // 1 + 2: rate × policy × kernel sweep with kernel cross-check and
    // the leak oracle on every cell.
    let apps = [
        AppProfile::by_name("x264").expect("suite app"),
        AppProfile::by_name("dedup").expect("suite app"),
    ];
    let policies = [
        ("at-execute", PolicyKind::AtExecute),
        ("spb", PolicyKind::spb_default()),
        ("at-commit", PolicyKind::AtCommit),
    ];
    println!(
        "{:<8} {:<10} {:>5} {:>9} {:>11} {:>9} {:>8}",
        "app", "policy", "rate", "episodes", "wasted-rfos", "leaked-m", "dropped"
    );
    for app in &apps {
        let mut base = SimConfig::quick().with_sb(14);
        if app.threads() > 1 {
            base.warmup_uops = 10_000;
            base.measure_uops = 80_000;
        }
        for (label, policy) in policies {
            for rate in RATES {
                let spec = format!("rate={rate},depth=8..32,storm=4,seed=11");
                let cfg = base
                    .clone()
                    .with_policy(policy)
                    .with_squash(SquashConfig::parse(&spec).expect("smoke squash spec"));
                let mut first: Option<(String, spb_sim::RunResult)> = None;
                for kernel in KERNELS {
                    let run = match Simulation::with_config(app, &cfg.clone().with_kernel(kernel))
                        .run()
                    {
                        Ok(r) => r,
                        Err(e) => {
                            failures += 1;
                            eprintln!(
                                "FAILED {} {label} rate={rate} {}: {e}",
                                app.name(),
                                kernel.label()
                            );
                            continue;
                        }
                    };
                    let d = digest(&run);
                    match &first {
                        None => {
                            if let Err(e) = check_run(&cfg, &run) {
                                failures += 1;
                                eprintln!("FAILED {} {label} rate={rate}: {e}", app.name());
                            }
                            println!(
                                "{:<8} {:<10} {:>5} {:>9} {:>11} {:>9} {:>8}",
                                app.name(),
                                label,
                                rate,
                                run.cpu.squash_episodes,
                                run.mem.spec_wasted_rfos,
                                run.mem.spec_leaked_m_blocks,
                                run.mem.spec_dropped,
                            );
                            first = Some((d, run));
                        }
                        Some((reference, _)) => {
                            if d != *reference {
                                failures += 1;
                                eprintln!(
                                    "FAILED {} {label} rate={rate}: {} kernel diverged from tick",
                                    app.name(),
                                    kernel.label()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // 3: rate-0 golden-grid byte identity (x264's 10 cells, every kernel).
    let golden_path = format!(
        "{}/results/sweep-grid-quick.json",
        std::env::current_dir().unwrap().display()
    );
    let gold = SweepReport::parse(&std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        eprintln!("squash_smoke: reading {golden_path}: {e}");
        std::process::exit(1);
    }))
    .expect("golden report parses");
    let zero = SquashConfig::parse("rate=0,seed=9").expect("rate-0 spec");
    let app = AppProfile::by_name("x264").expect("suite app");
    let mut grid_cells = 0usize;
    let mut configs = vec![SimConfig::quick().with_policy(PolicyKind::IdealSb)];
    for (_, policy) in policies {
        for sb in [14usize, 28, 56] {
            configs.push(SimConfig::quick().with_sb(sb).with_policy(policy));
        }
    }
    for kernel in KERNELS {
        for cfg in &configs {
            let cfg = cfg.clone().with_squash(zero).with_kernel(kernel);
            let run = Simulation::with_config(&app, &cfg).run_or_panic();
            let mut fresh = SweepRecord::from_run(&run);
            let Some(g) = gold
                .records
                .iter()
                .find(|g| g.app == fresh.app && g.policy == fresh.policy && g.sb == fresh.sb)
            else {
                failures += 1;
                eprintln!(
                    "FAILED golden: {} {} sb={} missing",
                    fresh.app, fresh.policy, fresh.sb
                );
                continue;
            };
            let mut g = g.clone();
            fresh.wall_ms = 0.0;
            g.wall_ms = 0.0;
            grid_cells += 1;
            if format!("{:#}", fresh.to_json()) != format!("{:#}", g.to_json()) {
                failures += 1;
                eprintln!(
                    "FAILED golden: {} {} sb={} not byte-identical under {}",
                    g.app,
                    g.policy,
                    g.sb,
                    kernel.label()
                );
            }
        }
    }
    println!("golden grid: {grid_cells} rate-0 cells checked against the committed records");

    // 4: fuzz with squash steps + the speculative-leak negative control.
    let fuzz = FuzzConfig {
        seed: 50_000,
        steps: 192,
        squash: true,
        ..FuzzConfig::default()
    };
    match run_seeds(&fuzz, 32) {
        Ok(stats) => println!(
            "fuzz: 32 squash seeds, {} steps, {} spec prefetches, {} squashes, 0 violations",
            stats.steps, stats.spec_prefetches, stats.squashes
        ),
        Err(f) => {
            failures += 1;
            eprintln!("FAILED fuzz: {f}");
        }
    }
    let control = FuzzConfig {
        seed: 11,
        steps: 1024,
        squash: true,
        spec_mutate_at: Some(64),
        ..FuzzConfig::default()
    };
    match run_one(&control) {
        Err(f) if f.violation.contains("speculative-leak") => {
            println!(
                "negative control: forget-to-untag mutation caught at step {}",
                f.step
            );
        }
        Err(f) => {
            failures += 1;
            eprintln!("FAILED control: wrong violation kind: {}", f.violation);
        }
        Ok(_) => {
            failures += 1;
            eprintln!("FAILED control: the forget-to-untag mutation went unnoticed");
        }
    }

    println!("squash_smoke: {:.1}s", t0.elapsed().as_secs_f64());
    if failures > 0 {
        eprintln!("squash_smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("squash_smoke: OK");
}
