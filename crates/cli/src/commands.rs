//! Command execution for `spbsim`.

use crate::{find_app, CliError, ClientAction, Command, RunOpts, TuneCmd, VerifyCmd};
use spb_sim::config::SimConfig;
use spb_sim::suite::SuiteResult;
use spb_sim::sweep::{run_cells_supervised, Supervision, SweepRecord, SweepReport};
use spb_stats::json::Json;
use spb_stats::{chart, Table};
use spb_trace::file::{record, TraceReader};
use spb_trace::profile::{AppCatalog, Suite};
use spb_trace::{OpKind, TraceSource};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

/// Executes a parsed command; returns the process exit code.
pub fn execute(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            print!("{}", crate::USAGE);
            Ok(())
        }
        Command::Apps => apps(),
        Command::Run { app, cfg, chart } => run(&app, &cfg, chart),
        Command::Suite { suite, cfg } => suite_cmd(&suite, &cfg),
        Command::Record {
            app,
            ops,
            out,
            seed,
        } => record_cmd(&app, ops, &out, seed),
        Command::TraceInfo { path } => trace_info(&path),
        Command::Replay { trace, cfg } => replay(&trace, &cfg),
        Command::Sweep {
            app,
            sbs,
            policies,
            cfg,
            chart,
            resume,
            retry,
        } => sweep(&app, &sbs, &policies, &cfg, chart, resume, retry),
        Command::Trace { app, cfg, out } => trace_cmd(&app, &cfg, &out),
        Command::Experiment { name, quick } => experiment(&name, quick),
        Command::Verify(v) => verify(v),
        Command::Serve {
            addr,
            dir,
            jobs,
            queue,
            retry,
            deadline_ms,
        } => serve_cmd(&addr, &dir, jobs, queue, retry, deadline_ms),
        Command::Client { addr, action } => client_cmd(&addr, action),
        Command::Tune(o) => tune_cmd(&o),
    }
}

/// Resolves the `--apps` spelling of `spbsim tune`.
///
/// Cache entries are keyed by app *name*, and `x264` exists in both
/// suites, so every spelling resolves to the same profile `by_name`
/// would pick (SPEC first) — the tuner must never write a cell under a
/// name that a later name-resolved lookup would read as a different
/// profile.
fn resolve_tune_apps(spec: &str) -> Result<Vec<spb_trace::profile::AppProfile>, CliError> {
    let catalog = AppCatalog::standard();
    match spec {
        "sb-bound" => Ok(catalog.sb_bound(Suite::Spec2017)),
        "spec" => Ok(catalog.suite(Suite::Spec2017)),
        list => list.split(',').map(find_app).collect(),
    }
}

/// `spbsim tune`: explore the policy design space through the
/// content-addressed cell cache and report the Pareto frontier.
fn tune_cmd(o: &TuneCmd) -> Result<(), CliError> {
    let apps = resolve_tune_apps(&o.apps)?;
    if apps.is_empty() {
        return Err(CliError(format!("--apps {:?} matches no applications", o.apps)));
    }
    let budget = spb_serve::Budget::parse(&o.budget).map_err(CliError)?;
    let mut base_cfg = budget.sim_config();
    if let Some(w) = o.warmup {
        base_cfg.warmup_uops = w;
    }
    if let Some(u) = o.uops {
        base_cfg.measure_uops = u;
    }
    let mut space = spb_tune::TuneSpace::default();
    if let Some(sbs) = &o.sbs {
        space.sb = sbs.clone();
    }
    let sweep = match o.jobs {
        Some(n) => spb_sim::sweep::SweepOptions::with_jobs(n),
        None => spb_sim::sweep::SweepOptions::from_env(),
    };
    let opts = spb_tune::TuneOptions {
        strategy: o.strategy,
        seed: o.seed,
        points: o.points,
        space,
        base_cfg: base_cfg.clone(),
        apps: apps.clone(),
        sweep,
        supervision: Supervision::with_retries(o.retry),
    };
    let cache = spb_serve::ResultCache::open(&o.cache)?;
    let outcome = spb_tune::run_tune(&opts, &cache);
    let stats = outcome.stats;
    let name = o
        .name
        .clone()
        .unwrap_or_else(|| format!("tune-{}-s{}-p{}", o.strategy.label(), o.seed, o.points));
    let report = spb_tune::TuneReport {
        name,
        strategy: o.strategy.label().into(),
        seed: o.seed,
        points_requested: o.points,
        warmup_uops: base_cfg.warmup_uops,
        measure_uops: base_cfg.measure_uops,
        workload_seed: base_cfg.seed,
        apps: apps.iter().map(|a| a.name().to_string()).collect(),
        outcome,
    };
    print!("{}", report.to_text());
    // Cache traffic goes to the terminal only — the saved report must
    // stay byte-identical between a cold and a fully cached run.
    println!("cache: {} hit(s), {} computed", stats.cache_hits, stats.computed);
    match report.save(std::path::Path::new(&o.out)) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write tune report: {e}"),
    }
    if report.outcome.points.is_empty() {
        return Err(CliError(format!(
            "no point evaluated successfully ({} failed)",
            report.outcome.failed.len()
        )));
    }
    Ok(())
}

/// `spbsim serve`: run the fault-tolerant sweep service until a client
/// sends `shutdown`. Prints `serving on HOST:PORT` once the socket is
/// bound (the smoke gate parses this line to find an ephemeral port).
fn serve_cmd(
    addr: &str,
    dir: &str,
    jobs: Option<usize>,
    queue: usize,
    retry: u32,
    deadline_ms: Option<u64>,
) -> Result<(), CliError> {
    let mut cfg = spb_serve::ServeConfig::at(dir);
    cfg.addr = addr.to_string();
    if let Some(j) = jobs {
        cfg.jobs = j.max(1);
    }
    cfg.queue_limit = queue;
    cfg.retry = retry;
    if deadline_ms.is_some() {
        cfg.deadline_ms = deadline_ms;
    }
    let server = spb_serve::Server::bind(cfg).map_err(|e| CliError(format!("serve: {e}")))?;
    let recovered = server.stats().get("jobs_recovered");
    if recovered > 0 {
        println!("recovered {recovered} journaled job(s); running them before new work");
    }
    let corrupt = server.stats().get("journal_corrupt_lines");
    if corrupt > 0 {
        println!("quarantined {corrupt} corrupt journal line(s) to {dir}/journal.waj.corrupt");
    }
    println!("serving on {}", server.addr()?);
    std::io::stdout().flush()?;
    server.serve()?;
    println!("server stopped");
    Ok(())
}

/// `spbsim client …`: one-shot requests against a running service.
fn client_cmd(addr: &str, action: ClientAction) -> Result<(), CliError> {
    match action {
        ClientAction::Health => {
            let health = spb_serve::client::health(addr).map_err(CliError)?;
            println!("{health:#}");
        }
        ClientAction::Shutdown => {
            spb_serve::client::shutdown(addr).map_err(CliError)?;
            println!("server at {addr} is shutting down");
        }
        ClientAction::Sweep { job, out } => {
            let cells = job.cells.len();
            eprintln!("submitting {:?} ({cells} cells) to {addr}", job.name);
            let reply = spb_serve::client::submit(addr, &job).map_err(CliError)?;
            let stats = reply.get("stats").cloned().unwrap_or(Json::Null);
            println!("{} done: {stats}", job.name);
            if let Some(path) = out {
                let report = reply
                    .get("report")
                    .ok_or_else(|| CliError("reply missing the report".into()))?;
                std::fs::write(&path, format!("{report:#}\n"))?;
                println!("wrote {path}");
            }
            let failed = stats.get("failed").and_then(Json::as_u64).unwrap_or(0);
            if failed > 0 {
                return Err(CliError(format!(
                    "{failed} cell(s) failed; see the report's failed array"
                )));
            }
        }
    }
    Ok(())
}

/// `spbsim verify fuzz` / `spbsim verify oracle`.
fn verify(cmd: VerifyCmd) -> Result<(), CliError> {
    match cmd {
        VerifyCmd::Fuzz { config, count } => match spb_verify::run_seeds(&config, count) {
            Ok(s) => {
                println!(
                    "fuzz: {count} seed(s) from {} clean — {} steps, {} loads, {} drains, \
                     {} prefetches, {} bursts, {} cycles, 0 violations",
                    config.seed, s.steps, s.loads, s.drains, s.prefetches, s.bursts, s.cycles
                );
                Ok(())
            }
            Err(f) => Err(CliError(format!("{f}"))),
        },
        VerifyCmd::Oracle { app, cfg } => {
            let profile = find_app(&app)?;
            let sim_cfg = cfg.to_sim_config();
            match spb_verify::check_app(&profile, &sim_cfg) {
                Ok(out) => {
                    let totals = out.oracle.measured_totals();
                    println!(
                        "oracle: {} / {} / sb={} agrees — {} µops ({} stores, {} loads, \
                         {} branches) exactly as replayed, {} drains over {} blocks within \
                         bounds, cycles {} ≥ lower bound {}",
                        out.run.app,
                        out.run.policy,
                        out.run.sb_entries,
                        out.run.uops,
                        totals.stores,
                        totals.loads,
                        totals.branches,
                        out.drains,
                        out.blocks,
                        out.run.cycles,
                        out.oracle.min_cycles,
                    );
                    Ok(())
                }
                Err(f) => Err(CliError(format!("{f}"))),
            }
        }
    }
}

fn sweep(
    app: &str,
    sbs: &[usize],
    policies: &[spb_sim::PolicyKind],
    opts: &RunOpts,
    with_chart: bool,
    resume: bool,
    retry: u32,
) -> Result<(), CliError> {
    let profile = find_app(app)?;
    let name = format!("sweep-{app}");

    // With --resume, reload the prior (possibly partial) report; its
    // completed cells are reused verbatim and only the rest re-run.
    let prior = if resume {
        let path = std::path::Path::new("results").join(format!("{name}.json"));
        match std::fs::read_to_string(&path) {
            Ok(text) => Some(
                SweepReport::parse(&text)
                    .map_err(|e| CliError(format!("cannot resume from {}: {e}", path.display())))?,
            ),
            Err(e) => {
                eprintln!(
                    "note: no prior report at {} ({e}); running the full sweep",
                    path.display()
                );
                None
            }
        }
    } else {
        None
    };

    // Flatten the sb × policy grid into one cell list (SB-major, policy
    // minor) so the worker pool covers the whole sweep at once.
    let grid: Vec<SimConfig> = sbs
        .iter()
        .flat_map(|&sb| {
            policies.iter().map(move |&policy| {
                let mut cfg = opts.to_sim_config().with_sb(sb);
                cfg.policy = policy;
                cfg
            })
        })
        .collect();
    let todo: Vec<SimConfig> = grid
        .iter()
        .filter(|c| {
            prior
                .as_ref()
                .is_none_or(|p| !p.has_record(app, &c.policy.label(), c.effective_sb()))
        })
        .cloned()
        .collect();
    if prior.is_some() {
        eprintln!(
            "resuming {name}: {} of {} cells already done",
            grid.len() - todo.len(),
            grid.len()
        );
    }
    let cells: Vec<_> = todo.iter().map(|c| (&profile, c.clone())).collect();
    // With --retry N, transiently failing cells (panics, deadline
    // overruns) re-run up to N total attempts with deterministic
    // backoff; invariant violations still fail fast. The attempt count
    // lands in each failure record. retry == 1 is the old single-shot
    // behavior.
    let results: Vec<_> = run_cells_supervised(
        &cells,
        &opts.sweep_options().progress(true),
        &Supervision::with_retries(retry),
    )
    .into_iter()
    .map(|(outcome, _attempts)| outcome)
    .collect();

    // Merge reused and fresh cells back into grid order. `todo`
    // preserves grid order, so one forward iterator pairs each missing
    // cell with its result.
    let mut new_it = results.iter();
    let mut records: Vec<SweepRecord> = Vec::new();
    let mut failed = Vec::new();
    let mut fresh_runs = Vec::new();
    for c in &grid {
        let policy = c.policy.label();
        let sb = c.effective_sb();
        let reused = prior.as_ref().and_then(|p| {
            p.records
                .iter()
                .find(|r| r.app == app && r.policy == policy && r.sb == sb)
        });
        if let Some(r) = reused {
            records.push(r.clone());
        } else {
            match new_it.next().expect("one result per missing cell") {
                Ok(run) => {
                    records.push(SweepRecord::from_run(run));
                    fresh_runs.push(run);
                }
                Err(f) => failed.push(f.clone()),
            }
        }
    }

    if fresh_runs.len() == grid.len() {
        // A complete fresh sweep: the detailed tables need the full
        // RunResult stats, which reused records no longer carry.
        let labels: Vec<String> = policies.iter().map(|p| p.label()).collect();
        let cols: Vec<&str> = labels.iter().map(String::as_str).collect();
        let mut cycles_t = Table::new(format!("{app} — cycles"), &cols);
        let mut stall_t = Table::new(format!("{app} — SB-stall %"), &cols);
        for (i, &sb) in sbs.iter().enumerate() {
            let row = &fresh_runs[i * policies.len()..(i + 1) * policies.len()];
            cycles_t.push_row(
                format!("SB{sb}"),
                &row.iter().map(|r| r.cycles as f64).collect::<Vec<_>>(),
            );
            stall_t.push_row(
                format!("SB{sb}"),
                &row.iter()
                    .map(|r| r.sb_stall_ratio() * 100.0)
                    .collect::<Vec<_>>(),
            );
        }
        cycles_t.set_precision(0);
        stall_t.set_precision(1);
        println!("{cycles_t}");
        println!("{stall_t}");
        if with_chart {
            print!("{}", chart::render_all(&stall_t, None));
        }
    } else {
        // Resumed or partially failed: summarize from the records.
        for r in &records {
            println!(
                "{} {} sb={}: {} cycles, ipc {:.3}",
                r.app, r.policy, r.sb, r.cycles, r.ipc
            );
        }
    }

    let mut reg = spb_obs::MetricsRegistry::new();
    let total_wall: f64 = records.iter().map(|r| r.wall_ms).sum();
    reg.component("sweep")
        .counter("cells", grid.len() as u64)
        .counter("fresh", fresh_runs.len() as u64)
        .counter("failures", failed.len() as u64)
        .gauge("wall_ms", total_wall)
        .gauge("jobs", opts.sweep_options().jobs as f64);
    let report = SweepReport {
        name,
        records,
        failed: failed.clone(),
        metrics: Some(reg.to_json()),
    };
    save_report(&report);
    if !failed.is_empty() {
        return Err(CliError(format!(
            "{} of {} cell(s) failed (the rest are saved; re-run with --resume to retry):\n  {}",
            failed.len(),
            grid.len(),
            failed
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n  ")
        )));
    }
    Ok(())
}

/// Writes a sweep report under `results/`, warning (not failing) if the
/// directory is unwritable.
fn save_report(report: &SweepReport) {
    match report.save(std::path::Path::new("results")) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write sweep report: {e}"),
    }
}

fn apps() -> Result<(), CliError> {
    let catalog = AppCatalog::standard();
    println!("SPEC CPU 2017 profiles:");
    for p in catalog.suite(Suite::Spec2017) {
        println!(
            "  {:<12} {}",
            p.name(),
            if p.is_sb_bound() { "SB-bound" } else { "" }
        );
    }
    println!("\nPARSEC profiles (8 threads):");
    for p in catalog.suite(Suite::Parsec) {
        println!(
            "  {:<14} {}",
            p.name(),
            if p.is_sb_bound() { "SB-bound" } else { "" }
        );
    }
    Ok(())
}

fn run(app: &str, opts: &RunOpts, with_chart: bool) -> Result<(), CliError> {
    let profile = find_app(app)?;
    let result = spb_sim::Simulation::with_config(&profile, &opts.to_sim_config()).run_or_panic();
    print!("{}", spb_sim::report::render(&result));
    println!(
        "EDP: {:.3e} nJ·cycles ({:.1} nJ over {} cycles)",
        result.energy.edp(result.cycles),
        result.energy.total_nj(),
        result.cycles
    );
    if with_chart {
        let mut t = Table::new("headline", &["value"]);
        t.push_row("IPC", &[result.ipc()]);
        t.push_row("SB-stall %", &[result.sb_stall_ratio() * 100.0]);
        let pf_ok: u64 = result.mem.prefetch_successful.iter().sum();
        let pf_all: u64 = result.mem.prefetch_requests.iter().sum();
        t.push_row(
            "pf success %",
            &[100.0 * pf_ok as f64 / pf_all.max(1) as f64],
        );
        if let Some(art) = chart::render_column(&t, "value", None) {
            println!("\n{art}");
        }
    }
    Ok(())
}

/// `spbsim trace`: re-run one application with the observability layer
/// attached and export a Chrome `trace_event` JSON plus a text summary.
/// Observation is read-only, so the simulated numbers are identical to
/// an untraced `spbsim run` at the same configuration.
fn trace_cmd(app: &str, opts: &RunOpts, out: &str) -> Result<(), CliError> {
    let profile = find_app(app)?;
    let collector = spb_obs::Collector::new();
    let result = spb_sim::Simulation::with_config(&profile, &opts.to_sim_config())
        .observe(collector.clone())
        .run_or_panic();
    let events = collector.take();
    let trace = spb_obs::chrome_trace(&events);
    std::fs::write(out, format!("{trace:#}"))?;
    println!(
        "{app} @ {} sb={}: {} cycles, ipc {:.3}",
        opts.policy.label(),
        opts.sb,
        result.cycles,
        result.ipc()
    );
    print!("{}", spb_obs::text_summary(&events));
    println!(
        "wrote {out} ({} events; open at chrome://tracing or ui.perfetto.dev)",
        events.len()
    );
    Ok(())
}

fn suite_cmd(suite: &str, opts: &RunOpts) -> Result<(), CliError> {
    let Some(apps) = AppCatalog::standard().suite_named(suite) else {
        return Err(CliError(format!(
            "unknown suite {suite:?} (expected spec | parsec)"
        )));
    };
    let results = SuiteResult::run_with(
        &apps,
        &opts.to_sim_config(),
        &opts.sweep_options().progress(true),
    );
    let mut t = Table::new(
        format!("{suite} suite — {} @ SB{}", opts.policy.label(), opts.sb),
        &["cycles", "IPC", "SB-stall %"],
    );
    for r in &results.runs {
        t.push_row(
            r.app.clone(),
            &[r.cycles as f64, r.ipc(), r.sb_stall_ratio() * 100.0],
        );
    }
    t.set_precision(2);
    println!("{t}");
    println!(
        "geomean IPC: all {:.3}, SB-bound {:.3}",
        results.geomean_all(|r| r.ipc()),
        results.geomean_sb_bound(|r| r.ipc())
    );
    save_report(&SweepReport::new(
        format!("suite-{suite}-{}-sb{}", opts.policy.label(), opts.sb),
        &results.runs,
    ));
    Ok(())
}

fn record_cmd(app: &str, ops: u64, out: &str, seed: u64) -> Result<(), CliError> {
    let profile = find_app(app)?;
    let mut source = profile.build(seed);
    let file = File::create(out)?;
    let n = record(&mut source, BufWriter::new(file), ops)?;
    println!("recorded {n} ops of {app} (seed {seed}) to {out}");
    Ok(())
}

fn trace_info(path: &str) -> Result<(), CliError> {
    let file = File::open(path)?;
    let mut reader = TraceReader::new(BufReader::new(file))
        .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    println!("{path}: {} ops", reader.len());
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut branches = 0u64;
    let mut alu = 0u64;
    let mut store_blocks = std::collections::BTreeSet::new();
    while let Some(op) = reader.next_op() {
        match op.kind() {
            OpKind::Load { .. } => loads += 1,
            OpKind::Store { .. } => {
                stores += 1;
                if let Some(b) = op.block() {
                    store_blocks.insert(b);
                }
            }
            OpKind::Branch { .. } => branches += 1,
            _ => alu += 1,
        }
    }
    let total = (loads + stores + branches + alu).max(1);
    println!(
        "  alu      {alu:>10} ({:>5.1}%)",
        100.0 * alu as f64 / total as f64
    );
    println!(
        "  loads    {loads:>10} ({:>5.1}%)",
        100.0 * loads as f64 / total as f64
    );
    println!(
        "  stores   {stores:>10} ({:>5.1}%)",
        100.0 * stores as f64 / total as f64
    );
    println!(
        "  branches {branches:>10} ({:>5.1}%)",
        100.0 * branches as f64 / total as f64
    );
    println!("  distinct store blocks: {}", store_blocks.len());
    Ok(())
}

fn replay(path: &str, opts: &RunOpts) -> Result<(), CliError> {
    use spb_cpu::core::Core;
    use spb_mem::MemorySystem;
    let file = File::open(path)?;
    let reader = TraceReader::new(BufReader::new(file))
        .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let cfg = opts.to_sim_config();
    let mut mem = MemorySystem::new(cfg.mem.clone());
    let mut core_cfg = cfg.core;
    if let Some(sb) = cfg.policy.sb_override() {
        core_cfg.sb_entries = sb;
    }
    let mut core = Core::new(0, core_cfg, Box::new(reader), cfg.policy.build());
    let mut now = 0u64;
    while !core.is_drained() {
        mem.tick(now);
        core.cycle(&mut mem, now);
        now += 1;
    }
    mem.finalize_stats();
    println!(
        "replayed {path}: {} µops in {now} cycles (IPC {:.3}, SB stalls {:.1}%)",
        core.committed_uops(),
        core.committed_uops() as f64 / now as f64,
        core.topdown().sb_stall_ratio() * 100.0
    );
    Ok(())
}

fn experiment(name: &str, quick: bool) -> Result<(), CliError> {
    use spb_experiments as exp;
    let budget = if quick {
        exp::Budget::Quick
    } else {
        exp::Budget::Paper
    };
    let Some(def) = exp::registry::find(name) else {
        return Err(CliError(format!(
            "unknown experiment {name:?}; known: {}",
            exp::registry::known_ids()
        )));
    };
    eprintln!("{}: {}", def.title, def.claim);
    exp::print_tables(&(def.run)(budget));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn apps_listing_runs() {
        assert!(execute(Command::Apps).is_ok());
    }

    #[test]
    fn record_info_replay_round_trip() {
        let dir = std::env::temp_dir().join("spbsim-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gcc.spbt");
        let path_str = path.to_str().unwrap();

        execute(
            parse([
                "record", "--app", "gcc", "--ops", "20000", "--out", path_str,
            ])
            .unwrap(),
        )
        .unwrap();
        execute(parse(["trace-info", path_str]).unwrap()).unwrap();
        execute(
            parse([
                "replay", "--trace", path_str, "--policy", "spb", "--sb", "14",
            ])
            .unwrap(),
        )
        .unwrap();
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_suite_is_an_error() {
        let err = execute(Command::Suite {
            suite: "nope".into(),
            cfg: RunOpts::default(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown suite"));
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let err = execute(Command::Experiment {
            name: "fig99".into(),
            quick: true,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
    }

    #[test]
    fn unknown_experiment_error_lists_valid_choices() {
        let err = execute(Command::Experiment {
            name: "fig99".into(),
            quick: true,
        })
        .unwrap_err();
        let msg = err.to_string();
        for id in ["fig05", "tab1", "variance"] {
            assert!(msg.contains(id), "error {msg:?} does not offer {id}");
        }
    }

    #[test]
    fn unknown_app_error_lists_valid_choices() {
        let err = execute(Command::Run {
            app: "quake".into(),
            cfg: RunOpts::default(),
            chart: false,
        })
        .unwrap_err();
        let msg = err.to_string();
        for name in ["x264", "bwaves", "dedup"] {
            assert!(msg.contains(name), "error {msg:?} does not offer {name}");
        }
        // Same for the verify oracle path.
        let err = execute(Command::Verify(VerifyCmd::Oracle {
            app: "quake".into(),
            cfg: RunOpts::default(),
        }))
        .unwrap_err();
        assert!(err.to_string().contains("x264"));
    }

    #[test]
    fn verify_fuzz_runs_a_clean_seed_and_reports_a_mutated_one() {
        let clean = spb_verify::FuzzConfig {
            seed: 5,
            steps: 256,
            ..spb_verify::FuzzConfig::default()
        };
        assert!(execute(Command::Verify(VerifyCmd::Fuzz {
            config: clean,
            count: 1,
        }))
        .is_ok());

        let mutated = spb_verify::FuzzConfig {
            mutate_at: Some(64),
            steps: 1_024,
            ..clean
        };
        let err = execute(Command::Verify(VerifyCmd::Fuzz {
            config: mutated,
            count: 1,
        }))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("replay: spbsim verify fuzz"), "{msg}");
        assert!(msg.contains("--mutate-at 64"), "{msg}");
    }
}
