//! Implementation of the `spbsim` command-line tool.
//!
//! Kept as a library so the argument parsing and command dispatch are
//! unit-testable; `main.rs` is a two-line shim. No external argument
//! parser: the surface is small and stable.
//!
//! ```text
//! spbsim apps
//! spbsim run --app x264 [--policy spb] [--sb 14] [--uops 300000] [--chart]
//! spbsim suite --suite spec [--policy spb] [--sb 14]
//! spbsim record --app x264 --ops 100000 --out x264.spbt
//! spbsim trace-info x264.spbt
//! spbsim replay --trace x264.spbt [--policy spb] [--sb 14]
//! spbsim trace --app x264 --policy spb --out trace.json
//! spbsim experiment fig05 [--quick]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spb_sim::config::{KernelMode, PolicyKind, SimConfig};
use spb_trace::profile::AppProfile;
use spb_trace::SquashConfig;
use std::fmt;

pub mod commands;

/// A fatal CLI error with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List every application profile.
    Apps,
    /// Run one application and print a report.
    Run {
        /// Application name.
        app: String,
        /// Run configuration.
        cfg: RunOpts,
        /// Also render bar charts of the headline numbers.
        chart: bool,
    },
    /// Run a whole suite and print a summary table.
    Suite {
        /// `spec` or `parsec`.
        suite: String,
        /// Run configuration.
        cfg: RunOpts,
    },
    /// Record an application's trace to a file.
    Record {
        /// Application name.
        app: String,
        /// Ops to record.
        ops: u64,
        /// Output path.
        out: String,
        /// Workload seed.
        seed: u64,
    },
    /// Print a trace file's header and op mix.
    TraceInfo {
        /// Trace path.
        path: String,
    },
    /// Replay a recorded trace through the simulator.
    Replay {
        /// Trace path.
        trace: String,
        /// Run configuration.
        cfg: RunOpts,
    },
    /// Sweep SB sizes × policies for one application.
    Sweep {
        /// Application name.
        app: String,
        /// SB sizes to sweep.
        sbs: Vec<usize>,
        /// Policies to sweep.
        policies: Vec<PolicyKind>,
        /// Base run configuration.
        cfg: RunOpts,
        /// Render bar charts.
        chart: bool,
        /// Reuse completed cells from the existing report under
        /// `results/`, re-running only missing or failed cells.
        resume: bool,
        /// Total attempts per cell (1 = fail on the first transient
        /// error, as before). Attempt counts are recorded in the
        /// report's failure records.
        retry: u32,
    },
    /// Run one application with event tracing on and export a Chrome
    /// `trace_event` JSON file plus a text summary.
    Trace {
        /// Application name.
        app: String,
        /// Run configuration.
        cfg: RunOpts,
        /// Output path for the Chrome trace JSON.
        out: String,
    },
    /// Regenerate a paper experiment by name.
    Experiment {
        /// Experiment name (fig01..fig18, tab1, sens_n, sb20, …).
        name: String,
        /// Use the quick budget.
        quick: bool,
    },
    /// Replay coherence-fuzzer schedules (`verify fuzz`) or diff one
    /// application against the executable oracles (`verify oracle`).
    Verify(VerifyCmd),
    /// Run the fault-tolerant sweep service (blocks until a client
    /// sends `shutdown`).
    Serve {
        /// Listen address (`host:port`; port 0 picks an ephemeral one).
        addr: String,
        /// State directory for the cache, journal and saved reports.
        dir: String,
        /// Worker threads per sweep (`None` = all cores).
        jobs: Option<usize>,
        /// Queued jobs beyond which submissions are shed.
        queue: usize,
        /// Default total attempts per cell.
        retry: u32,
        /// Per-attempt cell deadline in milliseconds (`None` = the
        /// server default of 5 minutes).
        deadline_ms: Option<u64>,
    },
    /// Talk to a running sweep service.
    Client {
        /// Server address (`host:port`).
        addr: String,
        /// What to ask the server.
        action: ClientAction,
    },
    /// Explore the parameterized policy design space and report the
    /// Pareto frontier (cycles × energy × coherence traffic).
    Tune(TuneCmd),
    /// Re-time the quick benchmark grid and print the geometric-mean
    /// speedup against a committed `spb-bench-v1` snapshot.
    Bench {
        /// Baseline snapshot path (e.g. `BENCH_PR9.json`).
        baseline: String,
        /// Execution kernel to time.
        kernel: KernelMode,
        /// Timed samples per cell.
        samples: usize,
    },
    /// Print usage.
    Help,
}

/// Options for `spbsim tune`.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneCmd {
    /// Candidate-selection strategy.
    pub strategy: spb_tune::Strategy,
    /// Sampling seed.
    pub seed: u64,
    /// Candidate points (0 = the whole space).
    pub points: usize,
    /// App-set spelling: `sb-bound` (the paper's SPEC SB-bound set),
    /// `spec`, or a comma list of names.
    pub apps: String,
    /// SB-size override for the space (default 14, 28, 56).
    pub sbs: Option<Vec<usize>>,
    /// Per-cell budget: `quick` or `paper`.
    pub budget: String,
    /// Warm-up override (µops).
    pub warmup: Option<u64>,
    /// Measured-µops override.
    pub uops: Option<u64>,
    /// Content-addressed cell-cache directory.
    pub cache: String,
    /// Report output directory.
    pub out: String,
    /// Report name (default `tune-{strategy}-s{seed}-p{points}`).
    pub name: Option<String>,
    /// Worker threads for cache misses.
    pub jobs: Option<usize>,
    /// Total attempts per cell.
    pub retry: u32,
}

impl Default for TuneCmd {
    fn default() -> Self {
        Self {
            strategy: spb_tune::Strategy::Grid,
            seed: 42,
            points: 60,
            // The three most SB-bound cross-suite apps: enough signal
            // to rank policies without paying for a full-suite cell.
            apps: "bwaves,x264,roms".into(),
            sbs: None,
            budget: "quick".into(),
            warmup: None,
            uops: None,
            cache: "tune-state/cache".into(),
            out: "results".into(),
            name: None,
            jobs: None,
            retry: 3,
        }
    }
}

/// The `client` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Submit a sweep job and wait for its report.
    Sweep {
        /// The job to submit.
        job: spb_serve::JobSpec,
        /// Write the returned (checksummed) report JSON here.
        out: Option<String>,
    },
    /// Fetch the health/stats snapshot.
    Health,
    /// Ask the server to shut down.
    Shutdown,
}

/// The `verify` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyCmd {
    /// Run (or replay) interleaving-fuzzer schedules.
    Fuzz {
        /// Base schedule; failures print a replay command with these
        /// exact parameters.
        config: spb_verify::FuzzConfig,
        /// Consecutive seeds to run starting at `config.seed`.
        count: u64,
    },
    /// Differential check of one application against the oracles.
    Oracle {
        /// Application name.
        app: String,
        /// Run configuration.
        cfg: RunOpts,
    },
}

/// Options shared by run-like commands.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Store-prefetch policy.
    pub policy: PolicyKind,
    /// SB entries.
    pub sb: usize,
    /// Measured µops.
    pub uops: u64,
    /// Warm-up µops.
    pub warmup: u64,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads for sweeps (`None` = `SPB_JOBS` or all cores).
    pub jobs: Option<usize>,
    /// Uniform fault-injection rate for the memory system (0 = off).
    pub fault_rate: f64,
    /// Fault-injection seed (independent of the workload seed).
    pub fault_seed: u64,
    /// Execution kernel (the skip-ahead `wheel` by default, also spelled
    /// `event`; `tick` is the lock-step equivalence reference).
    pub kernel: KernelMode,
    /// Wrong-path squash model (`SquashConfig::none()` = off).
    pub squash: SquashConfig,
}

impl Default for RunOpts {
    fn default() -> Self {
        let d = SimConfig::paper_default();
        Self {
            policy: PolicyKind::AtCommit,
            sb: 56,
            uops: d.measure_uops,
            warmup: d.warmup_uops,
            seed: d.seed,
            jobs: None,
            fault_rate: 0.0,
            fault_seed: 1,
            kernel: KernelMode::Wheel,
            squash: SquashConfig::none(),
        }
    }
}

impl RunOpts {
    /// Converts to a [`SimConfig`].
    pub fn to_sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_default()
            .with_sb(self.sb)
            .with_policy(self.policy);
        cfg.measure_uops = self.uops;
        cfg.warmup_uops = self.warmup;
        cfg.seed = self.seed;
        cfg.kernel = self.kernel;
        cfg.squash = self.squash;
        if self.fault_rate > 0.0 {
            cfg.mem.fault = spb_mem::FaultConfig::uniform(self.fault_rate, self.fault_seed);
        }
        cfg
    }

    /// Sweep options: `--jobs` if given, else `SPB_JOBS`/auto.
    pub fn sweep_options(&self) -> spb_sim::sweep::SweepOptions {
        match self.jobs {
            Some(n) => spb_sim::sweep::SweepOptions::with_jobs(n),
            None => spb_sim::sweep::SweepOptions::from_env(),
        }
    }
}

/// Parses a policy name (one spelling table for the CLI, the wire
/// protocol, and the library: [`PolicyKind::parse`]).
pub fn parse_policy(s: &str) -> Result<PolicyKind, CliError> {
    PolicyKind::parse(s).map_err(CliError)
}

fn take_value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, CliError> {
    it.next()
        .ok_or_else(|| CliError(format!("{flag} requires a value")))
}

/// Parses the only option an experiment takes, `--quick`.
fn parse_quick<'a>(args: impl Iterator<Item = &'a str>) -> Result<bool, CliError> {
    let mut quick = false;
    for a in args {
        match a {
            "--quick" => quick = true,
            other => return Err(CliError(format!("unknown argument {other:?}"))),
        }
    }
    Ok(quick)
}

/// Applies one shared run flag (`--policy`, `--sb`, `--uops`, …) and
/// its value to `opts`. Returns `Ok(false)` when `flag` is not a run
/// flag, leaving `args` untouched.
fn parse_run_flag<'a>(
    flag: &str,
    args: &mut impl Iterator<Item = &'a str>,
    opts: &mut RunOpts,
) -> Result<bool, CliError> {
    fn number<'a, T: std::str::FromStr>(
        flag: &str,
        args: &mut impl Iterator<Item = &'a str>,
    ) -> Result<T, CliError> {
        let v = take_value(flag, args)?;
        v.parse()
            .map_err(|_| CliError(format!("{flag} expects a number, got {v:?}")))
    }
    match flag {
        "--policy" => opts.policy = parse_policy(take_value(flag, args)?)?,
        "--sb" => opts.sb = number(flag, args)?,
        "--uops" => opts.uops = number(flag, args)?,
        "--warmup" => opts.warmup = number(flag, args)?,
        "--seed" => opts.seed = number(flag, args)?,
        "--jobs" => opts.jobs = Some(number(flag, args)?),
        "--fault-rate" => {
            let v = take_value(flag, args)?;
            opts.fault_rate = v
                .parse::<f64>()
                .ok()
                .filter(|r| (0.0..=1.0).contains(r))
                .ok_or_else(|| {
                    CliError(format!("--fault-rate expects a number in [0,1], got {v:?}"))
                })?;
        }
        "--fault-seed" => opts.fault_seed = number(flag, args)?,
        "--kernel" => {
            let v = take_value(flag, args)?;
            opts.kernel = KernelMode::parse(v).map_err(|e| CliError(format!("--kernel: {e}")))?;
        }
        "--squash" => {
            let v = take_value(flag, args)?;
            opts.squash = SquashConfig::parse(v).map_err(|e| CliError(format!("--squash: {e}")))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Applies every shared run flag in `args` to `opts` and returns the
/// arguments it did not recognise, in order.
fn parse_run_opts<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    opts: &mut RunOpts,
) -> Result<Vec<String>, CliError> {
    let mut leftovers = Vec::new();
    while let Some(a) = args.next() {
        if !parse_run_flag(a, args, opts)? {
            leftovers.push(a.to_string());
        }
    }
    Ok(leftovers)
}

/// Parses an argument vector (without the program name).
pub fn parse<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Command, CliError> {
    let mut it = args.into_iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd {
        "apps" => Ok(Command::Apps),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => {
            let mut opts = RunOpts::default();
            let mut app = None;
            let mut chart = false;
            let rest = parse_run_opts(&mut it, &mut opts)?;
            let mut rest_it = rest.iter();
            while let Some(a) = rest_it.next() {
                match a.as_str() {
                    "--app" => app = rest_it.next().cloned(),
                    "--chart" => chart = true,
                    other => return Err(CliError(format!("unknown argument {other:?}"))),
                }
            }
            let app = app.ok_or_else(|| CliError("run requires --app NAME".into()))?;
            Ok(Command::Run {
                app,
                cfg: opts,
                chart,
            })
        }
        "suite" => {
            let mut opts = RunOpts::default();
            let mut suite = None;
            let rest = parse_run_opts(&mut it, &mut opts)?;
            let mut rest_it = rest.iter();
            while let Some(a) = rest_it.next() {
                match a.as_str() {
                    "--suite" => suite = rest_it.next().cloned(),
                    other => return Err(CliError(format!("unknown argument {other:?}"))),
                }
            }
            Ok(Command::Suite {
                suite: suite.unwrap_or_else(|| "spec".into()),
                cfg: opts,
            })
        }
        "record" => {
            let mut app = None;
            let mut ops = 100_000u64;
            let mut out = None;
            let mut seed = 42u64;
            while let Some(a) = it.next() {
                match a {
                    "--app" => app = it.next().map(str::to_string),
                    "--ops" => {
                        let v = take_value("--ops", &mut it)?;
                        ops = v
                            .parse()
                            .map_err(|_| CliError(format!("bad --ops {v:?}")))?;
                    }
                    "--out" => out = it.next().map(str::to_string),
                    "--seed" => {
                        let v = take_value("--seed", &mut it)?;
                        seed = v
                            .parse()
                            .map_err(|_| CliError(format!("bad --seed {v:?}")))?;
                    }
                    other => return Err(CliError(format!("unknown argument {other:?}"))),
                }
            }
            Ok(Command::Record {
                app: app.ok_or_else(|| CliError("record requires --app NAME".into()))?,
                ops,
                out: out.ok_or_else(|| CliError("record requires --out FILE".into()))?,
                seed,
            })
        }
        "trace-info" => {
            let path = it
                .next()
                .ok_or_else(|| CliError("trace-info requires a path".into()))?;
            Ok(Command::TraceInfo { path: path.into() })
        }
        "replay" => {
            let mut opts = RunOpts::default();
            let mut trace = None;
            let rest = parse_run_opts(&mut it, &mut opts)?;
            let mut rest_it = rest.iter();
            while let Some(a) = rest_it.next() {
                match a.as_str() {
                    "--trace" => trace = rest_it.next().cloned(),
                    other => return Err(CliError(format!("unknown argument {other:?}"))),
                }
            }
            Ok(Command::Replay {
                trace: trace.ok_or_else(|| CliError("replay requires --trace FILE".into()))?,
                cfg: opts,
            })
        }
        "sweep" => {
            let mut opts = RunOpts::default();
            let mut app = None;
            let mut sbs = vec![14, 20, 28, 56];
            let mut policies = vec![PolicyKind::AtCommit, PolicyKind::spb_default()];
            let mut chart = false;
            let mut resume = false;
            let mut retry = 1u32;
            // --sb/--policy take comma lists here; every other run flag
            // means what it means for `run`.
            while let Some(a) = it.next() {
                match a {
                    "--app" => app = it.next().map(str::to_string),
                    "--chart" => chart = true,
                    "--resume" => resume = true,
                    "--retry" => {
                        let v = take_value("--retry", &mut it)?;
                        retry = v
                            .parse::<u32>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| CliError(format!("bad --retry {v:?} (expects ≥ 1)")))?;
                    }
                    "--sb" => {
                        let v = take_value("--sb", &mut it)?;
                        sbs = v
                            .split(',')
                            .map(|x| {
                                x.parse()
                                    .map_err(|_| CliError(format!("bad SB size {x:?}")))
                            })
                            .collect::<Result<_, _>>()?;
                    }
                    "--policy" => {
                        let v = take_value("--policy", &mut it)?;
                        policies = v.split(',').map(parse_policy).collect::<Result<_, _>>()?;
                    }
                    other => {
                        if !parse_run_flag(other, &mut it, &mut opts)? {
                            return Err(CliError(format!("unknown argument {other:?}")));
                        }
                    }
                }
            }
            Ok(Command::Sweep {
                app: app.ok_or_else(|| CliError("sweep requires --app NAME".into()))?,
                sbs,
                policies,
                cfg: opts,
                chart,
                resume,
                retry,
            })
        }
        "trace" => {
            // Traces are per-cycle artifacts: default to a much smaller
            // budget than a full run so the JSON stays loadable in a
            // trace viewer. Explicit --uops/--warmup still override.
            let mut opts = RunOpts {
                warmup: 40_000,
                uops: 100_000,
                ..RunOpts::default()
            };
            let mut app = None;
            let mut out = None;
            let rest = parse_run_opts(&mut it, &mut opts)?;
            let mut rest_it = rest.iter();
            while let Some(a) = rest_it.next() {
                match a.as_str() {
                    "--app" => app = rest_it.next().cloned(),
                    "--out" => out = rest_it.next().cloned(),
                    other => return Err(CliError(format!("unknown argument {other:?}"))),
                }
            }
            Ok(Command::Trace {
                app: app.ok_or_else(|| CliError("trace requires --app NAME".into()))?,
                cfg: opts,
                out: out.unwrap_or_else(|| "trace.json".into()),
            })
        }
        "experiment" => {
            let name = it
                .next()
                .ok_or_else(|| CliError("experiment requires a name (e.g. fig05)".into()))?
                .to_string();
            let quick = parse_quick(it)?;
            Ok(Command::Experiment { name, quick })
        }
        // Shorthand for the squash-storm scenario study.
        "squash" => Ok(Command::Experiment {
            name: "squash".into(),
            quick: parse_quick(it)?,
        }),
        "verify" => match it.next() {
            Some("fuzz") => {
                let mut config = spb_verify::FuzzConfig::default();
                let mut count = 1u64;
                while let Some(a) = it.next() {
                    let parse_num = |flag: &str, v: &str| -> Result<u64, CliError> {
                        v.parse()
                            .map_err(|_| CliError(format!("{flag} expects a number, got {v:?}")))
                    };
                    match a {
                        "--seed" => {
                            config.seed = parse_num("--seed", take_value("--seed", &mut it)?)?
                        }
                        "--steps" => {
                            config.steps =
                                parse_num("--steps", take_value("--steps", &mut it)?)? as u32;
                        }
                        "--cores" => {
                            let v = take_value("--cores", &mut it)?;
                            config.cores = v
                                .parse::<usize>()
                                .ok()
                                .filter(|&c| (1..=8).contains(&c))
                                .ok_or_else(|| {
                                    CliError(format!("--cores expects 1..=8, got {v:?}"))
                                })?;
                        }
                        "--fault-rate-e4" => {
                            config.fault_rate_e4 = parse_num(
                                "--fault-rate-e4",
                                take_value("--fault-rate-e4", &mut it)?,
                            )? as u32;
                        }
                        "--mutate-at" => {
                            config.mutate_at = Some(parse_num(
                                "--mutate-at",
                                take_value("--mutate-at", &mut it)?,
                            )? as u32);
                        }
                        "--squash" => config.squash = true,
                        "--spec-mutate-at" => {
                            config.spec_mutate_at = Some(parse_num(
                                "--spec-mutate-at",
                                take_value("--spec-mutate-at", &mut it)?,
                            )? as u32);
                        }
                        "--count" => count = parse_num("--count", take_value("--count", &mut it)?)?,
                        other => return Err(CliError(format!("unknown argument {other:?}"))),
                    }
                }
                Ok(Command::Verify(VerifyCmd::Fuzz { config, count }))
            }
            Some("oracle") => {
                let mut opts = RunOpts::default();
                let mut app = None;
                let rest = parse_run_opts(&mut it, &mut opts)?;
                let mut rest_it = rest.iter();
                while let Some(a) = rest_it.next() {
                    match a.as_str() {
                        "--app" => app = rest_it.next().cloned(),
                        other => return Err(CliError(format!("unknown argument {other:?}"))),
                    }
                }
                Ok(Command::Verify(VerifyCmd::Oracle {
                    app: app.ok_or_else(|| CliError("verify oracle requires --app NAME".into()))?,
                    cfg: opts,
                }))
            }
            other => Err(CliError(format!(
                "verify requires a subcommand: fuzz | oracle (got {other:?})"
            ))),
        },
        "serve" => {
            let mut addr = "127.0.0.1:7433".to_string();
            let mut dir = "serve-state".to_string();
            let mut jobs = None;
            let mut queue = 4usize;
            let mut retry = 3u32;
            let mut deadline_ms = None;
            while let Some(a) = it.next() {
                let parse_num = |flag: &str, v: &str| -> Result<u64, CliError> {
                    v.parse()
                        .map_err(|_| CliError(format!("{flag} expects a number, got {v:?}")))
                };
                match a {
                    "--addr" => addr = take_value("--addr", &mut it)?.to_string(),
                    "--dir" => dir = take_value("--dir", &mut it)?.to_string(),
                    "--jobs" => {
                        jobs = Some(parse_num("--jobs", take_value("--jobs", &mut it)?)? as usize);
                    }
                    "--queue" => {
                        queue = parse_num("--queue", take_value("--queue", &mut it)?)? as usize;
                    }
                    "--retry" => {
                        retry = parse_num("--retry", take_value("--retry", &mut it)?)?.max(1) as u32;
                    }
                    "--deadline-ms" => {
                        deadline_ms = Some(parse_num(
                            "--deadline-ms",
                            take_value("--deadline-ms", &mut it)?,
                        )?);
                    }
                    other => return Err(CliError(format!("unknown argument {other:?}"))),
                }
            }
            Ok(Command::Serve {
                addr,
                dir,
                jobs,
                queue,
                retry,
                deadline_ms,
            })
        }
        "client" => {
            let sub = it
                .next()
                .ok_or_else(|| CliError("client requires a subcommand: sweep | health | shutdown".into()))?;
            let mut addr = "127.0.0.1:7433".to_string();
            match sub {
                "health" | "shutdown" => {
                    while let Some(a) = it.next() {
                        match a {
                            "--addr" => addr = take_value("--addr", &mut it)?.to_string(),
                            other => return Err(CliError(format!("unknown argument {other:?}"))),
                        }
                    }
                    let action = if sub == "health" {
                        ClientAction::Health
                    } else {
                        ClientAction::Shutdown
                    };
                    Ok(Command::Client { addr, action })
                }
                "sweep" => {
                    let mut name = None;
                    let mut budget = spb_serve::Budget::Quick;
                    let mut apps: Vec<String> = Vec::new();
                    let mut policies: Vec<String> = Vec::new();
                    let mut sbs: Vec<usize> = Vec::new();
                    let mut retry = 1u32;
                    let mut out = None;
                    while let Some(a) = it.next() {
                        let parse_num = |flag: &str, v: &str| -> Result<u64, CliError> {
                            v.parse()
                                .map_err(|_| CliError(format!("{flag} expects a number, got {v:?}")))
                        };
                        match a {
                            "--addr" => addr = take_value("--addr", &mut it)?.to_string(),
                            "--name" => name = Some(take_value("--name", &mut it)?.to_string()),
                            "--out" => out = Some(take_value("--out", &mut it)?.to_string()),
                            "--budget" => {
                                budget = spb_serve::Budget::parse(take_value("--budget", &mut it)?)
                                    .map_err(CliError)?;
                            }
                            "--app" => {
                                apps = take_value("--app", &mut it)?
                                    .split(',')
                                    .map(str::to_string)
                                    .collect();
                            }
                            "--policy" => {
                                let v = take_value("--policy", &mut it)?;
                                // Validate spellings up front so typos fail
                                // client-side, not in the server's reply.
                                for p in v.split(',') {
                                    parse_policy(p)?;
                                }
                                policies = v.split(',').map(str::to_string).collect();
                            }
                            "--sb" => {
                                let v = take_value("--sb", &mut it)?;
                                sbs = v
                                    .split(',')
                                    .map(|x| {
                                        x.parse()
                                            .map_err(|_| CliError(format!("bad SB size {x:?}")))
                                    })
                                    .collect::<Result<_, _>>()?;
                            }
                            "--retry" => {
                                retry =
                                    parse_num("--retry", take_value("--retry", &mut it)?)?.max(1)
                                        as u32;
                            }
                            other => return Err(CliError(format!("unknown argument {other:?}"))),
                        }
                    }
                    // With no cell flags the client submits the full
                    // golden quick grid; any of --app/--policy/--sb
                    // narrows the cross product.
                    let mut job = if apps.is_empty() && policies.is_empty() && sbs.is_empty() {
                        spb_serve::JobSpec::quick_grid()
                    } else {
                        if apps.is_empty() {
                            return Err(CliError("client sweep needs --app NAMES with --policy/--sb".into()));
                        }
                        if policies.is_empty() {
                            policies = vec!["at-commit".into(), "spb".into()];
                        }
                        if sbs.is_empty() {
                            sbs = vec![14, 28, 56];
                        }
                        let mut cells = Vec::new();
                        for &sb in &sbs {
                            for p in &policies {
                                for a in &apps {
                                    cells.push(spb_serve::CellSpec {
                                        app: a.clone(),
                                        policy: p.clone(),
                                        sb,
                                    });
                                }
                            }
                        }
                        spb_serve::JobSpec::new("cli-sweep", budget, cells)
                    };
                    job.budget = budget;
                    job.retry = retry;
                    if let Some(n) = name {
                        job.name = n;
                    }
                    Ok(Command::Client {
                        addr,
                        action: ClientAction::Sweep { job, out },
                    })
                }
                other => Err(CliError(format!(
                    "client requires a subcommand: sweep | health | shutdown (got {other:?})"
                ))),
            }
        }
        "tune" => {
            let mut o = TuneCmd::default();
            while let Some(a) = it.next() {
                let parse_num = |flag: &str, v: &str| -> Result<u64, CliError> {
                    v.parse()
                        .map_err(|_| CliError(format!("{flag} expects a number, got {v:?}")))
                };
                match a {
                    "--strategy" => {
                        o.strategy = spb_tune::Strategy::parse(take_value("--strategy", &mut it)?)
                            .map_err(CliError)?;
                    }
                    "--seed" => o.seed = parse_num("--seed", take_value("--seed", &mut it)?)?,
                    "--points" => {
                        o.points =
                            parse_num("--points", take_value("--points", &mut it)?)? as usize;
                    }
                    "--apps" => o.apps = take_value("--apps", &mut it)?.to_string(),
                    "--sb" => {
                        let v = take_value("--sb", &mut it)?;
                        o.sbs = Some(
                            v.split(',')
                                .map(|x| {
                                    x.parse()
                                        .map_err(|_| CliError(format!("bad SB size {x:?}")))
                                })
                                .collect::<Result<_, _>>()?,
                        );
                    }
                    "--budget" => {
                        let v = take_value("--budget", &mut it)?;
                        if v != "quick" && v != "paper" {
                            return Err(CliError(format!(
                                "--budget expects quick or paper, got {v:?}"
                            )));
                        }
                        o.budget = v.to_string();
                    }
                    "--warmup" => {
                        o.warmup = Some(parse_num("--warmup", take_value("--warmup", &mut it)?)?);
                    }
                    "--uops" => {
                        o.uops = Some(parse_num("--uops", take_value("--uops", &mut it)?)?);
                    }
                    "--cache" => o.cache = take_value("--cache", &mut it)?.to_string(),
                    "--out" => o.out = take_value("--out", &mut it)?.to_string(),
                    "--name" => o.name = Some(take_value("--name", &mut it)?.to_string()),
                    "--jobs" => {
                        o.jobs =
                            Some(parse_num("--jobs", take_value("--jobs", &mut it)?)? as usize);
                    }
                    "--retry" => {
                        o.retry =
                            parse_num("--retry", take_value("--retry", &mut it)?)?.max(1) as u32;
                    }
                    other => return Err(CliError(format!("unknown argument {other:?}"))),
                }
            }
            Ok(Command::Tune(o))
        }
        "bench" => {
            let mut baseline = None;
            let mut kernel = KernelMode::Wheel;
            let mut samples = 3usize;
            while let Some(a) = it.next() {
                match a {
                    "--baseline" => {
                        baseline = Some(take_value("--baseline", &mut it)?.to_string());
                    }
                    "--kernel" => {
                        let v = take_value("--kernel", &mut it)?;
                        kernel =
                            KernelMode::parse(v).map_err(|e| CliError(format!("--kernel: {e}")))?;
                    }
                    "--samples" => {
                        let v = take_value("--samples", &mut it)?;
                        samples = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            CliError(format!("--samples expects a positive number, got {v:?}"))
                        })?;
                    }
                    other => return Err(CliError(format!("unknown argument {other:?}"))),
                }
            }
            Ok(Command::Bench {
                baseline: baseline
                    .ok_or_else(|| CliError("bench requires --baseline SNAPSHOT.json".into()))?,
                kernel,
                samples,
            })
        }
        other => Err(CliError(format!(
            "unknown command {other:?}; try `spbsim help`"
        ))),
    }
}

/// Looks up an application in both suites with a helpful error.
pub fn find_app(name: &str) -> Result<AppProfile, CliError> {
    AppProfile::by_name(name).map_err(|e| CliError(e.to_string()))
}

/// Usage text.
pub const USAGE: &str = "\
spbsim — the Store-Prefetch Burst simulator

USAGE:
  spbsim apps                                   list application profiles
  spbsim run --app NAME [opts] [--chart]        run one application, print a report
  spbsim suite [--suite spec|parsec] [opts]     run a whole suite
  spbsim record --app NAME --ops N --out FILE   record a trace file
  spbsim trace-info FILE                        inspect a trace file
  spbsim replay --trace FILE [opts]             replay a recorded trace
  spbsim sweep --app NAME [--sb 14,20,28,56] [--policy at-commit,spb] [--chart] [--resume]
               [--retry N] [opts]               --sb/--policy take comma lists here
  spbsim trace --app NAME [--out trace.json] [opts]   export a Chrome trace of a run
  spbsim experiment NAME [--quick]              regenerate a paper experiment
  spbsim squash [--quick]                       squash-storm scenario study: wasted
                                                RFOs / leaked M state, SPB vs at-commit
  spbsim verify fuzz [--seed N] [--steps M] [--cores 1..8] [--count K]
                     [--fault-rate-e4 R] [--mutate-at S] [--squash] [--spec-mutate-at S]
                                                run/replay coherence-fuzzer schedules
  spbsim verify oracle --app NAME [opts]        diff one run against the oracles
  spbsim serve [--addr H:P] [--dir DIR] [--jobs N] [--queue N] [--retry N]
               [--deadline-ms MS]               run the fault-tolerant sweep service
  spbsim client sweep [--addr H:P] [--app LIST --policy LIST --sb LIST]
               [--budget quick|paper] [--retry N] [--name NAME] [--out FILE]
                                                submit a sweep job (default: the
                                                full 230-cell quick grid)
  spbsim client health [--addr H:P]             print the service health snapshot
  spbsim client shutdown [--addr H:P]           stop the service gracefully
  spbsim bench --baseline SNAPSHOT.json [--kernel wheel|tick] [--samples N]
                                                re-time the quick benchmark grid and
                                                print the geomean speedup over the
                                                committed snapshot
  spbsim tune [--strategy grid|random|halving] [--seed N] [--points N]
              [--apps sb-bound|spec|LIST] [--sb LIST] [--budget quick|paper]
              [--warmup N] [--uops N] [--cache DIR] [--out DIR] [--name NAME]
              [--jobs N] [--retry N]
                                                explore the policy design space and
                                                report the Pareto frontier (cycles ×
                                                energy × coherence traffic)

RUN OPTIONS:
  --policy P      (default at-commit) one of:
                    none | at-execute | at-commit | ideal
                    spb[:KEYS]          parameterized SPB — KEYS is a comma list of
                                        n=1..1024, dedupe=on|off, burst=auto|1..15,
                                        frac=(0,1] (≤3 decimals), backward=on|off,
                                        cross=0..8   e.g. spb:n=32,dedupe=off,burst=3
                    spb-dynamic[:n=N]   per-core adaptive window
                    spb-feedback[:n=N]  accuracy-feedback burst throttling
                  the classic spellings parse (and print) exactly as before;
                  every label round-trips: parse(label(p)) == p
  --sb N          store-buffer entries            (default 56)
  --uops N        measured µops                   (default 600000)
  --warmup N      warm-up µops                    (default 150000)
  --seed N        workload seed                   (default 42)
  --jobs N        sweep worker threads            (default $SPB_JOBS or all cores)
  --fault-rate R  uniform memory fault-injection rate in [0,1] (default 0 = off)
  --fault-seed N  fault-injection seed            (default 1)
  --kernel K      execution kernel: wheel (skip-ahead, default) or tick
                  (lock-step reference; bit-identical results); event
                  is another spelling of the skip-ahead kernel
  --squash SPEC   wrong-path squash model — SPEC is a comma list of
                  rate=[0,1], depth=MIN..MAX, storm=N, ret2spec=on|off,
                  seed=N (rate=0 disables; parse(label(s)) == s)
                  e.g. --squash rate=0.05,depth=8..32,storm=4

Suite and sweep runs fan out over a worker pool (results are identical
to a serial run) and write a machine-readable JSON report under
results/ (schema: {name, records: [{app, policy, sb, cycles, uops,
ipc, wall_ms}]}; a \"failed\" array is appended when cells crashed).
A cell that panics or trips the coherence checker fails alone: the
other cells complete, the partial report is saved, and `sweep
--resume` re-runs only the missing or failed cells. With `--retry N`
transiently failing cells (panics, deadline overruns) are retried up
to N total attempts with deterministic seeded backoff; the attempt
count is recorded in each failure record. Invariant violations never
retry — they fail fast so a real coherence bug is never papered over.

`serve` runs the same sweeps as a supervised TCP service (DESIGN.md
§10): every cell result lands in a checksummed content-addressed
cache, accepted jobs are journaled write-ahead so a `kill -9`
mid-sweep is recovered on restart with only missing cells re-run, and
a full queue sheds new submissions with an explicit `overloaded`
rejection instead of hanging.

`tune` explores the parameterized policy space (window × dedupe ×
burst threshold × page fraction × adaptive variants × SB sizes; 612
points by default) with a grid, seeded-random, or successive-halving
strategy, scores every point on cycles + energy + coherence traffic
over the app set, and writes a checksummed Pareto-frontier report
(DESIGN.md §11). Cells go through the same content-addressed cache as
the sweep service, so re-running a tune — or overlapping tunes — is a
cache hit and the report is byte-identical for a fixed seed.

`trace` re-runs the application with the observability layer attached
(identical simulated numbers; see DESIGN.md §7) and writes a Chrome
trace_event JSON — open it at chrome://tracing or https://ui.perfetto.dev —
with SB-stall episodes, SPB burst detections and issues, coherence
messages, MSHR allocations and occupancy counters. It defaults to a
reduced µop budget (40k warm-up / 100k measured) so the file stays
small while still covering the store-burst phases.
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kernel_flag_and_rejects_bad_values() {
        let cmd = parse(["run", "--app", "x264", "--kernel", "tick"]).unwrap();
        match cmd {
            Command::Run { cfg, .. } => {
                assert_eq!(cfg.kernel, KernelMode::Tick);
                assert_eq!(cfg.to_sim_config().kernel, KernelMode::Tick);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(RunOpts::default().kernel, KernelMode::Wheel);
        match parse(["run", "--app", "x264", "--kernel", "wheel"]).unwrap() {
            Command::Run { cfg, .. } => assert_eq!(cfg.kernel, KernelMode::Wheel),
            other => panic!("wrong parse: {other:?}"),
        }
        let err = parse(["run", "--app", "x264", "--kernel", "warp"]).unwrap_err();
        assert!(err.to_string().contains("--kernel"), "{err}");
        // The sweep arm duplicates flag parsing; cover it separately.
        match parse(["sweep", "--app", "x264", "--kernel", "tick"]).unwrap() {
            Command::Sweep { cfg, .. } => assert_eq!(cfg.kernel, KernelMode::Tick),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_bench_against_a_baseline() {
        let cmd = parse(["bench", "--baseline", "BENCH_PR9.json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                baseline: "BENCH_PR9.json".into(),
                kernel: KernelMode::Wheel,
                samples: 3,
            }
        );
        match parse(["bench", "--baseline", "b.json", "--kernel", "event", "--samples", "5"])
            .unwrap()
        {
            Command::Bench {
                kernel, samples, ..
            } => {
                assert_eq!(kernel, KernelMode::Event);
                assert_eq!(samples, 5);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(["bench"]).is_err(), "--baseline is required");
        assert!(parse(["bench", "--baseline", "b.json", "--samples", "0"]).is_err());
    }

    #[test]
    fn parses_run_with_options() {
        let cmd = parse([
            "run", "--app", "x264", "--policy", "spb", "--sb", "14", "--chart",
        ])
        .unwrap();
        match cmd {
            Command::Run { app, cfg, chart } => {
                assert_eq!(app, "x264");
                assert_eq!(cfg.policy, PolicyKind::spb_default());
                assert_eq!(cfg.sb, 14);
                assert!(chart);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_suite_defaults() {
        let cmd = parse(["suite"]).unwrap();
        assert_eq!(
            cmd,
            Command::Suite {
                suite: "spec".into(),
                cfg: RunOpts::default()
            }
        );
    }

    #[test]
    fn parses_record_and_replay() {
        let cmd = parse([
            "record",
            "--app",
            "gcc",
            "--ops",
            "5000",
            "--out",
            "/tmp/t.spbt",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Record {
                app: "gcc".into(),
                ops: 5000,
                out: "/tmp/t.spbt".into(),
                seed: 42
            }
        );
        let cmd = parse(["replay", "--trace", "/tmp/t.spbt", "--sb", "20"]).unwrap();
        match cmd {
            Command::Replay { trace, cfg } => {
                assert_eq!(trace, "/tmp/t.spbt");
                assert_eq!(cfg.sb, 20);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_policy_and_command() {
        assert!(parse(["run", "--app", "x", "--policy", "magic"]).is_err());
        assert!(parse(["frobnicate"]).is_err());
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse([]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_sweep_lists() {
        let cmd = parse([
            "sweep",
            "--app",
            "x264",
            "--sb",
            "8,16",
            "--policy",
            "spb,ideal",
        ])
        .unwrap();
        match cmd {
            Command::Sweep {
                app, sbs, policies, ..
            } => {
                assert_eq!(app, "x264");
                assert_eq!(sbs, vec![8, 16]);
                assert_eq!(
                    policies,
                    vec![PolicyKind::spb_default(), PolicyKind::IdealSb]
                );
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn experiment_parses_quick_flag() {
        assert_eq!(
            parse(["experiment", "fig05", "--quick"]).unwrap(),
            Command::Experiment {
                name: "fig05".into(),
                quick: true
            }
        );
    }

    #[test]
    fn experiment_and_squash_reject_unknown_arguments() {
        for args in [
            &["experiment", "fig05", "--qiuck"][..],
            &["experiment", "fig05", "--quick", "extra"],
            &["squash", "--qiuck"],
        ] {
            let e = parse(args.iter().copied()).unwrap_err().to_string();
            assert!(e.starts_with("unknown argument"), "{args:?}: {e}");
        }
        assert_eq!(
            parse(["squash", "--quick"]).unwrap(),
            Command::Experiment {
                name: "squash".into(),
                quick: true
            }
        );
    }

    #[test]
    fn sweep_shares_the_run_flags() {
        let cmd = parse([
            "sweep", "--app", "x264", "--squash", "rate=0.1", "--kernel", "tick", "--uops", "5000",
            "--jobs", "2", "--sb", "14,28",
        ])
        .unwrap();
        match cmd {
            Command::Sweep { sbs, cfg, .. } => {
                assert_eq!(sbs, vec![14, 28]);
                assert_eq!(cfg.squash, SquashConfig::parse("rate=0.1").unwrap());
                assert_eq!(cfg.kernel, KernelMode::Tick);
                assert_eq!(cfg.uops, 5000);
                assert_eq!(cfg.jobs, Some(2));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Bad values get the same wording as under `run`.
        let e = parse(["sweep", "--app", "x264", "--uops", "lots"]).unwrap_err();
        assert_eq!(e.to_string(), "--uops expects a number, got \"lots\"");
    }

    #[test]
    fn parses_fault_flags_and_resume() {
        let cmd = parse([
            "run",
            "--app",
            "gcc",
            "--fault-rate",
            "0.02",
            "--fault-seed",
            "9",
        ])
        .unwrap();
        match cmd {
            Command::Run { cfg, .. } => {
                assert_eq!(cfg.fault_rate, 0.02);
                assert_eq!(cfg.fault_seed, 9);
                assert!(cfg.to_sim_config().mem.fault.enabled());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(!RunOpts::default().to_sim_config().mem.fault.enabled());
        assert!(parse(["run", "--app", "gcc", "--fault-rate", "1.5"]).is_err());
        let cmd = parse(["sweep", "--app", "x264", "--resume", "--fault-rate", "0.01"]).unwrap();
        match cmd {
            Command::Sweep { resume, cfg, .. } => {
                assert!(resume);
                assert_eq!(cfg.fault_rate, 0.01);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_trace_with_small_default_budget() {
        let cmd = parse(["trace", "--app", "x264", "--policy", "spb"]).unwrap();
        match cmd {
            Command::Trace { app, cfg, out } => {
                assert_eq!(app, "x264");
                assert_eq!(cfg.policy, PolicyKind::spb_default());
                assert_eq!(out, "trace.json");
                assert_eq!(cfg.warmup, 40_000);
                assert_eq!(cfg.uops, 100_000);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(["trace", "--app", "gcc", "--out", "g.json", "--uops", "5000"]).unwrap();
        match cmd {
            Command::Trace { cfg, out, .. } => {
                assert_eq!(out, "g.json");
                assert_eq!(cfg.uops, 5000);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn find_app_error_lists_candidates() {
        let err = find_app("nonexistent").unwrap_err();
        assert!(err.to_string().contains("bwaves"));
    }

    #[test]
    fn bad_numbers_are_reported() {
        assert!(parse(["run", "--app", "x", "--sb", "lots"]).is_err());
        assert!(parse(["record", "--app", "x", "--ops", "many", "--out", "f"]).is_err());
    }

    #[test]
    fn malformed_fault_rate_and_jobs_fail_without_panicking() {
        // Each of these must come back as Err (→ exit 2 in main), and
        // the message must name the offending flag.
        for bad in [
            vec!["run", "--app", "gcc", "--fault-rate", "abc"],
            vec!["run", "--app", "gcc", "--fault-rate", "-0.5"],
            vec!["run", "--app", "gcc", "--fault-rate", "2.0"],
            vec!["run", "--app", "gcc", "--jobs", "many"],
            vec!["run", "--app", "gcc", "--jobs", "-3"],
            vec!["sweep", "--app", "x264", "--fault-rate", "nope"],
            vec!["sweep", "--app", "x264", "--jobs", "0.5"],
        ] {
            let flag = bad[3];
            let err = parse(bad.clone()).expect_err(&format!("{bad:?} must fail"));
            assert!(
                err.to_string().contains(flag.trim_start_matches('-')),
                "error {err} does not name {flag}"
            );
        }
    }

    #[test]
    fn parses_sweep_retry() {
        match parse(["sweep", "--app", "x264", "--retry", "4"]).unwrap() {
            Command::Sweep { retry, .. } => assert_eq!(retry, 4),
            other => panic!("wrong parse: {other:?}"),
        }
        // Default stays at one attempt; zero and garbage are rejected.
        match parse(["sweep", "--app", "x264"]).unwrap() {
            Command::Sweep { retry, .. } => assert_eq!(retry, 1),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(["sweep", "--app", "x264", "--retry", "0"]).is_err());
        assert!(parse(["sweep", "--app", "x264", "--retry", "lots"]).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        match parse([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--dir",
            "/tmp/state",
            "--jobs",
            "2",
            "--queue",
            "1",
            "--retry",
            "5",
            "--deadline-ms",
            "1000",
        ])
        .unwrap()
        {
            Command::Serve {
                addr,
                dir,
                jobs,
                queue,
                retry,
                deadline_ms,
            } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(dir, "/tmp/state");
                assert_eq!(jobs, Some(2));
                assert_eq!(queue, 1);
                assert_eq!(retry, 5);
                assert_eq!(deadline_ms, Some(1000));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(["serve", "--queue", "many"]).is_err());
        assert!(parse(["serve", "--frobnicate"]).is_err());
    }

    #[test]
    fn parses_client_subcommands() {
        match parse(["client", "health", "--addr", "example:9"]).unwrap() {
            Command::Client { addr, action } => {
                assert_eq!(addr, "example:9");
                assert_eq!(action, ClientAction::Health);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(["client", "shutdown"]).unwrap() {
            Command::Client { action, .. } => assert_eq!(action, ClientAction::Shutdown),
            other => panic!("wrong parse: {other:?}"),
        }
        // A bare `client sweep` submits the full golden quick grid.
        match parse(["client", "sweep"]).unwrap() {
            Command::Client {
                action: ClientAction::Sweep { job, out },
                ..
            } => {
                assert_eq!(job.cells.len(), 230);
                assert_eq!(job.name, "sweep-grid-quick");
                assert_eq!(out, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Cell flags narrow to a cross product, validated client-side.
        match parse([
            "client", "sweep", "--app", "x264,gcc", "--policy", "spb", "--sb", "14,56",
            "--retry", "3", "--name", "mini", "--out", "r.json",
        ])
        .unwrap()
        {
            Command::Client {
                action: ClientAction::Sweep { job, out },
                ..
            } => {
                assert_eq!(job.cells.len(), 4);
                assert_eq!(job.retry, 3);
                assert_eq!(job.name, "mini");
                assert_eq!(out.as_deref(), Some("r.json"));
                assert_eq!(job.cells[0].app, "x264");
                assert_eq!(job.cells[0].policy, "spb");
                assert_eq!(job.cells[0].sb, 14);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(["client", "sweep", "--app", "x264", "--policy", "magic"]).is_err());
        assert!(parse(["client", "sweep", "--policy", "spb"]).is_err());
        assert!(parse(["client", "warp"]).is_err());
        assert!(parse(["client"]).is_err());
    }

    #[test]
    fn parses_tune_flags_and_defaults() {
        match parse(["tune"]).unwrap() {
            Command::Tune(o) => {
                assert_eq!(o, TuneCmd::default());
                assert_eq!(o.strategy, spb_tune::Strategy::Grid);
                assert_eq!(o.points, 60);
                assert_eq!(o.apps, "bwaves,x264,roms");
                assert_eq!(o.cache, "tune-state/cache");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse([
            "tune", "--strategy", "halving", "--seed", "7", "--points", "200", "--apps",
            "sb-bound", "--sb", "14,56", "--budget", "paper", "--warmup", "5000", "--uops",
            "20000", "--cache", "/tmp/c", "--out", "/tmp/r", "--name", "t", "--jobs", "2",
            "--retry", "4",
        ])
        .unwrap()
        {
            Command::Tune(o) => {
                assert_eq!(o.strategy, spb_tune::Strategy::Halving);
                assert_eq!(o.seed, 7);
                assert_eq!(o.points, 200);
                assert_eq!(o.apps, "sb-bound");
                assert_eq!(o.sbs, Some(vec![14, 56]));
                assert_eq!(o.budget, "paper");
                assert_eq!(o.warmup, Some(5000));
                assert_eq!(o.uops, Some(20000));
                assert_eq!(o.cache, "/tmp/c");
                assert_eq!(o.out, "/tmp/r");
                assert_eq!(o.name.as_deref(), Some("t"));
                assert_eq!(o.jobs, Some(2));
                assert_eq!(o.retry, 4);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn tune_rejects_bad_flags() {
        assert!(parse(["tune", "--strategy", "genetic"]).is_err());
        assert!(parse(["tune", "--budget", "huge"]).is_err());
        assert!(parse(["tune", "--points", "many"]).is_err());
        assert!(parse(["tune", "--sb", "14,big"]).is_err());
        assert!(parse(["tune", "--frobnicate"]).is_err());
    }

    #[test]
    fn parses_parameterized_policies_end_to_end() {
        // The new grammar flows through the ordinary --policy flag.
        match parse(["run", "--app", "x264", "--policy", "spb:n=32,dedupe=off,burst=3"]).unwrap() {
            Command::Run { cfg, .. } => {
                assert_eq!(cfg.policy.label(), "spb:n=32,dedupe=off,burst=3");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Errors teach the grammar: every valid key and range is named.
        let err = parse(["run", "--app", "x264", "--policy", "spb:warp=9"]).unwrap_err();
        for key in ["n=1..1024", "dedupe=on|off", "burst=auto|1..15", "frac=", "cross=0..8"] {
            assert!(err.to_string().contains(key), "{err}");
        }
    }

    #[test]
    fn parses_verify_fuzz_roundtrip() {
        let cmd = parse([
            "verify",
            "fuzz",
            "--seed",
            "7",
            "--steps",
            "512",
            "--cores",
            "2",
            "--fault-rate-e4",
            "250",
            "--mutate-at",
            "100",
            "--count",
            "4",
        ])
        .unwrap();
        match cmd {
            Command::Verify(VerifyCmd::Fuzz { config, count }) => {
                assert_eq!(config.seed, 7);
                assert_eq!(config.steps, 512);
                assert_eq!(config.cores, 2);
                assert_eq!(config.fault_rate_e4, 250);
                assert_eq!(config.mutate_at, Some(100));
                assert_eq!(count, 4);
                // The failure-replay string round-trips through the parser.
                let replay = config.repro();
                let args: Vec<&str> = replay.split_whitespace().skip(1).collect();
                match parse(args).unwrap() {
                    Command::Verify(VerifyCmd::Fuzz { config: c2, .. }) => {
                        assert_eq!(c2, config)
                    }
                    other => panic!("replay parsed as {other:?}"),
                }
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_squash_flags_roundtrip() {
        // --squash on run-like commands lands in the SimConfig…
        let cmd = parse([
            "run",
            "--app",
            "x264",
            "--squash",
            "rate=0.05,depth=8..32,storm=4,seed=7",
        ])
        .unwrap();
        match cmd {
            Command::Run { cfg, .. } => {
                assert!(cfg.squash.enabled());
                // …and round-trips label() -> parse() like every other
                // spelling on the wire (the PR 8 pattern).
                assert_eq!(
                    SquashConfig::parse(&cfg.squash.label()).unwrap(),
                    cfg.squash
                );
                assert_eq!(cfg.to_sim_config().squash, cfg.squash);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // The default stays off and keeps the config's Debug (and so
        // the serve cache key) byte-identical to a squash-less build.
        let cmd = parse(["run", "--app", "x264"]).unwrap();
        match cmd {
            Command::Run { cfg, .. } => assert!(!cfg.squash.enabled()),
            other => panic!("wrong parse: {other:?}"),
        }
        // A bad spec names the flag.
        let err = parse(["run", "--app", "x264", "--squash", "rate=2"]).unwrap_err();
        assert!(err.to_string().contains("--squash"), "{err}");
        // `spbsim squash` is shorthand for the registry experiment.
        assert_eq!(
            parse(["squash", "--quick"]).unwrap(),
            Command::Experiment {
                name: "squash".into(),
                quick: true
            }
        );
    }

    #[test]
    fn parses_verify_fuzz_squash_flags() {
        let cmd = parse([
            "verify",
            "fuzz",
            "--seed",
            "11",
            "--squash",
            "--spec-mutate-at",
            "64",
        ])
        .unwrap();
        match cmd {
            Command::Verify(VerifyCmd::Fuzz { config, .. }) => {
                assert!(config.squash);
                assert_eq!(config.spec_mutate_at, Some(64));
                // The replay string re-parses to the same schedule.
                let replay = config.repro();
                let args: Vec<&str> = replay.split_whitespace().skip(1).collect();
                match parse(args).unwrap() {
                    Command::Verify(VerifyCmd::Fuzz { config: c2, .. }) => {
                        assert_eq!(c2, config)
                    }
                    other => panic!("replay parsed as {other:?}"),
                }
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn verify_error_paths_fail_cleanly() {
        assert!(parse(["verify"]).is_err());
        assert!(parse(["verify", "shake"]).is_err());
        assert!(parse(["verify", "fuzz", "--cores", "0"]).is_err());
        assert!(parse(["verify", "fuzz", "--cores", "9"]).is_err());
        assert!(parse(["verify", "fuzz", "--steps", "lots"]).is_err());
        assert!(parse(["verify", "oracle"]).is_err());
        let cmd = parse(["verify", "oracle", "--app", "x264", "--sb", "14"]).unwrap();
        match cmd {
            Command::Verify(VerifyCmd::Oracle { app, cfg }) => {
                assert_eq!(app, "x264");
                assert_eq!(cfg.sb, 14);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }
}
