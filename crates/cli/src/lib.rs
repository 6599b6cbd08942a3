//! Implementation of the `spbsim` command-line tool.
//!
//! Kept as a library so the argument parsing and command dispatch are
//! unit-testable; `main.rs` is a two-line shim. No external argument
//! parser: every subcommand reads its flags through one private argv
//! cursor, so a missing value, a bad number and an unknown flag are
//! reported the same way everywhere. [`USAGE`] lists every subcommand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spb_sim::config::{KernelMode, PolicyKind, SimConfig};
use spb_trace::profile::AppProfile;
use spb_trace::SquashConfig;
use std::fmt;
use std::ops::RangeBounds;
use std::str::FromStr;

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
    pub(crate) fn sweep_options(&self) -> spb_sim::sweep::SweepOptions {
        match self.jobs {
            Some(n) => spb_sim::sweep::SweepOptions::with_jobs(n),
            None => spb_sim::sweep::SweepOptions::from_env(),
        }
    }
}

/// The one argv cursor every subcommand reads its flags through: one
/// rule and one wording for a missing value, a bad number or list.
struct Args<'a>(std::vec::IntoIter<&'a str>);

impl<'a> Args<'a> {
    /// The next argument: a flag, a subcommand or a positional.
    fn flag(&mut self) -> Option<&'a str> {
        self.0.next()
    }

    /// The value after `flag`; a missing value is never an absent flag.
    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        let missing = || CliError(format!("{flag} requires a value"));
        self.0.next().ok_or_else(missing)
    }

    /// The value after `flag` parsed as the field's own type, so a `u32`
    /// field rejects out-of-range input instead of truncating it.
    fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let v = self.value(flag)?;
        let bad = || CliError(format!("{flag} expects a number, got {v:?}"));
        v.parse().map_err(|_| bad())
    }

    /// [`Args::num`] limited to `range` (`lo..` or `lo..=hi`).
    fn num_in<T, R>(&mut self, flag: &str, range: R) -> Result<T, CliError>
    where
        T: FromStr + PartialOrd,
        R: RangeBounds<T> + fmt::Debug,
    {
        let v = self.value(flag)?;
        let want = format!("{range:?}");
        let want = want
            .strip_suffix("..")
            .map_or(want.clone(), |lo| format!("≥ {lo}"));
        let bad = || CliError(format!("bad {flag} {v:?} (expects {want})"));
        v.parse().ok().filter(|n| range.contains(n)).ok_or_else(bad)
    }

    /// The comma list after `flag`, each item parsed as `T`.
    fn list<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, CliError> {
        let v = self.value(flag)?;
        let bad = |x| CliError(format!("bad {flag} item {x:?} in {v:?}"));
        v.split(',')
            .map(|x| x.parse().map_err(|_| bad(x)))
            .collect()
    }

    /// The value after `flag` through a spelling parser (policy, kernel,
    /// squash, budget, strategy); its error is prefixed with the flag.
    fn with<T>(&mut self, flag: &str, spell: fn(&str) -> Result<T, String>) -> Result<T, CliError> {
        spell(self.value(flag)?).map_err(|e| CliError(format!("{flag}: {e}")))
    }

    /// Applies one shared run flag (`--policy`, `--sb`, `--uops`, …) and
    /// its value to `cfg`; any other flag is an unknown argument.
    fn parse_run_flag(&mut self, flag: &str, cfg: &mut RunOpts) -> Result<(), CliError> {
        match flag {
            "--policy" => cfg.policy = self.with(flag, PolicyKind::parse)?,
            "--sb" => cfg.sb = self.num(flag)?,
            "--uops" => cfg.uops = self.num(flag)?,
            "--warmup" => cfg.warmup = self.num(flag)?,
            "--seed" => cfg.seed = self.num(flag)?,
            "--jobs" => cfg.jobs = Some(self.num(flag)?),
            "--fault-rate" => cfg.fault_rate = self.num_in(flag, 0.0..=1.0)?,
            "--fault-seed" => cfg.fault_seed = self.num(flag)?,
            "--kernel" => cfg.kernel = self.with(flag, KernelMode::parse)?,
            "--squash" => cfg.squash = self.with(flag, SquashConfig::parse)?,
            _ => return Err(unknown(flag)),
        }
        Ok(())
    }
}

/// The error for a flag the subcommand does not take.
fn unknown(flag: &str) -> CliError {
    CliError(format!("unknown argument {flag:?}"))
}

/// `v` as an owned string, or the error `what` when it is absent.
fn required(v: Option<&str>, what: &str) -> Result<String, CliError> {
    v.map(str::to_string).ok_or_else(|| CliError(what.into()))
}

/// Parses an argument vector (without the program name).
pub fn parse<'a>(argv: impl IntoIterator<Item = &'a str>) -> Result<Command, CliError> {
    let mut args = Args(argv.into_iter().collect::<Vec<_>>().into_iter());
    let Some(mut cmd) = args.flag() else {
        return Ok(Command::Help);
    };
    if cmd == "verify" {
        cmd = match args.flag() {
            Some("fuzz") => "verify fuzz",
            Some("oracle") => "verify oracle",
            other => {
                let e = format!("verify requires a subcommand: fuzz | oracle (got {other:?})");
                return Err(CliError(e));
            }
        };
    }
    Ok(match cmd {
        "apps" => Command::Apps,
        "help" | "--help" | "-h" => Command::Help,
        "run" | "suite" | "replay" | "sweep" | "trace" | "verify oracle" => {
            let (mut cfg, mut app, mut chart) = (RunOpts::default(), None, false);
            let (mut suite, mut trace, mut out) = ("spec", None, "trace.json");
            let mut sbs = vec![14, 20, 28, 56];
            let mut ps = vec![PolicyKind::AtCommit, PolicyKind::spb_default()];
            let takes_app = !matches!(cmd, "suite" | "replay");
            let (mut resume, mut retry) = (false, 1);
            if cmd == "trace" {
                // Traces are per-cycle artifacts: a small default budget
                // keeps the JSON loadable in a trace viewer.
                (cfg.warmup, cfg.uops) = (40_000, 100_000);
            }
            // Sweep's --sb/--policy take comma lists; every other run flag
            // means what it means for `run`.
            while let Some(f) = args.flag() {
                match (cmd, f) {
                    (_, "--app") if takes_app => app = Some(args.value(f)?),
                    ("run" | "sweep", "--chart") => chart = true,
                    ("suite", "--suite") => suite = args.value(f)?,
                    ("replay", "--trace") => trace = Some(args.value(f)?),
                    ("trace", "--out") => out = args.value(f)?,
                    ("sweep", "--resume") => resume = true,
                    ("sweep", "--retry") => retry = args.num_in(f, 1..)?,
                    ("sweep", "--sb") => sbs = args.list(f)?,
                    ("sweep", "--policy") => {
                        ps = args.with(f, |v| v.split(',').map(PolicyKind::parse).collect())?
                    }
                    _ => args.parse_run_flag(f, &mut cfg)?,
                }
            }
            if takes_app && app.is_none() {
                return Err(CliError(format!("{cmd} requires --app NAME")));
            }
            let (app, suite, out) = (app.unwrap_or_default().into(), suite.into(), out.into());
            match cmd {
                "run" => Command::Run { app, cfg, chart },
                "suite" => Command::Suite { suite, cfg },
                "replay" => {
                    let trace = required(trace, "replay requires --trace FILE")?;
                    Command::Replay { trace, cfg }
                }
                "trace" => Command::Trace { app, cfg, out },
                "verify oracle" => Command::Verify(VerifyCmd::Oracle { app, cfg }),
                _ => Command::Sweep {
                    app,
                    sbs,
                    policies: ps,
                    cfg,
                    chart,
                    resume,
                    retry,
                },
            }
        }
        "record" => {
            let (mut app, mut ops, mut out, mut seed) = (None, 100_000, None, 42);
            while let Some(f) = args.flag() {
                match f {
                    "--app" => app = Some(args.value(f)?),
                    "--ops" => ops = args.num(f)?,
                    "--out" => out = Some(args.value(f)?),
                    "--seed" => seed = args.num(f)?,
                    _ => return Err(unknown(f)),
                }
            }
            let app = required(app, "record requires --app NAME")?;
            let out = required(out, "record requires --out FILE")?;
            Command::Record {
                app,
                ops,
                out,
                seed,
            }
        }
        "trace-info" => Command::TraceInfo {
            path: required(args.flag(), "trace-info requires a path")?,
        },
        // `squash` is shorthand for the squash-storm scenario study.
        "experiment" | "squash" => {
            let name = Some(cmd).filter(|&c| c == "squash").or_else(|| args.flag());
            let name = required(name, "experiment requires a name (e.g. fig05)")?;
            let mut quick = false;
            while let Some(f) = args.flag() {
                match f {
                    "--quick" => quick = true,
                    _ => return Err(unknown(f)),
                }
            }
            Command::Experiment { name, quick }
        }
        "verify fuzz" => {
            let (mut c, mut count) = (spb_verify::FuzzConfig::default(), 1);
            while let Some(f) = args.flag() {
                match f {
                    "--seed" => c.seed = args.num(f)?,
                    "--steps" => c.steps = args.num(f)?,
                    "--cores" => c.cores = args.num_in(f, 1..=8)?,
                    "--fault-rate-e4" => c.fault_rate_e4 = args.num_in(f, 0..=10_000)?,
                    "--mutate-at" => c.mutate_at = Some(args.num(f)?),
                    "--squash" => c.squash = true,
                    "--spec-mutate-at" => c.spec_mutate_at = Some(args.num(f)?),
                    "--count" => count = args.num(f)?,
                    _ => return Err(unknown(f)),
                }
            }
            Command::Verify(VerifyCmd::Fuzz { config: c, count })
        }
        "serve" => {
            let (mut addr, mut dir) = (String::from("127.0.0.1:7433"), String::from("serve-state"));
            let (mut jobs, mut queue, mut retry, mut deadline_ms) = (None, 4, 3, None);
            while let Some(f) = args.flag() {
                match f {
                    "--addr" => addr = args.value(f)?.into(),
                    "--dir" => dir = args.value(f)?.into(),
                    "--jobs" => jobs = Some(args.num(f)?),
                    "--queue" => queue = args.num(f)?,
                    "--retry" => retry = args.num_in(f, 1..)?,
                    "--deadline-ms" => deadline_ms = Some(args.num(f)?),
                    _ => return Err(unknown(f)),
                }
            }
            Command::Serve {
                addr,
                dir,
                jobs,
                queue,
                retry,
                deadline_ms,
            }
        }
        "client" => {
            let subs = "client requires a subcommand: sweep | health | shutdown";
            let sub = args.flag().ok_or_else(|| CliError(subs.into()))?;
            if !matches!(sub, "sweep" | "health" | "shutdown") {
                return Err(CliError(format!("{subs} (got {sub:?})")));
            }
            let (mut addr, mut name, mut out) = (String::from("127.0.0.1:7433"), None, None);
            let (mut budget, mut retry) = (spb_serve::Budget::Quick, 1);
            let (mut apps, mut policies, mut sbs) = (None::<Vec<String>>, None, None);
            while let Some(f) = args.flag() {
                match f {
                    "--addr" => addr = args.value(f)?.into(),
                    _ if sub != "sweep" => return Err(unknown(f)),
                    "--name" => name = Some(args.value(f)?),
                    "--out" => out = Some(args.value(f)?.to_string()),
                    "--budget" => budget = args.with(f, spb_serve::Budget::parse)?,
                    "--app" => apps = Some(args.list(f)?),
                    // Validate spellings up front so typos fail
                    // client-side, not in the server's reply.
                    "--policy" => {
                        policies = Some(args.with(f, |v| {
                            v.split(',')
                                .map(|p| PolicyKind::parse(p).map(|_| p.to_string()))
                                .collect()
                        })?)
                    }
                    "--sb" => sbs = Some(args.list(f)?),
                    "--retry" => retry = args.num_in(f, 1..)?,
                    _ => return Err(unknown(f)),
                }
            }
            let action = match sub {
                "health" => ClientAction::Health,
                "shutdown" => ClientAction::Shutdown,
                // With no cell flags the client submits the full golden
                // quick grid; any of --app/--policy/--sb narrows the
                // cross product.
                _ => {
                    let mut job = match (apps, policies, sbs) {
                        (None, None, None) => spb_serve::JobSpec::quick_grid(),
                        (None, ..) => {
                            let e = "client sweep needs --app NAMES with --policy/--sb";
                            return Err(CliError(e.into()));
                        }
                        (Some(apps), policies, sbs) => {
                            let policies =
                                policies.unwrap_or(vec!["at-commit".into(), "spb".into()]);
                            let sbs = sbs.unwrap_or(vec![14, 28, 56]);
                            let cells = spb_serve::CellSpec::cross(&apps, &policies, &sbs);
                            spb_serve::JobSpec::new("cli-sweep", budget, cells)
                        }
                    };
                    (job.budget, job.retry) = (budget, retry);
                    if let Some(n) = name {
                        job.name = n.into();
                    }
                    ClientAction::Sweep { job, out }
                }
            };
            Command::Client { addr, action }
        }
        "tune" => {
            let mut o = TuneCmd::default();
            while let Some(f) = args.flag() {
                match f {
                    "--strategy" => o.strategy = args.with(f, spb_tune::Strategy::parse)?,
                    "--seed" => o.seed = args.num(f)?,
                    "--points" => o.points = args.num(f)?,
                    "--apps" => o.apps = args.value(f)?.into(),
                    "--sb" => o.sbs = Some(args.list(f)?),
                    "--budget" => o.budget = args.with(f, spb_serve::Budget::parse)?.label().into(),
                    "--warmup" => o.warmup = Some(args.num(f)?),
                    "--uops" => o.uops = Some(args.num(f)?),
                    "--cache" => o.cache = args.value(f)?.into(),
                    "--out" => o.out = args.value(f)?.into(),
                    "--name" => o.name = Some(args.value(f)?.into()),
                    "--jobs" => o.jobs = Some(args.num(f)?),
                    "--retry" => o.retry = args.num_in(f, 1..)?,
                    _ => return Err(unknown(f)),
                }
            }
            Command::Tune(o)
        }
        other => {
            let e = format!("unknown command {other:?}; try `spbsim help`");
            return Err(CliError(e));
        }
    })
}

/// Looks up an application in both suites with a helpful error.
pub(crate) fn find_app(name: &str) -> Result<AppProfile, CliError> {
    AppProfile::by_name(name).map_err(|e| CliError(e.to_string()))
}

/// Usage text.
pub const USAGE: &str = "\
spbsim — the Store-Prefetch Burst simulator

USAGE:
  spbsim apps                                   list application profiles
  spbsim run --app NAME [opts] [--chart]        run one application, print a report
  spbsim suite [--suite spec|parsec] [opts]     run a whole suite
  spbsim record --app NAME --ops N --out FILE [--seed N]
                                                record a trace file
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
                    spb-dynamic[:n=N]   §IV-C store-size-adaptive threshold
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
other cells complete, the partial report is saved, and every finished
cell is kept in the cell store results/cache/ under its cache key.
`sweep --resume` is a rerun against that warm store: only cells with
no valid entry (failed, missing, corrupt, or run under other settings)
are simulated. With `--retry N`
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
        // A bad number names its flag in the shared wording, and a flag
        // with no value says so instead of reading as an absent flag.
        let err = |argv: &str| parse(argv.split_whitespace()).unwrap_err().to_string();
        let ops = "--ops expects a number, got \"x\"";
        assert_eq!(err("record --app x --ops x --out f"), ops);
        assert_eq!(err("record --app"), "--app requires a value");
        assert_eq!(err("run --app x264 --app"), "--app requires a value");
        assert_eq!(err("trace --app x264 --out"), "--out requires a value");
        assert_eq!(err("suite --suite"), "--suite requires a value");
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
            // u32 fields reject values that used to truncate silently.
            vec!["serve", "--dir", "d", "--retry", "4294967296"],
            vec!["tune", "--seed", "1", "--retry", "4294967296"],
        ] {
            let flag = bad[3];
            let err = parse(bad.clone()).expect_err(&format!("{bad:?} must fail"));
            assert!(
                err.to_string().contains(flag.trim_start_matches('-')),
                "error {err} does not name {flag}"
            );
        }
        for flag in "--steps --fault-rate-e4 --mutate-at --spec-mutate-at".split(' ') {
            let err = parse(["verify", "fuzz", flag, "4294967296"]).unwrap_err();
            assert!(err.to_string().contains(flag), "{err}");
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
        // Every --retry rejects zero with sweep's wording.
        for cmd in ["sweep --app x264", "serve", "tune", "client sweep"] {
            let argv = format!("{cmd} --retry 0");
            let err = parse(argv.split_whitespace()).unwrap_err().to_string();
            assert_eq!(err, "bad --retry \"0\" (expects ≥ 1)", "{argv}");
        }
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
            "client", "sweep", "--app", "x264,gcc", "--policy", "spb", "--sb", "14,56", "--retry",
            "3", "--name", "mini", "--out", "r.json",
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
            "tune",
            "--strategy",
            "halving",
            "--seed",
            "7",
            "--points",
            "200",
            "--apps",
            "sb-bound",
            "--sb",
            "14,56",
            "--budget",
            "paper",
            "--warmup",
            "5000",
            "--uops",
            "20000",
            "--cache",
            "/tmp/c",
            "--out",
            "/tmp/r",
            "--name",
            "t",
            "--jobs",
            "2",
            "--retry",
            "4",
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
        assert!(parse(["tune", "--retry", "0"]).is_err());
        assert!(parse(["tune", "--retry", "4294967296"]).is_err());
    }

    #[test]
    fn parses_parameterized_policies_end_to_end() {
        // The new grammar flows through the ordinary --policy flag.
        match parse([
            "run",
            "--app",
            "x264",
            "--policy",
            "spb:n=32,dedupe=off,burst=3",
        ])
        .unwrap()
        {
            Command::Run { cfg, .. } => {
                assert_eq!(cfg.policy.label(), "spb:n=32,dedupe=off,burst=3");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Errors teach the grammar: every valid key and range is named.
        let err = parse(["run", "--app", "x264", "--policy", "spb:warp=9"]).unwrap_err();
        for key in [
            "n=1..1024",
            "dedupe=on|off",
            "burst=auto|1..15",
            "frac=",
            "cross=0..8",
        ] {
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
        assert!(parse(["verify", "fuzz", "--steps", "4294967297"]).is_err());
        assert!(parse(["verify", "fuzz", "--fault-rate-e4", "20000"]).is_err());
        assert!(parse(["verify", "fuzz", "--fault-rate-e4", "10000"]).is_ok());
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

    #[test]
    fn every_usage_flag_is_known_to_its_subcommand() {
        let flags_in = |text: &'static str| {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.len() > 2 && w.starts_with("--"))
        };
        let (synopses, options) = USAGE.split_once("RUN OPTIONS:").unwrap();
        let run_flags: Vec<&str> = flags_in(options.split("\n\n").next().unwrap()).collect();
        let mut checked = 0;
        for block in synopses.split("\n  spbsim ").skip(1) {
            let positional = |w: &&str| !w.starts_with(['-', '[']);
            let words = block.split_whitespace().take_while(positional);
            let opts = block.contains("[opts]").then_some(&run_flags[..]);
            for flag in flags_in(block).chain(opts.into_iter().flatten().copied()) {
                let argv: Vec<&str> = words.clone().chain([flag]).collect();
                let err = parse(argv.clone()).err().map(|e| e.to_string());
                let unknown = format!("unknown argument {flag:?}");
                assert_ne!(err, Some(unknown), "USAGE lists {argv:?}");
                checked += 1;
            }
        }
        assert!(checked > 60, "only {checked} synopsis flags found");
    }
}
