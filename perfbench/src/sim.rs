//! The simulation workloads (`spec_mem`, `spec_sb`, `parsec_mt`): timed
//! passes over a fixed cell set with `Simulation::run` on one thread,
//! and the traced run that times each layer from outside.

use crate::host::{HostSample, SpeedGauge};
use crate::refs::RefSet;
use crate::report::{Outcome, Spans};
use crate::stats::{median, quartiles, ratio};
use crate::workload::{Cell, Shuffle};
use spb_mem::system::MemStats;
use spb_mem::RfoOrigin;
use spb_sim::{CoreWindow, KernelMode, RunResult, Simulation};
use spb_stats::topdown::StallCause;
use spb_trace::TraceSource;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Passes a run makes at least, so `rtt_p50_ms` is a median of several.
const MIN_PASSES: usize = 3;

/// Rounds a traced run makes at least, so each ablation has a spread.
const MIN_TRACED_ROUNDS: usize = 2;

/// How a cell is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The production configuration: timing-wheel kernel, checker on.
    Default,
    /// The lock-step reference kernel.
    Tick,
    /// The coherence invariant checker switched off.
    CheckerOff,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Default => "wheel",
            Variant::Tick => "tick",
            Variant::CheckerOff => "checker-off",
        }
    }
}

/// The simulation of `cell` under `variant`, built before any timing
/// starts.
pub fn simulation(cell: &Cell, variant: Variant) -> Simulation {
    let mut cfg = cell.cfg.clone();
    match variant {
        Variant::Default => {}
        Variant::Tick => cfg.kernel = KernelMode::Tick,
        Variant::CheckerOff => cfg.mem.checker_interval = 0,
    }
    Simulation::with_config(&cell.app, &cfg)
}

/// Runs `sim` and returns its result and host wall seconds.
pub fn timed_run(sim: &Simulation) -> (Result<RunResult, String>, f64) {
    let start = Instant::now();
    let r = sim.run().map_err(|e| e.to_string());
    (r, start.elapsed().as_secs_f64())
}

/// Every simulated number of a run that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    cycles: u64,
    uops: u64,
    mem: MemStats,
    stores: u64,
    loads: u64,
    branches: u64,
    wrong_path_uops: u64,
    sb_stall_cycles: u64,
    energy_nj_bits: u64,
    windows: Vec<CoreWindow>,
}

impl Exact {
    /// Extracts the exact numbers of `r`.
    pub fn of(r: &RunResult) -> Self {
        Self {
            cycles: r.cycles,
            uops: r.uops,
            mem: r.mem.clone(),
            stores: r.cpu.committed_stores,
            loads: r.cpu.committed_loads,
            branches: r.cpu.committed_branches,
            wrong_path_uops: r.cpu.wrong_path_uops,
            sb_stall_cycles: r.topdown.stall_cycles(StallCause::StoreBuffer),
            energy_nj_bits: r.energy.total_nj().to_bits(),
            windows: r.per_core.clone(),
        }
    }
}

/// µops a run committed in warm-up and measurement, over all cores.
fn committed_uops(r: &RunResult) -> u64 {
    r.per_core.iter().map(CoreWindow::trace_len).sum()
}

/// Checks each result against its reference record and against the first result the run produced for the same cell.
pub struct Checker<'a> {
    cells: &'a [Cell],
    refs: &'a RefSet,
    first: Vec<Option<Exact>>,
}

impl<'a> Checker<'a> {
    /// A checker over `cells`.
    pub fn new(cells: &'a [Cell], refs: &'a RefSet) -> Self {
        Self {
            cells,
            refs,
            first: vec![None; cells.len()],
        }
    }

    /// Checks one result of cell `i`; records at most one failure for
    /// it in `out` and returns the result only when it passed.
    pub fn check<'r>(
        &mut self,
        i: usize,
        variant: Variant,
        r: &'r Result<RunResult, String>,
        out: &mut Outcome,
    ) -> Option<&'r RunResult> {
        let cell = &self.cells[i];
        let verdict = r.as_ref().map_err(Clone::clone).and_then(|run| {
            self.refs
                .check(&cell.id(), run.cycles, run.uops, run.ipc())?;
            let exact = Exact::of(run);
            match &self.first[i] {
                None => self.first[i] = Some(exact),
                Some(first) if *first == exact => {}
                Some(_) => return Err("exact counts differ from the cell's first run".into()),
            }
            Ok(run)
        });
        match verdict {
            Ok(run) => Some(run),
            Err(e) => {
                out.fail(format!("{} [{}]: {e}", cell.label(), variant.label()));
                None
            }
        }
    }

    /// The first result's exact numbers of every cell, in cell order
    /// (`None` for a cell that never passed).
    pub fn first_exact(&self) -> &[Option<Exact>] {
        &self.first
    }
}

/// The untraced run: whole passes over `cells`, each in a fresh order
/// drawn from `seed`, until `seconds` have passed and at least
/// [`MIN_PASSES`] passes ran. A pass is the workload's job: the grid a
/// sweep user waits for. Sets the end-to-end metrics except
/// `setup_s` and `peak_rss_mb`, and returns the first exact numbers of
/// every cell.
pub fn run_timed(
    cells: &[Cell],
    refs: &RefSet,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<Option<Exact>> {
    let mut checker = Checker::new(cells, refs);
    let mut order = Shuffle::new(seed);
    let mut pass_mops = Vec::new();
    let mut pass_cells_per_s = Vec::new();
    let mut pass_ms = Vec::new();
    let mut host_mops = Vec::new();
    let mut gauge = SpeedGauge::new();
    let host = HostSample::now();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget || pass_ms.len() < MIN_PASSES {
        let (mut uops, mut wall, mut host_wall) = (0u64, 0.0f64, 0.0f64);
        for i in order.order(cells.len()) {
            let sim = simulation(&cells[i], Variant::Default);
            let (r, secs) = timed_run(&sim);
            out.attempted += 1;
            host_wall += secs;
            wall += gauge.reference_secs(secs);
            if let Some(run) = checker.check(i, Variant::Default, &r, out) {
                uops += committed_uops(run);
            }
        }
        pass_mops.push(uops as f64 / wall / 1e6);
        pass_cells_per_s.push(cells.len() as f64 / wall);
        pass_ms.push(wall * 1e3);
        host_mops.push(uops as f64 / host_wall / 1e6);
    }
    let noise = host.noise_since();

    out.set("sim_mops", median(&pass_mops).unwrap_or(0.0));
    out.set("cells_per_s", median(&pass_cells_per_s).unwrap_or(0.0));
    out.set("rtt_p50_ms", median(&pass_ms).unwrap_or(0.0));
    out.note(format!(
        "{} passes of {} cells, Mop/s per pass {pass_mops:.3?}; every metric is the median \
         over passes, in reference seconds",
        pass_mops.len(),
        cells.len(),
    ));
    out.note(format!(
        "host speed {:.3} of the reference core; Mop/s per pass in host seconds \
         {host_mops:.3?}, median {:.3}",
        gauge.mean_speed(),
        median(&host_mops).unwrap_or(0.0),
    ));
    out.note(format!(
        "host: steal {:.3}%, on-CPU {:.3} of wall",
        noise.steal_pct, noise.oncpu_ratio
    ));
    checker.first_exact().to_vec()
}

/// Wall seconds of each pass kind over one round of the traced run.
#[derive(Debug, Default, Clone, Copy)]
struct Round {
    plain: f64,
    default1: f64,
    tick: f64,
    default2: f64,
    checker_off: f64,
    drain: f64,
    drained_uops: u64,
    measure_ms: f64,
    cycles: u64,
}

/// Drains the cell's per-thread traces for as many µops as each core
/// consumed, the trace layer's share of a run.
fn drain_traces(cell: &Cell, windows: &[CoreWindow]) -> u64 {
    let traces = cell.app.build_threads(cell.cfg.seed);
    let mut n = 0u64;
    for (mut trace, w) in traces.into_iter().zip(windows) {
        for _ in 0..w.trace_len() {
            black_box(trace.next_op());
            n += 1;
        }
    }
    n
}

/// The traced run: rounds over `cells`, each in a fresh order drawn
/// from `seed`, until `seconds` have passed and at least
/// [`MIN_TRACED_ROUNDS`] rounds ran. Each cell runs, in order,
/// untraced, traced on the default configuration, under the tick
/// kernel, traced on the default configuration again, with the checker
/// off, and finally has its traces drained. Every run must reproduce
/// the cell's first record bit for bit. Sets every simulation-layer
/// per-layer metric and returns the exact numbers of every cell.
pub fn run_traced(
    cells: &[Cell],
    refs: &RefSet,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Vec<Option<Exact>> {
    let mut checker = Checker::new(cells, refs);
    let mut order = Shuffle::new(seed);
    let mut firsts: Vec<Option<RunResult>> = vec![None; cells.len()];
    let mut rounds: Vec<Round> = Vec::new();
    let host = HostSample::now();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget || rounds.len() < MIN_TRACED_ROUNDS {
        let mut round = Round::default();
        for i in order.order(cells.len()) {
            let cell = &cells[i];
            let label = cell.label();
            let sim = simulation(cell, Variant::Default);
            let (plain, secs) = timed_run(&sim);
            round.plain += secs;
            checker.check(i, Variant::Default, &plain, out);

            let ((d1, _), secs) = spans.time("sim.run", &label, || timed_run(&sim));
            round.default1 += secs;
            let tick = simulation(cell, Variant::Tick);
            let ((t, _), secs) = spans.time("sim.run.tick", &label, || timed_run(&tick));
            round.tick += secs;
            let ((d2, _), secs) = spans.time("sim.run", &label, || timed_run(&sim));
            round.default2 += secs;
            let off = simulation(cell, Variant::CheckerOff);
            let ((c, _), secs) = spans.time("sim.run.checker_off", &label, || timed_run(&off));
            round.checker_off += secs;
            out.attempted += 5;

            checker.check(i, Variant::Tick, &t, out);
            checker.check(i, Variant::Default, &d2, out);
            checker.check(i, Variant::CheckerOff, &c, out);
            if let Some(run) = checker.check(i, Variant::Default, &d1, out) {
                let (n, secs) =
                    spans.time("trace.drain", &label, || drain_traces(cell, &run.per_core));
                round.drain += secs;
                round.drained_uops += n;
                round.cycles += run.cycles;
                round.measure_ms += run
                    .metrics
                    .get("runner")
                    .and_then(|c| c.get_gauge("measure_ms"))
                    .unwrap_or(0.0);
                if firsts[i].is_none() {
                    firsts[i] = Some(run.clone());
                }
            }
        }
        rounds.push(round);
    }
    let noise = host.noise_since();

    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let iqr = |xs: &[f64]| quartiles(xs).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let gains = per_round(&|r| ratio(r.tick, (r.default1 + r.default2) / 2.0));
    let shares = per_round(&|r| 1.0 - ratio(r.checker_off, r.default2));
    out.set("sim.skip_gain", med(&gains));
    out.set("sim.skip_gain_iqr", iqr(&gains));
    out.set("mem.checker_share", med(&shares));
    out.set("mem.checker_share_iqr", iqr(&shares));
    out.set(
        "trace.share",
        med(&per_round(&|r| ratio(r.drain, r.default1))),
    );
    out.set(
        "trace.ns_per_uop",
        med(&per_round(&|r| ratio(r.drain * 1e9, r.drained_uops as f64))),
    );
    out.set(
        "sim.ns_per_cycle",
        med(&per_round(&|r| ratio(r.measure_ms * 1e6, r.cycles as f64))),
    );
    out.set(
        "bench.trace_overhead",
        med(&per_round(&|r| ratio(r.default1, r.plain))),
    );
    out.set("host.steal_pct", noise.steal_pct);
    out.set("host.oncpu_ratio", noise.oncpu_ratio);
    let runs: Vec<&RunResult> = firsts.iter().flatten().collect();
    set_layer_counts(&runs, out);
    out.note(format!(
        "{} rounds of {} cells x 5 runs; skip_gain per round {gains:.3?}, checker_share per round {shares:.3?}",
        rounds.len(),
        cells.len()
    ));
    checker.first_exact().to_vec()
}

/// Sets the exact per-layer counts, summed over `runs`.
fn set_layer_counts(runs: &[&RunResult], out: &mut Outcome) {
    let sum = |f: &dyn Fn(&RunResult) -> u64| -> f64 { runs.iter().map(|r| f(r) as f64).sum() };
    let uops = sum(&|r| r.uops);
    let cycles = sum(&|r| r.cycles);
    let per_kuop = |n: f64| ratio(n * 1000.0, uops);
    let burst = RfoOrigin::SpbBurst.index();
    let retries = sum(&|r| r.mem.store_retries);
    out.set("sim.cycles", cycles);
    out.set("mem.l2_per_kuop", per_kuop(sum(&|r| r.mem.l2_accesses)));
    out.set("mem.l3_per_kuop", per_kuop(sum(&|r| r.mem.l3_accesses)));
    out.set("mem.dram_per_kuop", per_kuop(sum(&|r| r.mem.dram_accesses)));
    out.set(
        "mem.store_retry_ratio",
        ratio(retries, retries + sum(&|r| r.mem.stores_performed)),
    );
    out.set("mem.invalidations", sum(&|r| r.mem.invalidations));
    out.set("mem.remote_hits", sum(&|r| r.mem.load_remote_hits));
    out.set("mem.coherence_traffic", sum(&|r| r.mem.coherence_traffic()));
    out.set("cpu.ipc", ratio(uops, cycles));
    out.set(
        "cpu.sb_stall_ratio",
        ratio(
            sum(&|r| r.topdown.stall_cycles(StallCause::StoreBuffer)),
            sum(&|r| r.topdown.cycles()),
        ),
    );
    out.set("cpu.wrong_path_uops", sum(&|r| r.cpu.wrong_path_uops));
    let bursts = sum(&|r| r.mem.prefetch_requests[burst]);
    out.set("spb.burst_blocks", bursts);
    out.set(
        "spb.burst_accuracy",
        ratio(sum(&|r| r.mem.prefetch_successful[burst]), bursts),
    );
    out.set(
        "energy.total_uj",
        runs.iter().map(|r| r.energy.total_nj()).sum::<f64>() / 1000.0,
    );
}
