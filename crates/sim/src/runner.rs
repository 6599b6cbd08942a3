//! Run results, run errors, and the advance loop (both kernels).
//!
//! The execution entry point is [`crate::simulation::Simulation`]. The
//! loop itself comes in two bit-identical flavours selected by
//! [`crate::config::KernelMode`]: the lock-step reference kernel
//! (`advance_tick`) ticks every component every cycle, and the
//! skip-ahead kernel (`advance_skip_ahead`, the default) ticks the
//! memory system only when it has work and lets each core sleep on its
//! own: a core that committed nothing is probed for its horizon and
//! its `cycle` calls are skipped until then, its idle span replayed
//! lazily when it wakes. When every core sleeps, the clock jumps to the
//! earliest wakeup. This works because a core's horizon depends only on
//! its own state (see DESIGN.md §9 and §12 for the contract). Both
//! kernels report their work in [`KernelStats`].

use crate::config::KernelMode;
use spb_cpu::core::{Core, CpuStats};
use spb_energy::EnergyBreakdown;
use spb_mem::checker::{InvariantKind, InvariantViolation};
use spb_mem::system::MemStats;
use spb_mem::MemorySystem;
use spb_obs::MetricsRegistry;
use spb_stats::{Histogram, TopDown};
use std::fmt;

/// Per-core commit accounting for one run.
///
/// Commit is in order and wrong-path µops are synthesized (they never
/// consume trace entries), so core `c`'s committed µop stream is exactly
/// the first `warmup_uops + uops` entries of its trace. The core reads
/// its trace up to one µop-ring batch ahead of dispatch (see
/// [`spb_trace::TraceSource::fill`]), but read-ahead µops are never
/// committed, so the prefix is still exact. That makes these
/// counters an exact replay recipe: an in-order model walking the same
/// [`spb_trace::PhasedWorkload`] predicts the committed store/load/
/// branch counts of the measured window — the contract the `spb-verify`
/// differential oracles check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreWindow {
    /// µops committed during warm-up (≥ the warm-up target; the
    /// lock-step loop can overshoot by up to the commit width, and fast
    /// cores keep committing while the slowest catches up).
    pub warmup_uops: u64,
    /// µops committed during the measured window.
    pub uops: u64,
    /// Stores committed during the measured window.
    pub stores: u64,
    /// Loads committed during the measured window.
    pub loads: u64,
    /// Branches committed during the measured window.
    pub branches: u64,
    /// Wrong-path squash episodes resolved during warm-up. Together
    /// with `squashes` this tells the `spb-verify` leak oracle exactly
    /// which [`spb_trace::squash::EpisodePlan`] episodes fall inside
    /// the measured window.
    pub warmup_squashes: u64,
    /// Wrong-path squash episodes resolved during the measured window.
    pub squashes: u64,
}

impl CoreWindow {
    /// Total trace entries this core consumed through end of measure.
    pub fn trace_len(&self) -> u64 {
        self.warmup_uops + self.uops
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Application name.
    pub app: String,
    /// Policy label.
    pub policy: String,
    /// Effective SB entries.
    pub sb_entries: usize,
    /// Measured cycles (shared clock; all cores run in lock-step).
    pub cycles: u64,
    /// Total µops committed across cores during measurement.
    pub uops: u64,
    /// Aggregated Top-Down accounting (per-core records merged).
    pub topdown: TopDown,
    /// Aggregated core counters.
    pub cpu: CpuStats,
    /// Memory-system counters (finalized).
    pub mem: MemStats,
    /// Per-core commit windows (one entry per hardware thread), the
    /// replay recipe consumed by the `spb-verify` oracles.
    pub per_core: Vec<CoreWindow>,
    /// Post-commit SB residency distribution, merged over cores.
    pub sb_residency: Histogram,
    /// SPB burst-length distribution at the L1 controller.
    pub burst_lengths: Histogram,
    /// Energy breakdown for the measured window.
    pub energy: EnergyBreakdown,
    /// Named counters, gauges and histogram snapshots registered by
    /// component (`"runner"`, `"cpu"`, `"mem"`, `"sb"`, `"spb"`), for
    /// serialization into sweep reports and traces.
    pub metrics: MetricsRegistry,
    /// Execution-kernel work counters for the measured window. Like
    /// `wall_ms` they describe how the run was computed, so they are
    /// kept out of serialized records and result comparisons.
    pub kernel: KernelStats,
    /// Host wall-clock time spent simulating (warm-up + measurement),
    /// in milliseconds. Observability only: this is the one field that
    /// varies between repeated runs, so comparisons of results must
    /// ignore it.
    pub wall_ms: f64,
}

impl RunResult {
    /// Committed µops per cycle across all cores.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.uops as f64 / self.cycles as f64
        }
    }

    /// Fraction of (core-)cycles stalled on a full SB.
    pub fn sb_stall_ratio(&self) -> f64 {
        self.topdown.sb_stall_ratio()
    }

    /// Execution time proxy: measured cycles (lower is better).
    pub fn time(&self) -> f64 {
        self.cycles as f64
    }

    /// Host simulation rate: committed µops per wall-clock second.
    pub(crate) fn uops_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.uops as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// How much work the advance loop did over the measured window: exact,
/// deterministic counters of the execution kernel itself (not of the
/// simulated machine), so a kernel change can be judged by the work it
/// removes rather than by noisy wall time.
///
/// Every core accounts each cycle of the window exactly once, either by
/// a `Core::cycle` call or inside a `Core::skip_span` replay, so
/// `core_cycles_run + core_cycles_replayed == cores × cycles`. The
/// lock-step kernel replays nothing and never probes.
///
/// These counters describe how a result was computed, not the result:
/// they differ between kernels by design, so they stay out of every
/// serialized record, cache key and bit-identity comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Cycles the loop executed (memory tick check plus core calls);
    /// the rest were jumped over while every core slept.
    pub cycles_entered: u64,
    /// `Core::cycle` calls.
    pub core_cycles_run: u64,
    /// Core-cycles covered by `Core::skip_span` replays.
    pub core_cycles_replayed: u64,
    /// `Core::next_event_at` probes.
    pub probes: u64,
}

/// A run aborted by the coherence checker or the forward-progress
/// watchdog, with enough context to identify the offending sweep cell.
#[derive(Debug, Clone)]
pub struct RunError {
    /// Application name.
    pub app: String,
    /// Policy label.
    pub policy: String,
    /// Effective SB entries.
    pub sb_entries: usize,
    /// What went wrong.
    pub violation: InvariantViolation,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run aborted [{} / {} / sb={}]: {}",
            self.app, self.policy, self.sb_entries, self.violation
        )
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.violation)
    }
}

/// Advances the simulation until the slowest core has committed
/// `target` µops, using the selected kernel, and returns the kernel's
/// work counters for the advanced span. Both kernels poll the memory
/// system's invariant checker and watch for forward progress, and
/// produce bit-identical results.
pub(crate) fn advance(
    cores: &mut [Core],
    mem: &mut MemorySystem,
    now: &mut u64,
    target: u64,
    watchdog: u64,
    kernel: KernelMode,
) -> Result<KernelStats, InvariantViolation> {
    match kernel {
        KernelMode::Tick => advance_tick(cores, mem, now, target, watchdog),
        KernelMode::Event | KernelMode::Wheel => {
            advance_skip_ahead(cores, mem, now, target, watchdog)
        }
    }
}

/// Builds the forward-progress violation every kernel reports when no
/// core commits a µop for `watchdog` consecutive cycles.
fn watchdog_violation(
    mem: &MemorySystem,
    now: u64,
    watchdog: u64,
    min_uops: u64,
    target: u64,
) -> InvariantViolation {
    InvariantViolation {
        kind: InvariantKind::ForwardProgress,
        block: None,
        core: None,
        cycle: now,
        detail: format!(
            "no core committed a µop for {watchdog} cycles \
             (slowest core stuck at {min_uops}/{target} µops)\n{}",
            mem.diagnostic_snapshot(now)
        ),
        history: Vec::new(),
    }
}

/// The lock-step reference kernel: ticks the memory system and every
/// core once per cycle. The skip-ahead kernel is verified against it.
pub(crate) fn advance_tick(
    cores: &mut [Core],
    mem: &mut MemorySystem,
    now: &mut u64,
    target: u64,
    watchdog: u64,
) -> Result<KernelStats, InvariantViolation> {
    let mut stats = KernelStats::default();
    let mut last_min = 0u64;
    let mut last_progress_at = *now;
    loop {
        let min_uops = cores.iter().map(|c| c.committed_uops()).min().unwrap_or(0);
        if min_uops >= target {
            return Ok(stats);
        }
        if min_uops > last_min {
            last_min = min_uops;
            last_progress_at = *now;
        } else if watchdog > 0 && *now - last_progress_at > watchdog {
            return Err(watchdog_violation(mem, *now, watchdog, min_uops, target));
        }
        mem.tick(*now);
        for core in cores.iter_mut() {
            core.cycle(mem, *now);
        }
        stats.cycles_entered += 1;
        stats.core_cycles_run += cores.len() as u64;
        if let Some(v) = mem.take_violation() {
            return Err(v);
        }
        *now += 1;
    }
}

/// Longest stretch of unprobed cycles the skip-ahead kernel allows a
/// core once its probes keep finding same-cycle work.
const MAX_PROBE_BACKOFF: u64 = 64;

/// One core's sleep and probe state in the skip-ahead kernel (the
/// default is awake).
#[derive(Clone, Copy, Default)]
struct CoreSleep {
    /// The core is asleep over `[from, until)`: its `cycle` calls are
    /// skipped and the span is replayed with `Core::skip_span` when it
    /// wakes (or when the loop exits). `until == u64::MAX` means "no
    /// pending event of its own": asleep until the run ends.
    asleep: bool,
    from: u64,
    until: u64,
    /// Busy-probe backoff: the core is not probed before this cycle.
    next_probe_at: u64,
    backoff: u64,
}

impl CoreSleep {
    /// Replays the sleep span up to (not including) `now` and wakes the
    /// core. The span is cut at `now` because the loop can stop while
    /// the core sleeps: another core can reach the target mid-span.
    fn wake(&mut self, core: &mut Core, mem: &MemorySystem, now: u64, stats: &mut KernelStats) {
        let end = self.until.min(now);
        core.skip_span(mem, self.from, end);
        stats.core_cycles_replayed += end - self.from;
        self.asleep = false;
    }
}

#[cfg(test)]
thread_local! {
    /// Late-wake mutation for the equivalence tests: when set, the core
    /// with this index wakes one cycle after its horizon. A correct
    /// kernel never does this; the tests use it to prove that the
    /// tick-vs-skip-ahead comparison catches a late wake.
    static LATE_WAKE_CORE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Extra cycles added to core `i`'s wake time (always 0 outside the
/// late-wake mutation test).
#[inline(always)]
fn late_wake_skew(_i: usize) -> u64 {
    #[cfg(test)]
    if LATE_WAKE_CORE.with(|c| c.get()) == Some(_i) {
        return 1;
    }
    0
}

/// The skip-ahead kernel (DESIGN.md §12), run for both the `wheel`
/// and the `event` spelling.
///
/// - The memory system is ticked only on cycles where it has observable
///   work. [`MemorySystem::wake_at`] is an O(1) read of state the
///   memory system publishes at the moment it changes (cached checker /
///   observer boundaries, burst-queue drain eligibility), not a probe
///   that recomputes boundaries every cycle.
/// - Each core sleeps on its own. A core is probed for its horizon
///   only on cycles where it committed nothing (with a per-core
///   busy-probe backoff); an idle probe puts it to sleep until that
///   horizon, and its `cycle` calls are skipped until then. A core's
///   horizon depends only on its own state, so nothing another core or
///   the memory system does can move it. The sleep span is replayed
///   lazily with `Core::skip_span` when the core wakes, or — cut at
///   the stop cycle — when the loop exits.
/// - When every core is asleep the clock jumps to the minimum of their
///   wake times, the memory system's wakeup and the watchdog deadline.
///   A wakeup may be early (the woken component finds no work and
///   sleeps again) but never late, so checker runs, observer samples,
///   burst issues and the watchdog all happen at exactly the cycles the
///   lock-step kernel would have executed them.
pub(crate) fn advance_skip_ahead(
    cores: &mut [Core],
    mem: &mut MemorySystem,
    now: &mut u64,
    target: u64,
    watchdog: u64,
) -> Result<KernelStats, InvariantViolation> {
    let mut stats = KernelStats::default();
    let mut last_min = 0u64;
    let mut last_progress_at = *now;
    let mut sleep = vec![CoreSleep::default(); cores.len()];
    loop {
        // A sleeping core commits nothing, so its count is current.
        let min_uops = cores.iter().map(|c| c.committed_uops()).min().unwrap_or(0);
        if min_uops >= target {
            for (core, s) in cores.iter_mut().zip(sleep.iter_mut()) {
                if s.asleep {
                    s.wake(core, mem, *now, &mut stats);
                }
            }
            return Ok(stats);
        }
        if min_uops > last_min {
            last_min = min_uops;
            last_progress_at = *now;
        } else if watchdog > 0 && *now - last_progress_at > watchdog {
            return Err(watchdog_violation(mem, *now, watchdog, min_uops, target));
        }

        // The cycle itself, exactly as under the lock-step kernel —
        // except the memory system is ticked only when it has work and
        // sleeping cores are skipped.
        stats.cycles_entered += 1;
        if mem.wake_at(*now) <= *now {
            mem.tick(*now);
        }
        let mut wake = u64::MAX;
        let mut all_asleep = true;
        for (i, (core, s)) in cores.iter_mut().zip(sleep.iter_mut()).enumerate() {
            if s.asleep {
                if *now < s.until {
                    wake = wake.min(s.until);
                    continue;
                }
                s.wake(core, mem, *now, &mut stats);
            }
            let before = core.committed_uops();
            core.cycle(mem, *now);
            stats.core_cycles_run += 1;
            // Commit progress is the busy signal: a committing core is
            // not probed.
            if core.committed_uops() != before || *now < s.next_probe_at {
                all_asleep = false;
                continue;
            }
            stats.probes += 1;
            match core.next_event_at(*now) {
                Some(t) if t <= *now => {
                    // Same-cycle work without a commit (e.g. a drain
                    // mid-burst): back off and keep cycling.
                    s.backoff = (s.backoff * 2).clamp(1, MAX_PROBE_BACKOFF);
                    s.next_probe_at = *now + s.backoff;
                    all_asleep = false;
                }
                Some(t) if t == *now + 1 => {
                    // Work next cycle: no span to skip.
                    s.backoff = 0;
                    all_asleep = false;
                }
                horizon => {
                    // The cycle at `*now` already ran, so the idle span
                    // starts one cycle later.
                    s.backoff = 0;
                    s.asleep = true;
                    s.from = *now + 1;
                    s.until = horizon.map_or(u64::MAX, |t| t + late_wake_skew(i));
                    wake = wake.min(s.until);
                }
            }
        }
        if let Some(v) = mem.take_violation() {
            return Err(v);
        }
        if !all_asleep {
            *now += 1;
            continue;
        }

        // Every core is asleep: jump to the first cycle anything can
        // happen.
        wake = wake.min(mem.wake_at(*now));
        if watchdog > 0 {
            // First cycle at which the watchdog check above fires.
            wake = wake.min(last_progress_at + watchdog + 1);
        }
        // With nothing pending anywhere and no watchdog this steps one
        // cycle, replicating the lock-step kernel's behaviour (spin
        // until the caller's target or forever).
        *now = if wake == u64::MAX {
            *now + 1
        } else {
            wake.max(*now + 1)
        };
    }
}

pub(crate) fn merge_cpu_stats(into: &mut CpuStats, from: &CpuStats) {
    into.committed_stores += from.committed_stores;
    into.committed_loads += from.committed_loads;
    into.committed_branches += from.committed_branches;
    into.mispredicts += from.mispredicts;
    into.wrong_path_uops += from.wrong_path_uops;
    into.wrong_path_l1_accesses += from.wrong_path_l1_accesses;
    into.wrong_path_stores_injected += from.wrong_path_stores_injected;
    into.squash_episodes += from.squash_episodes;
    into.store_forwards += from.store_forwards;
    into.coalesced_stores += from.coalesced_stores;
    for i in 0..into.sb_stall_by_region.len() {
        into.sb_stall_by_region[i] += from.sb_stall_by_region[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KernelMode, PolicyKind, SimConfig};
    use crate::simulation::Simulation;
    use spb_trace::profile::AppProfile;

    /// The 8-thread PARSEC apps of the benchmark's `parsec_mt` workload.
    const PARSEC_MT: [&str; 5] = ["bodytrack", "dedup", "ferret", "fluidanimate", "streamcluster"];

    /// The first of cycles, µops, Top-Down, core and memory counters,
    /// per-core windows and both histograms on which two runs disagree.
    /// Kernel work counters and wall time are not compared: they
    /// describe how a result was computed, not the result.
    fn first_divergence(a: &RunResult, b: &RunResult) -> Option<&'static str> {
        [
            ("cycles", a.cycles == b.cycles),
            ("uops", a.uops == b.uops),
            ("topdown", a.topdown == b.topdown),
            ("cpu", a.cpu == b.cpu),
            ("mem", a.mem == b.mem),
            ("per_core", a.per_core == b.per_core),
            ("sb_residency", a.sb_residency == b.sb_residency),
            ("burst_lengths", a.burst_lengths == b.burst_lengths),
        ]
        .into_iter()
        .find(|&(_, same)| !same)
        .map(|(field, _)| field)
    }

    /// Asserts that two runs agree on every counter
    /// [`first_divergence`] compares.
    fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
        assert_eq!(first_divergence(a, b), None, "{label}");
    }

    /// The 3k/30k-µop budget of the multi-core equivalence tests.
    fn small_budget() -> SimConfig {
        let mut cfg = SimConfig::quick().with_sb(14);
        cfg.warmup_uops = 3_000;
        cfg.measure_uops = 30_000;
        cfg
    }

    /// Runs `app` under `kernel` with an observer attached and returns
    /// the result with the emitted events as a sorted multiset. Events
    /// are compared as a multiset because a sleeping core's stall
    /// episode is replayed when it wakes, so its flush can land later in
    /// the stream than under the lock-step kernel.
    fn observed_run(
        app: &AppProfile,
        cfg: &SimConfig,
        kernel: KernelMode,
    ) -> (RunResult, Vec<String>) {
        let collector = spb_obs::Collector::new();
        let r = Simulation::with_config(app, &cfg.clone().with_kernel(kernel))
            .observer(collector.observer())
            .run_or_panic();
        let mut events: Vec<String> = collector.take().iter().map(|e| format!("{e:?}")).collect();
        events.sort_unstable();
        (r, events)
    }

    /// The 8-core equivalence matrix: every `parsec_mt` app, plain,
    /// under uniform faults, observed, and under squash storms, at SB 14
    /// (mostly SB-bound stalls) and at the default SB 56 (mostly ROB/LQ
    /// stalls), tick against skip-ahead. Returns the first divergence
    /// found.
    fn eight_core_divergence() -> Option<String> {
        use spb_trace::SquashConfig;
        let squash = SquashConfig::parse("rate=0.1,depth=8..32,storm=2,seed=5").unwrap();
        for (name, sb) in PARSEC_MT.iter().flat_map(|n| [(n, 14), (n, 56)]) {
            let base = small_budget().with_sb(sb);
            let app = AppProfile::by_name(name).unwrap();
            for variant in ["plain", "faulted", "observed", "squashed"] {
                let cfg = match variant {
                    "plain" => base.clone(),
                    "squashed" => base
                        .clone()
                        .with_policy(PolicyKind::AtExecute)
                        .with_squash(squash),
                    _ => base.clone().with_policy(PolicyKind::spb_default()),
                };
                let run = |kernel: KernelMode| {
                    let mut sim = Simulation::with_config(&app, &cfg.clone().with_kernel(kernel));
                    if variant == "faulted" {
                        sim = sim.faults(spb_mem::FaultConfig::uniform(0.02, 11));
                    }
                    if variant == "observed" {
                        sim = sim.observer(spb_obs::Collector::new().observer());
                    }
                    sim.run_or_panic()
                };
                let (tick, wheel) = (run(KernelMode::Tick), run(KernelMode::Wheel));
                if let Some(field) = first_divergence(&tick, &wheel) {
                    return Some(format!("{name} sb={sb} {variant}: {field}"));
                }
            }
        }
        None
    }

    #[test]
    fn quick_run_produces_sane_numbers() {
        let app = AppProfile::by_name("gcc").unwrap();
        let r = Simulation::with_config(&app, &SimConfig::quick()).run_or_panic();
        assert!(r.cycles > 0);
        assert!(r.uops >= SimConfig::quick().measure_uops);
        assert!(r.ipc() > 0.05 && r.ipc() < 4.0, "ipc {}", r.ipc());
        assert!(r.energy.total_nj() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let app = AppProfile::by_name("x264").unwrap();
        let a = Simulation::with_config(&app, &SimConfig::quick()).run_or_panic();
        let b = Simulation::with_config(&app, &SimConfig::quick()).run_or_panic();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.uops, b.uops);
        assert_eq!(a.mem.loads, b.mem.loads);
    }

    #[test]
    fn sb_bound_app_shows_sb_stalls_at_small_sb() {
        let app = AppProfile::by_name("bwaves").unwrap();
        let cfg = SimConfig::quick().with_sb(14);
        let r = Simulation::with_config(&app, &cfg).run_or_panic();
        assert!(
            r.sb_stall_ratio() > 0.02,
            "bwaves at SB14 must be SB-bound, got {}",
            r.sb_stall_ratio()
        );
    }

    #[test]
    fn spb_beats_at_commit_on_sb_bound_app_with_small_sb() {
        let app = AppProfile::by_name("x264").unwrap();
        let base = Simulation::with_config(&app, &SimConfig::quick().with_sb(14)).run_or_panic();
        let spb = Simulation::with_config(&app, &SimConfig::quick())
            .sb_entries(14)
            .policy(PolicyKind::spb_default())
            .run_or_panic();
        assert!(
            spb.cycles < base.cycles,
            "SPB {} vs at-commit {}",
            spb.cycles,
            base.cycles
        );
    }

    #[test]
    fn parsec_app_runs_eight_cores() {
        let app = AppProfile::by_name("dedup").unwrap();
        let mut cfg = SimConfig::quick();
        cfg.warmup_uops = 3_000;
        cfg.measure_uops = 30_000;
        let r = Simulation::with_config(&app, &cfg).run_or_panic();
        // Eight cores, each committing at least the measure budget.
        assert!(r.uops >= 8 * cfg.measure_uops);
    }

    #[test]
    fn watchdog_trips_on_livelocked_memory_instead_of_hanging() {
        let app = AppProfile::by_name("gcc").unwrap();
        let mut cfg = SimConfig::quick();
        // Every DRAM fill takes ~10M extra cycles: no store or load can
        // complete, so no core ever commits — a livelock without the
        // watchdog.
        cfg.mem.fault = spb_mem::FaultConfig {
            dram_spike_rate: 1.0,
            dram_spike_cycles: 10_000_000,
            ..spb_mem::FaultConfig::none()
        };
        cfg.watchdog_cycles = 5_000;
        let err = Simulation::with_config(&app, &cfg).run().unwrap_err();
        assert_eq!(err.violation.kind, InvariantKind::ForwardProgress);
        let msg = err.to_string();
        assert!(msg.contains("gcc"), "names the app: {msg}");
        assert!(
            msg.contains("memory-system snapshot"),
            "carries the controller dump: {msg}"
        );
        assert!(msg.contains("mshr"), "shows MSHR occupancy: {msg}");
    }

    #[test]
    fn moderate_faults_complete_with_clean_checker() {
        let app = AppProfile::by_name("x264").unwrap();
        let mut cfg = SimConfig::quick();
        cfg.mem.fault = spb_mem::FaultConfig::uniform(0.01, 7);
        let r = Simulation::with_config(&app, &cfg)
            .run()
            .expect("faulty run stays coherent");
        assert!(
            r.mem.faults_dram_spiked > 0,
            "faults actually fired during the run"
        );
    }

    #[test]
    fn checker_and_injector_are_zero_perturbation_when_off() {
        let app = AppProfile::by_name("gcc").unwrap();
        let mut off = SimConfig::quick();
        off.mem.checker_interval = 0;
        off.watchdog_cycles = 0;
        let a = Simulation::with_config(&app, &SimConfig::quick()).run_or_panic();
        let b = Simulation::with_config(&app, &off).run_or_panic();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.uops, b.uops);
        assert_eq!(a.mem, b.mem);
    }

    #[test]
    fn ideal_policy_reports_1024_entries() {
        let app = AppProfile::by_name("gcc").unwrap();
        let r = Simulation::with_config(&app, &SimConfig::quick())
            .sb_entries(14)
            .policy(PolicyKind::IdealSb)
            .run_or_panic();
        assert_eq!(r.sb_entries, 1024);
    }

    /// The skip-ahead kernel must be indistinguishable from the
    /// lock-step reference, bit for bit, on every counter a run
    /// reports (the broad cross-product lives in `spb-verify`). The
    /// 8-entry issue-queue cases keep the IQ full of DRAM-dependent
    /// µops, so the IQ-stall wake and the queue's lazy reclaim decide
    /// when the skip-ahead kernel may jump.
    #[test]
    fn skip_ahead_kernels_match_tick_kernel_bit_for_bit() {
        use spb_stats::StallCause;
        let base = SimConfig::quick().with_sb(14);
        let mut tiny_iq = base.clone();
        tiny_iq.core.iq_entries = 8;
        for (name, cfg, tiny) in [
            ("x264", &base, false),
            ("mcf", &tiny_iq, true),
            ("gcc", &tiny_iq, true),
        ] {
            let app = AppProfile::by_name(name).unwrap();
            let tick = Simulation::with_config(&app, &cfg.clone().with_kernel(KernelMode::Tick))
                .run_or_panic();
            if tiny {
                assert!(
                    tick.topdown.stall_cycles(StallCause::IssueQueue) > 0,
                    "{name}: an 8-entry IQ must stall dispatch"
                );
            }
            let fast = Simulation::with_config(&app, &cfg.clone().with_kernel(KernelMode::Wheel))
                .run_or_panic();
            assert_bit_identical(&tick, &fast, name);
        }
    }

    /// As above, for the multi-core PARSEC path, where per-core sleep
    /// does most of its skipping (cross-core invalidations and
    /// downgrades also exercise the retire-before-remote-kill
    /// discipline).
    #[test]
    fn kernels_match_bit_for_bit_on_eight_cores() {
        assert_eq!(eight_core_divergence(), None);
    }

    /// The equivalence matrix above must catch a core that wakes one
    /// cycle after its horizon.
    #[test]
    fn a_late_wake_is_caught_by_the_eight_core_matrix() {
        LATE_WAKE_CORE.with(|c| c.set(Some(3)));
        let divergence = eight_core_divergence();
        LATE_WAKE_CORE.with(|c| c.set(None));
        assert!(divergence.is_some(), "a late wake went unnoticed");
    }

    /// With an observer attached, both kernels emit the same events —
    /// compared as sorted multisets — including stall episodes, which
    /// the skip-ahead kernel replays in spans. An empty replay span must
    /// not open or flush a zero-cycle episode.
    #[test]
    fn kernels_emit_the_same_event_multiset() {
        let cfg = small_budget();
        for name in ["mcf", "x264"].into_iter().chain(PARSEC_MT) {
            let app = AppProfile::by_name(name).unwrap();
            let (tick, tick_events) = observed_run(&app, &cfg, KernelMode::Tick);
            let (wheel, wheel_events) = observed_run(&app, &cfg, KernelMode::Wheel);
            assert_bit_identical(&tick, &wheel, name);
            assert!(!tick_events.is_empty(), "{name}: no events");
            if tick_events != wheel_events {
                let first = tick_events
                    .iter()
                    .zip(&wheel_events)
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("tick {a} vs wheel {b}"));
                panic!(
                    "{name}: {} tick events vs {} wheel events; first difference: {}",
                    tick_events.len(),
                    wheel_events.len(),
                    first.unwrap_or_else(|| "a longer tail".into())
                );
            }
        }
    }

    /// Every core accounts each measured cycle exactly once, by a
    /// `cycle` call or inside a `skip_span` replay. The lock-step kernel
    /// never replays or probes; on the 8-core PARSEC apps per-core
    /// sleep replays a large share of the core-cycles instead of
    /// running them.
    #[test]
    fn kernel_stats_account_every_core_cycle() {
        let cfg = small_budget();
        let (mut run, mut replayed) = (0u64, 0u64);
        for name in PARSEC_MT {
            let app = AppProfile::by_name(name).unwrap();
            for kernel in [KernelMode::Tick, KernelMode::Wheel] {
                let r = Simulation::with_config(&app, &cfg.clone().with_kernel(kernel))
                    .run_or_panic();
                let k = r.kernel;
                let cores = r.per_core.len() as u64;
                assert_eq!(
                    k.core_cycles_run + k.core_cycles_replayed,
                    cores * r.cycles,
                    "{name} {}: {k:?}",
                    kernel.label()
                );
                if kernel == KernelMode::Tick {
                    assert_eq!(k.core_cycles_replayed, 0, "{name}");
                    assert_eq!(k.probes, 0, "{name}");
                    assert_eq!(k.cycles_entered, r.cycles, "{name}");
                } else {
                    assert!(k.cycles_entered <= r.cycles, "{name}: {k:?}");
                    run += k.core_cycles_run;
                    replayed += k.core_cycles_replayed;
                }
            }
        }
        let share = replayed as f64 / (run + replayed) as f64;
        assert!(share >= 0.4, "replayed share {share:.3}");
    }

    /// A squash model at rate 0 must be indistinguishable — bit for
    /// bit, on every counter — from a config that never mentions the
    /// squash model at all. This is the executable spec that makes the
    /// speculation model a pure extension.
    #[test]
    fn squash_rate_zero_is_bit_identical_to_no_squash_model() {
        use spb_trace::SquashConfig;
        let app = AppProfile::by_name("x264").unwrap();
        let base = SimConfig::quick().with_sb(14).with_policy(PolicyKind::spb_default());
        let zero = base
            .clone()
            .with_squash(SquashConfig::parse("rate=0,depth=8..32,storm=4,seed=9").unwrap());
        let a = Simulation::with_config(&app, &base).run_or_panic();
        let b = Simulation::with_config(&app, &zero).run_or_panic();
        assert_bit_identical(&a, &b, "squash rate 0");
        assert_eq!(a.cpu.squash_episodes, 0);
    }

    /// Both kernels must agree bit for bit with squash storms on —
    /// wrong-path injection, spec-tagged RFOs and squash attribution
    /// are all cycle-exact state machines, not approximations.
    #[test]
    fn kernels_match_bit_for_bit_with_squash_storms() {
        use spb_trace::SquashConfig;
        let app = AppProfile::by_name("x264").unwrap();
        let squash = SquashConfig::parse("rate=0.1,depth=8..32,storm=2,seed=5").unwrap();
        let cfg = SimConfig::quick()
            .with_sb(14)
            .with_policy(PolicyKind::AtExecute)
            .with_squash(squash);
        let tick = Simulation::with_config(&app, &cfg.clone().with_kernel(KernelMode::Tick))
            .run_or_panic();
        assert!(tick.cpu.squash_episodes > 0, "storms actually fired");
        let fast = Simulation::with_config(&app, &cfg.clone().with_kernel(KernelMode::Wheel))
            .run_or_panic();
        assert_bit_identical(&tick, &fast, "x264 squash storms");
    }

    /// Squash episodes land in the per-core replay recipe and the
    /// wasted-traffic counters line up across layers.
    #[test]
    fn squash_runs_report_episodes_and_wasted_traffic() {
        use spb_trace::SquashConfig;
        let app = AppProfile::by_name("x264").unwrap();
        let cfg = SimConfig::quick()
            .with_sb(14)
            .with_policy(PolicyKind::AtExecute)
            .with_squash(SquashConfig::parse("rate=0.1,depth=8..32,storm=2,seed=5").unwrap());
        let r = Simulation::with_config(&app, &cfg).run_or_panic();
        let per_core_sq: u64 = r.per_core.iter().map(|w| w.squashes).sum();
        assert_eq!(per_core_sq, r.cpu.squash_episodes);
        assert_eq!(r.mem.spec_squashes, r.cpu.squash_episodes);
        assert!(r.cpu.wrong_path_stores_injected > 0);
        assert!(r.mem.spec_wasted_rfos > 0, "at-execute wastes RFOs under storms");
        let squash = r.metrics.get("squash").expect("squash metrics registered");
        assert_eq!(squash.get_counter("wasted_rfos"), Some(r.mem.spec_wasted_rfos));
    }

    /// The watchdog must fire at the same cycle under every kernel —
    /// the skip-ahead loop clamps its jumps to the watchdog deadline.
    #[test]
    fn watchdog_fires_identically_under_all_kernels() {
        let app = AppProfile::by_name("gcc").unwrap();
        let mut cfg = SimConfig::quick();
        cfg.mem.fault = spb_mem::FaultConfig {
            dram_spike_rate: 1.0,
            dram_spike_cycles: 10_000_000,
            ..spb_mem::FaultConfig::none()
        };
        cfg.watchdog_cycles = 5_000;
        let tick = Simulation::with_config(&app, &cfg.clone().with_kernel(KernelMode::Tick))
            .run()
            .unwrap_err();
        assert_eq!(tick.violation.kind, InvariantKind::ForwardProgress);
        let fast = Simulation::with_config(&app, &cfg.clone().with_kernel(KernelMode::Wheel))
            .run()
            .unwrap_err();
        assert_eq!(fast.violation.kind, InvariantKind::ForwardProgress);
        assert_eq!(tick.violation.cycle, fast.violation.cycle);
    }
}
