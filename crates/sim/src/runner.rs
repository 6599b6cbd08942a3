//! Run results, run errors, and the advance loop (both kernels).
//!
//! The execution entry point is [`crate::simulation::Simulation`]. The
//! loop itself comes in two bit-identical flavours selected by
//! [`crate::config::KernelMode`]: the lock-step reference kernel
//! ([`advance_tick`]) ticks every component every cycle, and the
//! skip-ahead kernel ([`advance_skip_ahead`], the default) ticks the
//! memory system only when it has work, probes the cores only on
//! cycles where nothing committed, and jumps the clock to the earliest
//! wakeup whenever nobody has same-cycle work (see DESIGN.md §9 and
//! §12 for the contract).

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
    pub fn uops_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.uops as f64 / (self.wall_ms / 1000.0)
        }
    }
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
/// `target` µops, using the selected kernel. Both kernels poll the
/// memory system's invariant checker and watch for forward progress,
/// and produce bit-identical results.
pub(crate) fn advance(
    cores: &mut [Core],
    mem: &mut MemorySystem,
    now: &mut u64,
    target: u64,
    watchdog: u64,
    kernel: KernelMode,
) -> Result<(), InvariantViolation> {
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
) -> Result<(), InvariantViolation> {
    let mut last_min = 0u64;
    let mut last_progress_at = *now;
    loop {
        let min_uops = cores.iter().map(|c| c.committed_uops()).min().unwrap_or(0);
        if min_uops >= target {
            return Ok(());
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
        if let Some(v) = mem.take_violation() {
            return Err(v);
        }
        *now += 1;
    }
}

/// Longest stretch of unprobed cycles the skip-ahead kernel allows
/// once probes keep finding same-cycle work.
const MAX_PROBE_BACKOFF: u64 = 64;

/// The skip-ahead kernel (DESIGN.md §12), run for both the `wheel`
/// and the `event` spelling.
///
/// - The memory system is ticked only on cycles where it has observable
///   work. [`MemorySystem::wake_at`] is an O(1) read of state the
///   memory system publishes at the moment it changes (cached checker /
///   observer boundaries, burst-queue drain eligibility), not a probe
///   that recomputes boundaries every cycle.
/// - Cores are probed for a horizon only on cycles where no core
///   committed a µop — commit progress is the cheap busy signal.
/// - Each entered cycle runs exactly as under [`advance_tick`]; when
///   everyone is quiescent the clock jumps to the minimum of the
///   memory system's wakeup, every core's horizon and the watchdog
///   deadline, all read in that same probe, with the skipped span
///   bulk-replayed (`Core::skip_span`). A wakeup may be early (the
///   woken component finds no work and the next probe skips again) but
///   never late, so checker runs, observer samples, burst issues and
///   the watchdog all happen at exactly the cycles the lock-step kernel
///   would have executed them.
pub(crate) fn advance_skip_ahead(
    cores: &mut [Core],
    mem: &mut MemorySystem,
    now: &mut u64,
    target: u64,
    watchdog: u64,
) -> Result<(), InvariantViolation> {
    let mut last_min = 0u64;
    let mut last_progress_at = *now;
    let mut last_total: u64 = cores.iter().map(|c| c.committed_uops()).sum();
    // Probe backoff for busy-but-not-committing stretches: skipping a
    // probe is always sound (the cycle then runs exactly as under the
    // lock-step kernel), so each consecutive busy probe doubles the
    // distance to the next one (capped) and an idle probe resets it.
    let mut next_probe_at = *now;
    let mut busy_backoff = 0u64;
    loop {
        let min_uops = cores.iter().map(|c| c.committed_uops()).min().unwrap_or(0);
        if min_uops >= target {
            return Ok(());
        }
        if min_uops > last_min {
            last_min = min_uops;
            last_progress_at = *now;
        } else if watchdog > 0 && *now - last_progress_at > watchdog {
            return Err(watchdog_violation(mem, *now, watchdog, min_uops, target));
        }

        // The cycle itself, exactly as under the lock-step kernel —
        // except the memory system is ticked only when it has work.
        if mem.wake_at(*now) <= *now {
            mem.tick(*now);
        }
        for core in cores.iter_mut() {
            core.cycle(mem, *now);
        }
        if let Some(v) = mem.take_violation() {
            return Err(v);
        }

        // Commit progress is the busy signal: as long as some core
        // commits, keep running cycles without probing anyone.
        let new_total: u64 = cores.iter().map(|c| c.committed_uops()).sum();
        let committed = new_total != last_total;
        last_total = new_total;
        if committed || *now < next_probe_at {
            *now += 1;
            continue;
        }

        // No commit anywhere: probe each core once. Any same-cycle work
        // means the machine is still busy (e.g. a drain mid-burst) —
        // back off and keep cycling.
        let mut wake = u64::MAX;
        let mut busy = false;
        for core in cores.iter_mut() {
            match core.next_event_at(*now) {
                Some(t) if t <= *now => {
                    busy = true;
                    break;
                }
                Some(t) => wake = wake.min(t),
                None => {}
            }
        }
        if busy {
            busy_backoff = (busy_backoff * 2).clamp(1, MAX_PROBE_BACKOFF);
            next_probe_at = *now + busy_backoff;
            *now += 1;
            continue;
        }
        busy_backoff = 0;
        wake = wake.min(mem.wake_at(*now));
        if watchdog > 0 {
            // First cycle at which the watchdog check above fires.
            wake = wake.min(last_progress_at + watchdog + 1);
        }
        if wake == u64::MAX {
            // No pending events anywhere and no watchdog: run normal
            // cycles, replicating the lock-step kernel's behaviour
            // (spin until the caller's target or forever).
            *now += 1;
            continue;
        }
        // The cycle at `*now` already ran, so the quiescent span to
        // replay starts one cycle later.
        let t = wake.max(*now + 1);
        for core in cores.iter_mut() {
            core.skip_span(mem, *now + 1, t);
        }
        *now = t;
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
    use crate::config::{PolicyKind, SimConfig};
    use crate::simulation::Simulation;
    use spb_trace::profile::AppProfile;

    /// Asserts that two runs agree on cycles, µops, Top-Down, core and
    /// memory counters, per-core windows and both histograms.
    fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
        assert_eq!(a.cycles, b.cycles, "{label}");
        assert_eq!(a.uops, b.uops, "{label}");
        assert_eq!(a.topdown, b.topdown, "{label}");
        assert_eq!(a.cpu, b.cpu, "{label}");
        assert_eq!(a.mem, b.mem, "{label}");
        assert_eq!(a.per_core, b.per_core, "{label}");
        assert_eq!(a.sb_residency, b.sb_residency, "{label}");
        assert_eq!(a.burst_lengths, b.burst_lengths, "{label}");
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
        use crate::config::KernelMode;
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

    /// As above, for the multi-core PARSEC path (cross-core
    /// invalidations and downgrades exercise the skip-ahead kernel's
    /// retire-before-remote-kill discipline).
    #[test]
    fn kernels_match_bit_for_bit_on_eight_cores() {
        use crate::config::KernelMode;
        let app = AppProfile::by_name("dedup").unwrap();
        let mut cfg = SimConfig::quick();
        cfg.warmup_uops = 3_000;
        cfg.measure_uops = 30_000;
        let tick = Simulation::with_config(&app, &cfg.clone().with_kernel(KernelMode::Tick))
            .run_or_panic();
        let wheel = Simulation::with_config(&app, &cfg.clone().with_kernel(KernelMode::Wheel))
            .run_or_panic();
        assert_bit_identical(&tick, &wheel, "dedup wheel");
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
        use crate::config::KernelMode;
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
        use crate::config::KernelMode;
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
