//! The [`Simulation`] builder: configure, observe, run.
//!
//! This is the one entry point for executing an application profile: a
//! builder that makes the run's knobs — policy, SB size, fault plan,
//! seed, execution kernel — explicit and adds the observability hook:
//! attach any [`spb_obs::Sink`] and the run emits its typed event
//! stream (dispatch stalls, SB traffic, SPB bursts, coherence
//! messages) without changing a single simulated number.
//!
//! # Examples
//!
//! ```
//! use spb_sim::{PolicyKind, SimConfig, Simulation};
//! use spb_trace::profile::AppProfile;
//!
//! let app = AppProfile::by_name("x264").unwrap();
//! let result = Simulation::with_config(&app, &SimConfig::quick())
//!     .policy(PolicyKind::spb_default())
//!     .sb_entries(14)
//!     .run()
//!     .unwrap();
//! assert!(result.ipc() > 0.0);
//! assert!(!result.metrics.is_empty());
//! ```

use crate::config::{PolicyKind, SimConfig};
use crate::runner::{advance, merge_cpu_stats, RunError, RunResult};
use spb_cpu::core::{Core, CpuStats};
use spb_energy::{EnergyEvents, EnergyModel};
use spb_mem::checker::InvariantViolation;
use spb_mem::{FaultConfig, MemorySystem};
use spb_obs::{Event, EventKind, MetricsRegistry, Observer, Phase, Sink};
use spb_stats::{Histogram, TopDown};
use spb_trace::profile::AppProfile;

/// A configured, runnable simulation of one application.
///
/// Build one with [`Simulation::new`] (paper-budget defaults) or
/// [`Simulation::with_config`], refine it with the chainable setters,
/// and execute with [`Simulation::run`].
#[derive(Debug, Clone)]
pub struct Simulation {
    profile: AppProfile,
    cfg: SimConfig,
    observer: Observer,
}

impl Simulation {
    /// A simulation of `profile` with the paper's default budget
    /// ([`SimConfig::paper_default`]).
    pub fn new(profile: &AppProfile) -> Simulation {
        Simulation::with_config(profile, &SimConfig::paper_default())
    }

    /// A simulation of `profile` starting from an explicit config.
    pub fn with_config(profile: &AppProfile, cfg: &SimConfig) -> Simulation {
        Simulation {
            profile: profile.clone(),
            cfg: cfg.clone(),
            observer: Observer::off(),
        }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: SimConfig) -> Simulation {
        self.cfg = cfg;
        self
    }

    /// Selects the store-prefetch policy.
    pub fn policy(mut self, policy: PolicyKind) -> Simulation {
        self.cfg.policy = policy;
        self
    }

    /// Sets the store-buffer size under study.
    pub fn sb_entries(mut self, sb_entries: usize) -> Simulation {
        self.cfg.core.sb_entries = sb_entries;
        self
    }

    /// Sets the fault-injection plan.
    pub fn faults(mut self, fault: FaultConfig) -> Simulation {
        self.cfg.mem.fault = fault;
        self
    }

    /// Sets the trace-generation seed.
    pub fn seed(mut self, seed: u64) -> Simulation {
        self.cfg.seed = seed;
        self
    }

    /// Attaches a sink to receive the run's event stream. Events are
    /// pure reads of simulator state: the run's cycle counts are
    /// bit-identical with or without a sink.
    pub fn observe(self, sink: impl Sink + 'static) -> Simulation {
        self.observer(Observer::new(sink))
    }

    /// Attaches an already-built [`Observer`] (e.g. from
    /// [`spb_obs::Collector::observer`]).
    pub fn observer(mut self, observer: Observer) -> Simulation {
        self.observer = observer;
        self
    }

    /// Runs the simulation: one core per thread over a shared memory
    /// hierarchy, warm-up, then a fixed per-core measured µop budget.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] (boxed — it carries the violation's event
    /// history and diagnostic strings) when the coherence invariant
    /// checker detects a violation or the forward-progress watchdog
    /// expires.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (zero
    /// queues).
    pub fn run(&self) -> Result<RunResult, Box<RunError>> {
        let profile = &self.profile;
        let cfg = &self.cfg;
        let wall_start = std::time::Instant::now();
        let threads = profile.threads() as usize;
        let mut mem_cfg = cfg.mem.clone();
        mem_cfg.cores = threads;
        let mut mem = MemorySystem::new(mem_cfg);
        mem.set_observer(self.observer.clone());

        let mut core_cfg = cfg.core;
        if let Some(sb) = cfg.policy.sb_override() {
            core_cfg.sb_entries = sb;
        }
        core_cfg.validate();

        let traces = profile.build_threads(cfg.seed);
        let mut cores: Vec<Core> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                // When the squash model is off no injector exists at
                // all: the trace object is the same one a build without
                // the speculation model would hand the core.
                let trace: Box<dyn spb_trace::TraceSource + Send> = if cfg.squash.enabled() {
                    Box::new(spb_trace::SquashInjector::new(t, cfg.squash, i))
                } else {
                    Box::new(t)
                };
                let mut core = Core::new(i, core_cfg, trace, cfg.policy.build());
                core.set_observer(self.observer.clone());
                core
            })
            .collect();

        let fail = |violation: InvariantViolation| {
            Box::new(RunError {
                app: profile.name().to_string(),
                policy: cfg.policy.label(),
                sb_entries: cfg.effective_sb(),
                violation,
            })
        };

        let mut now: u64 = 0;
        // Warm-up: run until the slowest core has committed the budget.
        self.observer.emit(|| Event {
            cycle: now,
            core: 0,
            kind: EventKind::PhaseBegin(Phase::Warmup),
        });
        advance(
            &mut cores,
            &mut mem,
            &mut now,
            cfg.warmup_uops,
            cfg.watchdog_cycles,
            cfg.kernel,
        )
        .map_err(fail)?;
        // Trace position at the measure boundary: commit is in order, so
        // each core has consumed exactly this many trace entries.
        let warmup_committed: Vec<u64> = cores.iter().map(|c| c.committed_uops()).collect();
        let warmup_squashes: Vec<u64> = cores.iter().map(|c| c.stats().squash_episodes).collect();
        for core in &mut cores {
            core.reset_stats();
        }
        mem.reset_stats();
        let warmup_ms = wall_start.elapsed().as_secs_f64() * 1000.0;
        let measure_start = now;

        self.observer.emit(|| Event {
            cycle: now,
            core: 0,
            kind: EventKind::PhaseBegin(Phase::Measure),
        });
        let kernel = advance(
            &mut cores,
            &mut mem,
            &mut now,
            cfg.measure_uops,
            cfg.watchdog_cycles,
            cfg.kernel,
        )
        .map_err(fail)?;
        for core in &mut cores {
            core.flush_stall_episode();
        }
        if cfg.mem.checker_interval > 0 {
            // One thorough end-of-run pass, including the expensive
            // inverse directory check the periodic scan skips.
            mem.check_invariants_thorough(now).map_err(fail)?;
        }
        mem.finalize_stats();
        let measure_ms = wall_start.elapsed().as_secs_f64() * 1000.0 - warmup_ms;

        let cycles = now - measure_start;
        let mut topdown = TopDown::new();
        let mut cpu = CpuStats::default();
        let mut uops = 0;
        let mut sb_residency = Histogram::new("sb_residency_cycles", 16, 64);
        let mut per_core = Vec::with_capacity(cores.len());
        for ((core, &warmup), &warm_sq) in cores.iter().zip(&warmup_committed).zip(&warmup_squashes)
        {
            topdown.merge(core.topdown());
            merge_cpu_stats(&mut cpu, core.stats());
            sb_residency.merge(core.sb_residency());
            uops += core.committed_uops();
            per_core.push(crate::runner::CoreWindow {
                warmup_uops: warmup,
                uops: core.committed_uops(),
                stores: core.stats().committed_stores,
                loads: core.stats().committed_loads,
                branches: core.stats().committed_branches,
                warmup_squashes: warm_sq,
                squashes: core.stats().squash_episodes,
            });
        }

        let mem_stats = mem.stats().clone();
        let events = EnergyEvents {
            cycles: cycles * threads as u64,
            committed_uops: uops,
            wrong_path_uops: cpu.wrong_path_uops,
            l1_accesses: mem_stats.l1_data_accesses + cpu.wrong_path_l1_accesses,
            l1_tag_checks: mem_stats.l1_tag_checks,
            l2_accesses: mem_stats.l2_accesses,
            l3_accesses: mem_stats.l3_accesses,
            dram_accesses: mem_stats.dram_accesses + mem_stats.writebacks,
        };
        let energy = EnergyModel::default().evaluate(&events);

        let burst_lengths = mem.burst_lengths().clone();
        let mut result = RunResult {
            app: profile.name().to_string(),
            policy: cfg.policy.label(),
            sb_entries: cfg.effective_sb(),
            cycles,
            uops,
            topdown,
            cpu,
            mem: mem_stats,
            per_core,
            sb_residency,
            burst_lengths,
            energy,
            metrics: MetricsRegistry::new(),
            kernel,
            wall_ms: wall_start.elapsed().as_secs_f64() * 1000.0,
        };
        result.metrics = build_metrics(&result, threads, warmup_ms, measure_ms);
        Ok(result)
    }

    /// [`Simulation::run`], panicking with the violation's full
    /// diagnostic instead of returning an error — for tests and
    /// experiments where an aborted run is a bug.
    ///
    /// # Panics
    ///
    /// Panics when [`Simulation::run`] would return an error.
    pub fn run_or_panic(&self) -> RunResult {
        self.run().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Registers the run's headline numbers, counters and distributions in
/// a [`MetricsRegistry`], grouped by component.
fn build_metrics(
    r: &RunResult,
    threads: usize,
    warmup_ms: f64,
    measure_ms: f64,
) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.component("runner")
        .counter("cycles", r.cycles)
        .counter("uops", r.uops)
        .counter("cores", threads as u64)
        .gauge("ipc", r.ipc())
        .gauge("warmup_ms", warmup_ms)
        .gauge("measure_ms", measure_ms);
    reg.component("cpu")
        .counter("committed_stores", r.cpu.committed_stores)
        .counter("committed_loads", r.cpu.committed_loads)
        .counter("committed_branches", r.cpu.committed_branches)
        .counter("mispredicts", r.cpu.mispredicts)
        .counter("store_forwards", r.cpu.store_forwards)
        .counter("coalesced_stores", r.cpu.coalesced_stores)
        .gauge("sb_stall_ratio", r.sb_stall_ratio());
    reg.component("mem")
        .counter("loads", r.mem.loads)
        .counter("load_dram", r.mem.load_dram)
        .counter("stores_performed", r.mem.stores_performed)
        .counter("store_retries", r.mem.store_retries)
        .counter("demand_store_misses", r.mem.demand_store_misses)
        .counter("writebacks", r.mem.writebacks)
        .counter("invalidations", r.mem.invalidations)
        .counter("l2_accesses", r.mem.l2_accesses)
        .counter("l3_accesses", r.mem.l3_accesses)
        .counter("dram_accesses", r.mem.dram_accesses);
    reg.component("sb").histogram(&r.sb_residency);
    reg.component("spb").histogram(&r.burst_lengths);
    // Registered only when the squash model actually fired, so runs
    // without it serialize the exact metric set they always had.
    if r.cpu.squash_episodes > 0 {
        reg.component("squash")
            .counter("episodes", r.cpu.squash_episodes)
            .counter("wrong_path_stores", r.cpu.wrong_path_stores_injected)
            .counter("spec_rfos_issued", r.mem.spec_rfos_issued)
            .counter("wasted_rfos", r.mem.spec_wasted_rfos)
            .counter("wasted_coh_msgs", r.mem.spec_wasted_coh_msgs)
            .counter("leaked_m_blocks", r.mem.spec_leaked_m_blocks)
            .counter("wasted_dram", r.mem.spec_wasted_dram)
            .counter("dropped_burst_entries", r.mem.spec_dropped);
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_obs::Collector;

    #[test]
    fn builder_setters_reach_the_config() {
        let app = AppProfile::by_name("gcc").unwrap();
        let sim = Simulation::with_config(&app, &SimConfig::quick())
            .policy(PolicyKind::IdealSb)
            .sb_entries(20)
            .seed(99);
        assert_eq!(sim.cfg.seed, 99);
        assert_eq!(sim.cfg.core.sb_entries, 20);
    }

    #[test]
    fn run_registers_metrics() {
        let app = AppProfile::by_name("gcc").unwrap();
        let r = Simulation::with_config(&app, &SimConfig::quick())
            .run()
            .unwrap();
        let runner = r.metrics.get("runner").expect("runner component");
        assert_eq!(runner.get_counter("cycles"), Some(r.cycles));
        assert_eq!(runner.get_counter("uops"), Some(r.uops));
        assert!(runner.get_gauge("measure_ms").unwrap() >= 0.0);
        assert_eq!(
            r.metrics
                .get("cpu")
                .unwrap()
                .get_counter("committed_stores"),
            Some(r.cpu.committed_stores)
        );
    }

    #[test]
    fn observing_a_run_changes_no_simulated_number() {
        let app = AppProfile::by_name("x264").unwrap();
        let cfg = SimConfig::quick()
            .with_sb(14)
            .with_policy(PolicyKind::spb_default());
        let plain = Simulation::with_config(&app, &cfg).run().unwrap();
        let collector = Collector::new();
        let observed = Simulation::with_config(&app, &cfg)
            .observer(collector.observer())
            .run()
            .unwrap();
        assert_eq!(plain.cycles, observed.cycles);
        assert_eq!(plain.uops, observed.uops);
        assert_eq!(plain.mem, observed.mem);
        assert!(!collector.is_empty(), "the observed run produced events");
    }

    #[test]
    fn observed_run_emits_the_headline_event_kinds() {
        let app = AppProfile::by_name("x264").unwrap();
        let cfg = SimConfig::quick()
            .with_sb(14)
            .with_policy(PolicyKind::spb_default());
        let collector = Collector::new();
        Simulation::with_config(&app, &cfg)
            .observer(collector.observer())
            .run()
            .unwrap();
        let events = collector.take();
        let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(k, EventKind::PhaseBegin(Phase::Measure))));
        assert!(has(&|k| matches!(k, EventKind::StallEpisode { .. })));
        assert!(has(&|k| matches!(k, EventKind::SbEnqueue { .. })));
        assert!(has(&|k| matches!(k, EventKind::SbDrain { .. })));
        assert!(has(&|k| matches!(k, EventKind::BurstDetected { .. })));
        assert!(has(&|k| matches!(k, EventKind::BurstIssued { .. })));
        assert!(has(&|k| matches!(k, EventKind::Coherence { .. })));
        assert!(has(&|k| matches!(k, EventKind::MshrAlloc { .. })));
    }
}
