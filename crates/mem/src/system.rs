//! The assembled memory hierarchy.
//!
//! [`MemorySystem`] wires together per-core private L1D and L2 caches, a
//! shared L3, a full-map MESI directory, a bandwidth-limited DRAM port,
//! the generic L1 prefetcher, and — central to the paper — the
//! **L1-controller prefetch-burst queue** that SPB pushes page-sized RFO
//! bursts into.
//!
//! The timing model is "fill at issue": a miss inserts its line
//! immediately with a `ready` cycle computed from the level that
//! services it (plus directory actions and DRAM queueing); accesses that
//! find a line whose `ready` is in the future are *hits under fill*,
//! which is exactly the paper's transient `IM`/`PF_IM` situation.

use crate::blockmap::BlockMap;
use crate::cache::{CacheArray, CacheGeometry, Eviction};
use crate::checker::{CoherenceKind, Event, EventLog, InvariantKind, InvariantViolation};
use crate::directory::{DirEntry, Directory};
use crate::dram::{DramConfig, DramPort};
use crate::fault::{FaultConfig, FaultPlan};
use crate::line::{CoherenceState, RfoOrigin};
use crate::mshr::MshrFile;
use crate::prefetch::{Prefetcher, PrefetcherKind};
use spb_obs::{EventKind as ObsEventKind, Observer};
use spb_stats::Histogram;
use std::collections::VecDeque;

/// An MSHR entry whose completion lies further than this beyond `now` is
/// reported as leaked/stuck by the invariant checker. Generous enough
/// that even a fault-injected DRAM spike of millions of cycles (as the
/// watchdog tests use) stays below it only when intended.
const MSHR_STUCK_HORIZON: u64 = 50_000_000;

/// Events kept per run for violation diagnostics when the checker is on.
const EVENT_LOG_CAPACITY: usize = 256;

/// How often [`MemorySystem::tick`] samples MSHR/DRAM occupancies into an
/// attached observer. Sampling is skipped entirely when no sink is
/// attached.
const OBS_SAMPLE_INTERVAL: u64 = 64;

/// Structural and timing parameters of the hierarchy (Table I defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    /// Number of cores (1 for SPEC runs, 8 for PARSEC runs).
    pub cores: usize,
    /// L1D capacity in bytes.
    pub l1_size: u64,
    /// L1D associativity.
    pub l1_ways: usize,
    /// L1D hit latency in cycles.
    pub l1_latency: u64,
    /// Private L2 capacity in bytes.
    pub l2_size: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// Shared L3 capacity in bytes.
    pub l3_size: u64,
    /// L3 associativity.
    pub l3_ways: usize,
    /// L3 hit latency in cycles.
    pub l3_latency: u64,
    /// MSHR entries per core (per-cache in Table I).
    pub mshrs_per_core: usize,
    /// DRAM port parameters.
    pub dram: DramConfig,
    /// Generic L1 prefetcher.
    pub prefetcher: PrefetcherKind,
    /// RFO prefetches the L1 controller issues from the burst queue per
    /// cycle (SPB's drain rate).
    pub burst_issue_per_cycle: u32,
    /// Extra latency for 3-hop coherence (remote cache involvement).
    pub remote_penalty: u64,
    /// Deterministic fault injection; [`FaultConfig::none`] (the
    /// default) disables it with zero perturbation.
    pub fault: FaultConfig,
    /// Run the coherence invariant checker every this many cycles in
    /// [`MemorySystem::tick`] (0 disables periodic checking).
    pub checker_interval: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self {
            cores: 1,
            l1_size: 32 * 1024,
            l1_ways: 8,
            l1_latency: 4,
            l2_size: 1024 * 1024,
            l2_ways: 16,
            l2_latency: 14,
            l3_size: 16 * 1024 * 1024,
            l3_ways: 16,
            l3_latency: 36,
            mshrs_per_core: 64,
            dram: DramConfig::default(),
            prefetcher: PrefetcherKind::Stride,
            burst_issue_per_cycle: 4,
            remote_penalty: 40,
            fault: FaultConfig::none(),
            checker_interval: 16_384,
        }
    }
}

/// The cache level (or remote cache) that serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Serviced by the local L1D.
    L1,
    /// Serviced by the private L2.
    L2,
    /// Serviced by the shared L3.
    L3,
    /// Serviced by another core's cache (3-hop).
    Remote,
    /// Serviced by memory.
    Dram,
}

/// Outcome of a demand load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle the data is available to the core.
    pub ready: u64,
    /// Whether the access hit a ready line in L1.
    pub l1_hit: bool,
    /// Which level ultimately serviced it.
    pub level: Level,
}

/// Whether an access needs read or write permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// A readable copy suffices.
    Read,
    /// Ownership (write permission) is required.
    Own,
}

/// Outcome of the head-of-SB store trying to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreDrainOutcome {
    /// The store wrote to L1 this cycle; the SB entry can be freed.
    Performed {
        /// Whether it hit a ready, writable line (vs having waited).
        l1_hit: bool,
    },
    /// The line is not writable/ready yet; retry at the given cycle.
    Retry {
        /// Earliest cycle at which retrying can succeed.
        at: u64,
    },
}

/// Outcome of a store-prefetch (RFO) request at the L1 controller,
/// mirroring the messages in the paper's Figure 4 running example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfoResponse {
    /// The block is already owned (or being fetched with ownership); the
    /// request is discarded — the paper's `PopReq`.
    Discarded,
    /// The request merged into (and upgraded) an in-flight miss.
    Merged,
    /// A new ownership request was issued — `GetX`/`GetPFx`.
    Issued,
    /// The MSHR file was full; the request waits in the L1 controller's
    /// prefetch queue and will be re-issued.
    Queued,
}

/// How much host-side work the memory system has done since it was
/// built: exact, deterministic counters of the model's own bookkeeping,
/// not of the simulated machine. They never reset (the simulation runner
/// takes differences), stay out of [`MemStats`] and so out of every
/// record, cache key and bit-identity comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemWork {
    /// [`MemorySystem::tick`] calls.
    pub ticks: u64,
    /// [`MemorySystem::check_invariants`] runs.
    pub checker_runs: u64,
    /// Blocks the incremental line check re-verified (one per pending
    /// block per run, whether or not it was still in flight).
    pub checker_blocks_visited: u64,
}

/// Aggregate counters exposed by the memory system.
///
/// Per-[`RfoOrigin`] arrays are indexed by [`RfoOrigin::index`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand loads observed.
    pub loads: u64,
    /// Loads hitting a ready L1 line.
    pub load_l1_hits: u64,
    /// Loads serviced by L2.
    pub load_l2_hits: u64,
    /// Loads serviced by L3.
    pub load_l3_hits: u64,
    /// Loads serviced by a remote cache.
    pub load_remote_hits: u64,
    /// Loads serviced by DRAM.
    pub load_dram: u64,
    /// Stores that performed (drained from an SB).
    pub stores_performed: u64,
    /// Stores that performed on their first L1 attempt.
    pub store_l1_ready_hits: u64,
    /// Store drain attempts that had to retry.
    pub store_retries: u64,
    /// Demand store misses (no line, no in-flight request).
    pub demand_store_misses: u64,
    /// RFO/prefetch requests sent by the CPU to the L1 controller.
    pub prefetch_requests: [u64; 4],
    /// Of those, requests that missed L1 and generated downstream
    /// traffic (Figure 12's MISS series).
    pub prefetch_downstream: [u64; 4],
    /// Prefetched blocks whose first demand use found them ready and
    /// owned (Figure 11 "successful").
    pub prefetch_successful: [u64; 4],
    /// Prefetched blocks demanded while still in flight ("late").
    pub prefetch_late: [u64; 4],
    /// Prefetched blocks evicted/invalidated unused but demanded later
    /// ("early").
    pub prefetch_early: [u64; 4],
    /// Prefetched blocks never demanded (finalized at end of run).
    pub prefetch_never_used: [u64; 4],
    /// Dirty evictions written back.
    pub writebacks: u64,
    /// Coherence invalidations delivered to private caches.
    pub invalidations: u64,
    /// L1 conflict/capacity misses on blocks that were recently evicted
    /// (re-reference misses — the `roms` pollution signal).
    pub l1_rereference_misses: u64,
    /// L1D tag-array checks (demand + prefetch + drain attempts).
    pub l1_tag_checks: u64,
    /// L1D accesses (loads + performed stores), for the energy model.
    pub l1_data_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L3 accesses.
    pub l3_accesses: u64,
    /// DRAM accesses (fills; write-backs counted separately).
    pub dram_accesses: u64,
    /// Injected faults: store-prefetch acks delayed.
    pub faults_ack_delayed: u64,
    /// Injected faults: DRAM fills spiked.
    pub faults_dram_spiked: u64,
    /// Injected faults: prefetches denied an MSHR entry.
    pub faults_mshr_denied: u64,
    /// Injected faults: SPB burst blocks dropped.
    pub faults_bursts_dropped: u64,
    /// Times a coherence repair path actually changed state versus the
    /// pre-repair model: a forgotten directory entry re-registered, a
    /// stale in-flight MSHR entry killed by a remote invalidation or
    /// downgraded by a remote read, or a merge-upgrade that had to
    /// invalidate remote sharers. Zero means the run was bit-identical
    /// to the un-repaired model.
    pub coherence_repairs: u64,
    /// Speculative (wrong-path) RFOs issued or merged downstream.
    pub spec_rfos_issued: u64,
    /// Of those, RFOs attributed as wasted at squash time: the squash
    /// arrived before any architectural store reached the block.
    pub spec_wasted_rfos: u64,
    /// Coherence messages (remote invalidations) caused by RFOs later
    /// attributed as wasted.
    pub spec_wasted_coh_msgs: u64,
    /// Blocks a squashed speculative burst left in M/E state without any
    /// architectural store ever reaching them — the leak the ret2spec /
    /// speculative-buffer-overflow footprint is made of.
    pub spec_leaked_m_blocks: u64,
    /// DRAM fills caused by RFOs later attributed as wasted.
    pub spec_wasted_dram: u64,
    /// Squash episodes attributed to this memory system.
    pub spec_squashes: u64,
    /// Speculative burst-queue entries dropped at squash time before
    /// they could issue (queued behind a full MSHR file).
    pub spec_dropped: u64,
}

impl MemStats {
    /// Total prefetch requests across all origins.
    pub fn total_prefetch_requests(&self) -> u64 {
        self.prefetch_requests.iter().sum()
    }

    /// Interconnect coherence traffic: messages the run put on the
    /// network beyond private-cache hits — prefetch misses that went
    /// downstream (Figure 12's MISS series), dirty write-backs,
    /// invalidations delivered to other caches, and remote-cache load
    /// transfers. This is the traffic objective `spbsim tune` minimizes
    /// alongside cycles and energy: an over-aggressive burst policy
    /// shows up here before it shows up in cycles.
    pub fn coherence_traffic(&self) -> u64 {
        self.prefetch_downstream.iter().sum::<u64>()
            + self.writebacks
            + self.invalidations
            + self.load_remote_hits
    }
}

/// Per-block record of speculation-caused ownership: which core's
/// wrong-path RFO turned the block M/E, and the downstream traffic it
/// cost. Drained into the `spec_*` waste counters at squash time;
/// removed the moment an architectural store performs to the block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpecTag {
    core: u8,
    rfos: u32,
    coh: u32,
    dram: u32,
}

struct CoreMem {
    l1: CacheArray,
    l2: CacheArray,
    mshr: MshrFile,
    prefetcher: Prefetcher,
    /// `(block, origin, speculative)`: speculative entries are dropped
    /// (and counted) if the squash arrives before they issue.
    burst_queue: VecDeque<(u64, RfoOrigin, bool)>,
    /// Latest completion time among outstanding demand misses.
    demand_miss_until: u64,
}

/// The assembled memory hierarchy. See the [module docs](self).
pub struct MemorySystem {
    config: MemoryConfig,
    cores: Vec<CoreMem>,
    l3: CacheArray,
    directory: Directory,
    dram: DramPort,
    /// Blocks brought by a prefetch and evicted unused; a later demand
    /// makes the prefetch "early", otherwise it ends "never used".
    /// A [`BlockMap`] because the hot L1 miss path probes it per miss.
    evicted_unused: BlockMap<RfoOrigin>,
    /// Recently evicted (any) L1 blocks, for re-reference miss counting.
    /// Probed per L1 miss and written per eviction, hence a [`BlockMap`].
    recently_evicted_l1: BlockMap<u64>,
    /// Distribution of SPB burst lengths (blocks per enqueued burst).
    burst_lengths: Histogram,
    stats: MemStats,
    work: MemWork,
    fault: FaultPlan,
    events: EventLog,
    obs: Observer,
    pending_violation: Option<InvariantViolation>,
    /// Blocks awaiting (re-)verification by the incremental invariant
    /// checker: every block from the cache/directory mutation logs lands
    /// here, and blocks whose fill is still in flight at a checking
    /// boundary stay queued until they stabilise. Insertion-ordered.
    checker_pending: Vec<u64>,
    /// Membership set for `checker_pending` (dedup on enqueue).
    checker_pending_set: BlockMap<u8>,
    /// Next invariant-checker boundary, maintained by [`MemorySystem::tick`]
    /// so [`MemorySystem::wake_at`] is a plain field read (`u64::MAX`
    /// when the checker is disabled).
    next_check_at: u64,
    /// Next observer occupancy-sample boundary (relevant only while a
    /// sink is attached).
    next_obs_at: u64,
    /// Blocks whose M/E transition was caused by a speculative
    /// (wrong-path) RFO and that no architectural store has reached yet.
    /// Empty for every run without a squash model (the hot-path guard).
    spec_tags: BlockMap<SpecTag>,
    /// Whether the current [`MemorySystem::store_prefetch`] call is on
    /// behalf of a wrong-path store (set only by
    /// [`MemorySystem::store_prefetch_spec`]); routes a Queued retry
    /// back through the speculative path.
    spec_ctx: bool,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("cores", &self.cores.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl MemorySystem {
    /// Builds an empty hierarchy from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero or exceeds 16 (the directory's
    /// sharer mask), or if a cache geometry is invalid.
    pub fn new(config: MemoryConfig) -> Self {
        // With the checker enabled, private caches and the directory log
        // which blocks they mutate so each boundary check re-verifies
        // only those (see `check_invariants`). Disabled checker → no
        // drain point, so leave the logs off rather than grow forever.
        let audited = config.checker_interval > 0;
        let cores = (0..config.cores)
            .map(|_| CoreMem {
                l1: CacheArray::new(CacheGeometry::new(config.l1_size, config.l1_ways)),
                l2: CacheArray::new(CacheGeometry::new(config.l2_size, config.l2_ways)),
                mshr: MshrFile::new(config.mshrs_per_core),
                prefetcher: Prefetcher::new(config.prefetcher),
                burst_queue: VecDeque::new(),
                demand_miss_until: 0,
            })
            .map(|mut c| {
                if audited {
                    c.l1.enable_mutation_log();
                    c.l2.enable_mutation_log();
                }
                c
            })
            .collect();
        let mut directory = Directory::new(config.cores);
        if audited {
            directory.enable_mutation_log();
        }
        Self {
            l3: CacheArray::new(CacheGeometry::new(config.l3_size, config.l3_ways)),
            directory,
            dram: DramPort::new(config.dram),
            cores,
            evicted_unused: BlockMap::new(),
            recently_evicted_l1: BlockMap::new(),
            burst_lengths: Histogram::new("burst_len_blocks", 8, 9),
            stats: MemStats::default(),
            work: MemWork::default(),
            fault: FaultPlan::new(config.fault),
            events: EventLog::new(if config.checker_interval > 0 {
                EVENT_LOG_CAPACITY
            } else {
                0
            }),
            obs: Observer::off(),
            pending_violation: None,
            checker_pending: Vec::new(),
            checker_pending_set: BlockMap::new(),
            next_check_at: if config.checker_interval > 0 {
                0
            } else {
                u64::MAX
            },
            next_obs_at: 0,
            spec_tags: BlockMap::new(),
            spec_ctx: false,
            config,
        }
    }

    /// Attaches an observability sink. Events are a pure read of
    /// simulator state, so attaching one never changes a simulated
    /// number.
    pub fn set_observer(&mut self, obs: Observer) {
        self.obs = obs;
    }

    /// Records a coherence-protocol action into the checker's ring and
    /// mirrors it to any attached observer.
    fn coh(&mut self, now: u64, core: u8, block: u64, kind: CoherenceKind) {
        let ev = Event::coherence(now, core, block, kind);
        self.events.record(ev);
        self.obs.emit(|| ev);
    }

    /// [`MshrFile::allocate`] plus an `MshrAlloc` event on success.
    fn alloc_mshr(
        &mut self,
        core: usize,
        block: u64,
        ready: u64,
        exclusive: bool,
        prefetch: Option<RfoOrigin>,
        now: u64,
    ) -> Result<(), u64> {
        let r = self.cores[core]
            .mshr
            .allocate(block, ready, exclusive, prefetch, now);
        if r.is_ok() {
            let occupancy = self.cores[core].mshr.len() as u32;
            self.obs.emit(|| Event {
                cycle: now,
                core: core as u8,
                kind: ObsEventKind::MshrAlloc { block, occupancy },
            });
        }
        r
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Read access to the counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The model's own work counters since construction (see [`MemWork`]).
    pub fn work(&self) -> MemWork {
        self.work
    }

    /// Whether `core` has a demand L1D miss outstanding at `now`.
    pub fn has_pending_demand_miss(&self, core: usize, now: u64) -> bool {
        self.cores[core].demand_miss_until > now
    }

    /// The cycle until which `core`'s current demand L1D miss is
    /// outstanding (0 if none was ever recorded). Used by the
    /// skip-ahead kernel to replay the per-cycle
    /// [`MemorySystem::has_pending_demand_miss`] check over a span in
    /// which no memory activity occurs.
    pub fn demand_miss_until(&self, core: usize) -> u64 {
        self.cores[core].demand_miss_until
    }

    /// Number of blocks waiting in `core`'s SPB burst queue.
    pub fn burst_queue_len(&self, core: usize) -> usize {
        self.cores[core].burst_queue.len()
    }

    /// The next cycle at which [`MemorySystem::tick`] has observable
    /// work, or `u64::MAX` if it never will — the skip-ahead kernel's
    /// memory wakeup (DESIGN.md §12).
    ///
    /// This is push-based: the checker/observer boundaries are cached
    /// fields `tick` advances as it crosses them, and a capacity-blocked burst queue contributes
    /// the earliest in-flight MSHR completion (a cached lower bound)
    /// instead of forcing a tick every cycle. Every contribution may
    /// fire early (the tick finds no work — a no-op) but never late, so
    /// ticking exactly at the returned cycles is bit-identical to
    /// ticking every cycle.
    pub fn wake_at(&self, now: u64) -> u64 {
        let mut wake = self.next_check_at;
        if self.obs.enabled() {
            wake = wake.min(self.next_obs_at);
        }
        for c in &self.cores {
            if !c.burst_queue.is_empty() {
                // The drain loop pops only while `len + 4 < capacity`;
                // until occupancy can have dropped to that headroom a
                // tick cannot issue anything.
                // A ≤4-entry file can never take burst traffic.
                if let Some(limit) = c.mshr.capacity().checked_sub(5) {
                    wake = wake.min(c.mshr.drained_to_at(limit, now));
                }
            }
        }
        wake
    }

    /// Distribution of SPB burst lengths observed at the L1 controller.
    pub fn burst_lengths(&self) -> &Histogram {
        &self.burst_lengths
    }

    /// Clears all counters (end of warm-up) without touching cache or
    /// timing state.
    pub fn reset_stats(&mut self) {
        self.burst_lengths.reset();
        self.stats = MemStats::default();
        for c in &mut self.cores {
            c.l1.reset_tag_checks();
            c.l2.reset_tag_checks();
        }
        self.l3.reset_tag_checks();
        self.dram.reset_counters();
        self.evicted_unused.clear();
        self.fault.reset_counts();
    }

    /// Takes the first invariant violation detected since the last call,
    /// if any. The runner polls this and aborts the run with a
    /// structured error instead of silently simulating nonsense.
    pub fn take_violation(&mut self) -> Option<InvariantViolation> {
        self.pending_violation.take()
    }

    /// Test-only protocol mutation: makes the directory forget the owner
    /// of one stable, writable L1 line — the "lost owner" class of
    /// coherence bug (a dropped invalidation ack in a real protocol).
    /// Returns the corrupted block, or `None` if no core currently holds
    /// a stable owned line. `spb-verify` uses this to demonstrate that
    /// the invariant checker and the interleaving fuzzer actually catch
    /// seeded protocol bugs; it must never be called outside tests.
    #[doc(hidden)]
    pub fn seed_lost_owner_mutation(&mut self, now: u64) -> Option<u64> {
        let mut found: Option<(u8, u64)> = None;
        for (i, c) in self.cores.iter().enumerate() {
            if let Some(line) = c.l1.iter_valid().find(|l| {
                l.ready <= now
                    && l.state.writable()
                    && self.directory.entry(l.block) == Some(DirEntry::Owned { owner: i as u8 })
            }) {
                found = Some((i as u8, line.block));
                break;
            }
        }
        let (owner, block) = found?;
        self.directory.evicted(owner, block);
        Some(block)
    }

    fn violation(
        &self,
        kind: InvariantKind,
        block: Option<u64>,
        core: Option<usize>,
        cycle: u64,
        detail: String,
    ) -> InvariantViolation {
        InvariantViolation {
            kind,
            block,
            core,
            cycle,
            detail,
            history: block
                .map(|b| self.events.history_for(b))
                .unwrap_or_default(),
        }
    }

    fn flag_violation(
        &mut self,
        kind: InvariantKind,
        block: Option<u64>,
        core: Option<usize>,
        cycle: u64,
        detail: String,
    ) {
        if self.pending_violation.is_none() {
            self.pending_violation = Some(self.violation(kind, block, core, cycle, detail));
        }
    }

    /// Runs the coherence invariant checks, read-only on simulated state:
    /// calling this never changes a simulated number (it does consume the
    /// checker's own mutation-log bookkeeping).
    ///
    /// Checks, in order:
    /// 1. the directory's own records are well formed;
    /// 2. no MSHR file leaks: no duplicate entries, length within
    ///    capacity, no entry stuck beyond `MSHR_STUCK_HORIZON`;
    /// 3. every *stable* line (fill complete by `now`) in a private L1 or
    ///    L2 agrees with the directory: writable lines (M/E) must be
    ///    tracked as `Owned` by this core, readable lines must be tracked
    ///    at all. Because `Owned` is exclusive by construction, pairwise
    ///    agreement implies the single-writer / multiple-reader invariant
    ///    across cores.
    ///
    /// Lines still in flight (`ready > now` — the paper's `IM`/`PF_IM`
    /// transients) are exempt from check 3: their final state is decided
    /// by the directory grant already recorded.
    ///
    /// Check 3 runs **incrementally**: every lane write that could change
    /// its verdict funnels through a handful of `CacheArray`/`Directory`
    /// methods, which log the affected block. A boundary check re-verifies
    /// exactly the blocks mutated since the previous one (plus any whose
    /// fill was still in flight then). A line untouched since it last
    /// passed — same `(block, state, ready)`, same directory entry —
    /// would pass again, so skipping it loses nothing, and a sweep over
    /// tens of thousands of valid lines becomes a walk over the tens of
    /// blocks that actually changed. `check_invariants_thorough` keeps
    /// the full sweep and cross-audits this bookkeeping once per run,
    /// and a disabled checker (`checker_interval == 0`, logs off) falls
    /// back to the full sweep too.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_invariants(&mut self, now: u64) -> Result<(), InvariantViolation> {
        self.work.checker_runs += 1;
        self.check_directory_and_mshrs(now)?;
        self.check_spec_tags(now)?;
        if self.config.checker_interval > 0 {
            self.check_mutated_lines(now)
        } else {
            self.check_lines_full(now)
        }
    }

    /// Check 4, speculative-tag hygiene: a block still tagged as
    /// speculatively owned must not hold dirty data in the tagging core's
    /// L1. Dirty data means an architectural store performed, and the
    /// performing path untags the line; a dirty-and-tagged line is a
    /// controller that forgot the untag, which would mis-charge committed
    /// work as speculative waste at the next squash. O(tags), and tags
    /// only exist while a wrong-path episode is in flight, so this is
    /// free for every non-speculative configuration.
    fn check_spec_tags(&self, now: u64) -> Result<(), InvariantViolation> {
        if self.spec_tags.is_empty() {
            return Ok(());
        }
        for (block, tag) in self.spec_tags.iter() {
            let core = tag.core as usize;
            if let Some(line) = self.cores[core].l1.peek(block) {
                if line.dirty && line.ready <= now {
                    return Err(self.violation(
                        InvariantKind::SpeculativeLeak,
                        Some(block),
                        Some(core),
                        now,
                        format!(
                            "block is tagged speculative ({} wrong-path RFOs) \
                             but holds dirty data in the tagging core's L1",
                            tag.rfos
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Test-only protocol mutation: marks one speculatively tagged line
    /// dirty in its tagging core's L1 *without* clearing the tag — the
    /// end state of a controller that performs an architectural store but
    /// forgets to untag the line. Returns the corrupted block, or `None`
    /// if no tagged line is currently resident. `spb-verify` uses this as
    /// the negative control proving [`InvariantKind::SpeculativeLeak`] is
    /// actually checked; it must never be called outside tests.
    #[doc(hidden)]
    pub fn seed_forget_untag_mutation(&mut self, now: u64) -> Option<u64> {
        let mut found: Option<(usize, u64)> = None;
        for (block, tag) in self.spec_tags.iter() {
            let core = tag.core as usize;
            if let Some(line) = self.cores[core].l1.peek(block) {
                if line.ready <= now && !line.dirty {
                    found = Some((core, block));
                    break;
                }
            }
        }
        let (core, block) = found?;
        if let Some(mut l) = self.cores[core].l1.lookup(block) {
            l.set_dirty(true);
        }
        Some(block)
    }

    /// Checks 1 and 2 of [`MemorySystem::check_invariants`]: directory
    /// well-formedness (O(1) healthy) and the MSHR-leak sweep (bounded by
    /// the MSHR file's capacity).
    fn check_directory_and_mshrs(&self, now: u64) -> Result<(), InvariantViolation> {
        if let Some((block, why)) = self.directory.find_malformed() {
            return Err(self.violation(InvariantKind::DirectoryState, Some(block), None, now, why));
        }
        for (i, c) in self.cores.iter().enumerate() {
            if c.mshr.len() > c.mshr.capacity() {
                return Err(self.violation(
                    InvariantKind::MshrLeak,
                    None,
                    Some(i),
                    now,
                    format!(
                        "{} entries exceed capacity {}",
                        c.mshr.len(),
                        c.mshr.capacity()
                    ),
                ));
            }
            for (j, e) in c.mshr.iter().enumerate() {
                if e.ready > now.saturating_add(MSHR_STUCK_HORIZON) {
                    return Err(self.violation(
                        InvariantKind::MshrLeak,
                        Some(e.block),
                        Some(i),
                        now,
                        format!(
                            "entry completes at {}, >{MSHR_STUCK_HORIZON} cycles out",
                            e.ready
                        ),
                    ));
                }
                if c.mshr.iter().take(j).any(|p| p.block == e.block) {
                    return Err(self.violation(
                        InvariantKind::MshrLeak,
                        Some(e.block),
                        Some(i),
                        now,
                        "duplicate MSHR entries for one block".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Check 3, line/directory agreement, for one stable line.
    fn line_agrees(
        &self,
        core: usize,
        block: u64,
        state: CoherenceState,
        now: u64,
    ) -> Result<(), InvariantViolation> {
        if state.writable() {
            if self.directory.entry(block) != Some(DirEntry::Owned { owner: core as u8 }) {
                return Err(self.violation(
                    InvariantKind::SingleWriter,
                    Some(block),
                    Some(core),
                    now,
                    format!(
                        "core holds a stable {} copy but the directory says {:?}",
                        state,
                        self.directory.entry(block)
                    ),
                ));
            }
        } else if !self.directory.tracks(core as u8, block) {
            return Err(self.violation(
                InvariantKind::DirectoryAgreement,
                Some(block),
                Some(core),
                now,
                format!(
                    "core holds a stable {} copy the directory does not track ({:?})",
                    state,
                    self.directory.entry(block)
                ),
            ));
        }
        Ok(())
    }

    /// Incremental check 3: drains the cache/directory mutation logs into
    /// the pending queue, then re-verifies exactly those blocks. Blocks
    /// with a line still in flight stay queued for the next boundary.
    fn check_mutated_lines(&mut self, now: u64) -> Result<(), InvariantViolation> {
        {
            let pending = &mut self.checker_pending;
            let member = &mut self.checker_pending_set;
            let mut add = |b: u64| {
                if member.insert(b, 0).is_none() {
                    pending.push(b);
                }
            };
            for &b in self.directory.mutation_log() {
                add(b);
            }
            for c in &self.cores {
                for &b in c.l1.mutation_log() {
                    add(b);
                }
                for &b in c.l2.mutation_log() {
                    add(b);
                }
            }
        }
        self.directory.clear_mutation_log();
        for c in &mut self.cores {
            c.l1.clear_mutation_log();
            c.l2.clear_mutation_log();
        }
        let mut kept = 0;
        for i in 0..self.checker_pending.len() {
            self.work.checker_blocks_visited += 1;
            let block = self.checker_pending[i];
            let mut transient = false;
            for ci in 0..self.cores.len() {
                let c = &self.cores[ci];
                for (state, ready) in [c.l1.peek_state(block), c.l2.peek_state(block)]
                    .into_iter()
                    .flatten()
                {
                    if ready > now {
                        transient = true;
                        continue;
                    }
                    self.line_agrees(ci, block, state, now)?;
                }
            }
            if transient {
                self.checker_pending[kept] = block;
                kept += 1;
            } else {
                self.checker_pending_set.remove(block);
            }
        }
        self.checker_pending.truncate(kept);
        Ok(())
    }

    /// Full-sweep check 3 over every valid private line — the reference
    /// the incremental check is audited against (`check_invariants_thorough`
    /// runs it once per run), and the fallback when mutation logging is
    /// off.
    fn check_lines_full(&self, now: u64) -> Result<(), InvariantViolation> {
        for (i, c) in self.cores.iter().enumerate() {
            // The sweep's directory probes are independent random reads
            // of a large table; issued one per loop iteration they each
            // stall the host pipeline on a cache miss. Buffering a chunk
            // of lines and warming every probe target first overlaps
            // those misses (memory-level parallelism) without changing
            // which line is checked first — chunks are scanned in sweep
            // order and checked in sweep order within the chunk.
            const CHUNK: usize = 64;
            let mut chunk = [(0u64, CoherenceState::Invalid, 0u64); CHUNK];
            let mut lines = c.l1.iter_valid_meta().chain(c.l2.iter_valid_meta());
            loop {
                let mut n = 0;
                for e in lines.by_ref().take(CHUNK) {
                    chunk[n] = e;
                    n += 1;
                }
                if n == 0 {
                    break;
                }
                for &(block, _, ready) in &chunk[..n] {
                    if ready <= now {
                        self.directory.warm(block);
                    }
                }
                for &(block, state, ready) in &chunk[..n] {
                    if ready > now {
                        continue; // transient IM/PF_IM: grant already recorded
                    }
                    self.line_agrees(i, block, state, now)?;
                }
            }
        }
        Ok(())
    }

    /// [`MemorySystem::check_invariants`] with the **full** line sweep
    /// (not the incremental one — this pass also audits the incremental
    /// checker's mutation-log bookkeeping against ground truth), plus the
    /// expensive inverse direction: every directory claim must be backed
    /// by a private-cache line or an in-flight MSHR entry. Intended once
    /// per run (the runner calls it after the measured region).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_invariants_thorough(&self, now: u64) -> Result<(), InvariantViolation> {
        self.check_directory_and_mshrs(now)?;
        self.check_spec_tags(now)?;
        self.check_lines_full(now)?;
        for (block, entry) in self.directory.iter_entries() {
            let holds = |core: usize| {
                self.cores[core].l1.peek(block).is_some()
                    || self.cores[core].l2.peek(block).is_some()
                    || self.cores[core]
                        .mshr
                        .iter()
                        .any(|e| e.block == block && e.ready > now)
            };
            let missing: Option<usize> = match entry {
                DirEntry::Owned { owner } => (!holds(owner as usize)).then_some(owner as usize),
                DirEntry::Shared { sharers } => {
                    (0..self.cores.len()).find(|&c| sharers & (1 << c) != 0 && !holds(c))
                }
            };
            if let Some(core) = missing {
                return Err(self.violation(
                    InvariantKind::DirectoryAgreement,
                    Some(block),
                    Some(core),
                    now,
                    format!(
                        "directory says {entry:?} but the core holds no copy or in-flight entry"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// A human-readable dump of per-core controller state, for the
    /// forward-progress watchdog: what is outstanding, how full the
    /// MSHRs are, and the event history of the most-stuck block.
    pub fn diagnostic_snapshot(&self, now: u64) -> String {
        use std::fmt::Write as _;
        let mut s = format!("memory-system snapshot at cycle {now}:\n");
        for (i, c) in self.cores.iter().enumerate() {
            let max_ready = c.mshr.iter().map(|e| e.ready).max();
            let _ = writeln!(
                s,
                "  core {i}: mshr {}/{} (latest completion {max_ready:?}), \
                 burst queue {}, demand miss until {}",
                c.mshr.len(),
                c.mshr.capacity(),
                c.burst_queue.len(),
                c.demand_miss_until,
            );
        }
        let _ = writeln!(s, "  {}", self.directory);
        if let Some(e) = self
            .cores
            .iter()
            .flat_map(|c| c.mshr.iter())
            .max_by_key(|e| e.ready)
        {
            let _ = writeln!(
                s,
                "  most-stuck block {:#x} (ready at {}):",
                e.block, e.ready
            );
            for h in self.events.history_for(e.block) {
                let _ = writeln!(s, "    {h}");
            }
        }
        s
    }

    /// Folds "never used" prefetches into the stats: blocks still sitting
    /// unused in caches plus evicted-unused blocks that were never
    /// re-demanded. Call once at the end of a measured run.
    pub fn finalize_stats(&mut self) {
        let stats = &mut self.stats;
        for (_, origin) in self.evicted_unused.iter() {
            stats.prefetch_never_used[origin.index()] += 1;
        }
        self.evicted_unused.clear();
        for core in &self.cores {
            for line in core.l1.iter_valid() {
                if let Some(origin) = line.prefetch {
                    if !line.used {
                        self.stats.prefetch_never_used[origin.index()] += 1;
                    }
                }
            }
        }
        // Mirror tag checks into the snapshot.
        self.stats.l1_tag_checks = self.cores.iter().map(|c| c.l1.tag_checks()).sum();
    }

    // -- internal helpers ---------------------------------------------------

    /// Applies a remote invalidation of `block` to each victim core:
    /// kills its L1/L2 copies *and any in-flight MSHR entry* for the
    /// block. Without the MSHR kill, a later store merging into the
    /// stale entry would resurrect a writable copy the directory no
    /// longer grants — a two-writer hazard. Returns whether any victim
    /// copy was dirty.
    fn apply_invalidations(&mut self, victims: &[u8], block: u64, now: u64) -> bool {
        let mut dirty = false;
        for &victim in victims {
            let v = victim as usize;
            self.stats.invalidations += 1;
            self.coh(now, victim, block, CoherenceKind::Invalidated);
            // Retire the victim's completed fills before the kill: the
            // wheel kernel elides no-op ticks, so this is where a
            // completed-but-unretired entry would otherwise be mistaken
            // for an in-flight one (under the other kernels the same
            // cycle's tick has already retired it — a no-op here).
            self.cores[v].mshr.retire_completed(now);
            if let Some(old) = self.cores[v].l1.invalidate(block) {
                dirty |= old.dirty;
                if let Some(origin) = old.prefetch.filter(|_| !old.used) {
                    self.evicted_unused.insert(block, origin);
                }
            }
            if let Some(old) = self.cores[v].l2.invalidate(block) {
                dirty |= old.dirty;
            }
            if self.cores[v].mshr.invalidate_entry(block).is_some() {
                self.stats.coherence_repairs += 1;
            }
        }
        dirty
    }

    /// A store just merged into `core`'s in-flight read request for
    /// `block` and upgraded it to exclusive. Becoming a writer must
    /// still go through the home node: the original read may have left
    /// other sharers in place, and the directory may have forgotten this
    /// core entirely if both private copies were evicted mid-flight.
    /// Charges no extra latency — the fill is already outstanding and
    /// the directory action rides along with the upgrade message.
    fn upgrade_merged_entry(&mut self, core: usize, block: u64, now: u64) {
        let already_owner =
            self.directory.entry(block) == Some(DirEntry::Owned { owner: core as u8 });
        let actions = self.directory.request_exclusive(core as u8, block);
        if !already_owner {
            self.stats.coherence_repairs += 1;
            self.coh(now, core as u8, block, CoherenceKind::Reinstated);
        }
        if self.apply_invalidations(&actions.invalidate, block, now) {
            if let Some(mut l3line) = self.l3.lookup(block) {
                l3line.set_dirty(true);
            }
        }
    }

    fn handle_l1_eviction(&mut self, core: usize, ev: Eviction, now: u64) {
        self.coh(now, core as u8, ev.block, CoherenceKind::EvictedL1);
        if let Some(origin) = ev.unused_prefetch {
            self.evicted_unused.insert(ev.block, origin);
        }
        self.recently_evicted_l1.insert(ev.block, now);
        if self.recently_evicted_l1.len() > 1 << 16 {
            // Bound the map: forget ancient evictions.
            let horizon = now.saturating_sub(200_000);
            self.recently_evicted_l1.retain(|_, t| *t >= horizon);
        }
        if ev.dirty {
            // Write back into L2 (present by inclusion in the common
            // case; otherwise push further down).
            if let Some(mut l2line) = self.cores[core].l2.lookup(ev.block) {
                l2line.set_dirty(true);
                return;
            }
            self.push_writeback_below_l2(core, ev.block, now);
        }
        // If the block is gone from both private levels, tell the home.
        if self.cores[core].l2.peek(ev.block).is_none() {
            self.directory.evicted(core as u8, ev.block);
        }
    }

    fn handle_l2_eviction(&mut self, core: usize, ev: Eviction, now: u64) {
        // Inclusive-ish bookkeeping: L1 may still hold it; only notify
        // the directory when neither level has it.
        if ev.dirty {
            self.push_writeback_below_l2(core, ev.block, now);
        }
        if self.cores[core].l1.peek(ev.block).is_none() {
            self.directory.evicted(core as u8, ev.block);
        }
    }

    fn push_writeback_below_l2(&mut self, _core: usize, block: u64, now: u64) {
        self.stats.writebacks += 1;
        if let Some(mut l3line) = self.l3.lookup(block) {
            l3line.set_dirty(true);
        } else {
            self.dram.writeback(now, block);
        }
    }

    fn handle_l3_eviction(&mut self, ev: Eviction, now: u64) {
        if ev.dirty {
            self.stats.writebacks += 1;
            self.dram.writeback(now, ev.block);
        }
    }

    /// Services a miss below L1: L2 → directory/L3 → DRAM.
    ///
    /// Returns `(ready, level)` and fills L2 (and L3) as needed. Does
    /// *not* touch L1 — callers insert the L1 line so they can set the
    /// right state and prefetch origin.
    fn fill_below_l1(
        &mut self,
        core: usize,
        block: u64,
        now: u64,
        want: Want,
        prefetch: Option<RfoOrigin>,
    ) -> (u64, Level) {
        let exclusive = want == Want::Own;
        self.stats.l2_accesses += 1;
        self.coh(
            now,
            core as u8,
            block,
            if exclusive {
                CoherenceKind::FillOwned
            } else {
                CoherenceKind::FillShared
            },
        );

        // L2 hit with sufficient permission.
        let l2_state = self.cores[core]
            .l2
            .lookup(block)
            .map(|l| (l.state(), l.ready()));
        if let Some((state, line_ready)) = l2_state {
            if !exclusive || state.writable() {
                let ready = line_ready.max(now) + self.config.l2_latency;
                self.cores[core].l2.touch(block);
                if exclusive {
                    if let Some(mut l) = self.cores[core].l2.lookup(block) {
                        l.set_state(CoherenceState::Modified);
                    }
                }
                return (ready, Level::L2);
            }
        }

        // Home node: directory + L3.
        self.stats.l3_accesses += 1;
        let actions = if exclusive {
            self.directory.request_exclusive(core as u8, block)
        } else {
            self.directory.request_shared(core as u8, block)
        };
        let mut remote = 0u64;
        let mut remote_dirty = self.apply_invalidations(&actions.invalidate, block, now);
        if !actions.invalidate.is_empty() {
            remote = self.config.remote_penalty;
        }
        if let Some(owner) = actions.downgrade {
            let o = owner as usize;
            remote = self.config.remote_penalty;
            self.coh(now, owner, block, CoherenceKind::Downgraded);
            if let Some(d) = self.cores[o].l1.downgrade(block) {
                remote_dirty |= d;
            }
            if let Some(d) = self.cores[o].l2.downgrade(block) {
                remote_dirty |= d;
            }
            // A read-downgrade must also strip write permission from the
            // owner's in-flight request, or a later store merge would
            // resurrect it without consulting the directory. Retire the
            // owner's completed fills first so a stale completed entry
            // is never counted as a repaired in-flight one (matches the
            // per-cycle tick the wheel kernel elides).
            self.cores[o].mshr.retire_completed(now);
            if self.cores[o].mshr.downgrade_entry(block) {
                self.stats.coherence_repairs += 1;
            }
        }

        // Upgrade-in-place: L2 had the data in S; the directory round
        // trip is the cost, no data fetch needed.
        if let Some((state, _)) = l2_state {
            if !exclusive || state.writable() {
                self.flag_violation(
                    InvariantKind::LineState,
                    Some(block),
                    Some(core),
                    now,
                    format!(
                        "upgrade-in-place reached with exclusive={exclusive}, L2 state {state}"
                    ),
                );
            }
            let ready = now + self.config.l3_latency + remote;
            if let Some(mut l) = self.cores[core].l2.lookup(block) {
                l.set_state(CoherenceState::Modified);
                l.set_ready(ready);
            }
            self.cores[core].l2.touch(block);
            return (ready, if remote > 0 { Level::Remote } else { Level::L3 });
        }

        let grant_state = if exclusive {
            CoherenceState::Modified
        } else {
            match self.directory.entry(block) {
                Some(crate::directory::DirEntry::Shared { .. }) => CoherenceState::Shared,
                _ => CoherenceState::Exclusive,
            }
        };

        let (mut ready, mut level) = if let Some(mut l3line) = self.l3.lookup(block) {
            let r = l3line.ready().max(now) + self.config.l3_latency;
            if remote_dirty {
                l3line.set_dirty(true);
            }
            self.l3.touch(block);
            (r, Level::L3)
        } else {
            // Miss in L3: fetch from memory and fill L3.
            self.stats.dram_accesses += 1;
            let mut r = self.dram.access(now + self.config.l3_latency, block);
            if let Some(extra) = self.fault.dram_spike() {
                r += extra;
                self.stats.faults_dram_spiked += 1;
            }
            if let Some(ev) = self.l3.insert(block, CoherenceState::Exclusive, r, None) {
                self.handle_l3_eviction(ev, now);
            }
            (r, Level::Dram)
        };
        if remote > 0 {
            ready += remote;
            level = Level::Remote;
        }

        // Fill L2.
        if self.cores[core].l2.peek(block).is_none() {
            if let Some(ev) = self.cores[core]
                .l2
                .insert(block, grant_state, ready, prefetch)
            {
                self.handle_l2_eviction(core, ev, now);
            }
        }
        (ready, level)
    }

    /// Allocates an L1 MSHR, waiting (by advancing the effective request
    /// time) if the file is full. Returns the possibly delayed `now`.
    fn mshr_admit(&mut self, core: usize, now: u64) -> u64 {
        let mshr = &mut self.cores[core].mshr;
        mshr.retire_completed(now);
        if mshr.len() < mshr.capacity() {
            return now;
        }
        // Full: the request stalls until the earliest entry completes.
        let earliest = match mshr.allocate(u64::MAX, 0, false, None, now) {
            Err(e) => e,
            Ok(_) => unreachable!("file was full"),
        };
        let delayed = earliest.max(now);
        self.cores[core].mshr.retire_completed(delayed);
        delayed
    }

    /// Issues the generic-prefetcher candidates produced by training.
    fn issue_cache_prefetches(&mut self, core: usize, candidates: &[u64], now: u64, want: Want) {
        for &block in candidates {
            // Respect MSHR capacity: generic prefetches are dropped when
            // the file is nearly full (demand gets priority).
            let mshr = &mut self.cores[core].mshr;
            mshr.retire_completed(now);
            if mshr.len() + 1 >= mshr.capacity() {
                return;
            }
            if self.cores[core].l1.peek(block).is_some()
                || self.cores[core].mshr.lookup(block).is_some()
            {
                continue;
            }
            self.stats.prefetch_requests[RfoOrigin::CachePrefetcher.index()] += 1;
            self.stats.prefetch_downstream[RfoOrigin::CachePrefetcher.index()] += 1;
            let (ready, _level) =
                self.fill_below_l1(core, block, now, want, Some(RfoOrigin::CachePrefetcher));
            let state = if want == Want::Own {
                CoherenceState::Exclusive
            } else {
                match self.directory.entry(block) {
                    Some(crate::directory::DirEntry::Shared { .. }) => CoherenceState::Shared,
                    _ => CoherenceState::Exclusive,
                }
            };
            let _ = self.alloc_mshr(
                core,
                block,
                ready,
                want == Want::Own,
                Some(RfoOrigin::CachePrefetcher),
                now,
            );
            if let Some(ev) =
                self.cores[core]
                    .l1
                    .insert(block, state, ready, Some(RfoOrigin::CachePrefetcher))
            {
                self.handle_l1_eviction(core, ev, now);
            }
        }
    }

    // -- public access paths ------------------------------------------------

    /// A demand load of the block containing `addr` by `core` at `now`.
    ///
    /// Trains the generic prefetcher and returns when the data is ready.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn load(&mut self, core: usize, addr: u64, now: u64) -> AccessResult {
        self.load_with_pc(core, addr, addr >> 2, now)
    }

    /// [`MemorySystem::load`] with an explicit training PC.
    pub fn load_with_pc(&mut self, core: usize, addr: u64, pc: u64, now: u64) -> AccessResult {
        let block = addr / 64;
        self.stats.loads += 1;
        self.stats.l1_data_accesses += 1;

        let mut candidates = Vec::new();
        self.cores[core]
            .prefetcher
            .train(pc, block, &mut candidates);

        // One tag search serves the whole hit path: the LRU/used update
        // happens through the same `LineMut` (pre-touch values captured
        // first), instead of `touch` re-searching the set.
        let line_info = self.cores[core].l1.lookup(block).map(|mut l| {
            let info = (l.state(), l.ready(), l.prefetch(), l.used());
            l.touch();
            info
        });
        let result = if let Some((state, line_ready, prefetch, used)) = line_info {
            if !state.readable() {
                self.flag_violation(
                    InvariantKind::LineState,
                    Some(block),
                    Some(core),
                    now,
                    format!("demand load found an unreadable L1 line in state {state}"),
                );
            }
            if prefetch.is_some() && !used {
                self.cores[core].prefetcher.feedback_useful();
            }
            if line_ready <= now {
                self.stats.load_l1_hits += 1;
                AccessResult {
                    ready: now + self.config.l1_latency,
                    l1_hit: true,
                    level: Level::L1,
                }
            } else {
                // Hit under fill: wait for the in-flight line.
                self.cores[core].demand_miss_until =
                    self.cores[core].demand_miss_until.max(line_ready);
                AccessResult {
                    ready: line_ready,
                    l1_hit: false,
                    level: Level::L1,
                }
            }
        } else {
            // True L1 miss: the walk below probes the L2, L3, directory
            // and eviction maps in a dependent chain of random reads.
            // Warming every table's slot up front overlaps those host
            // cache misses (memory-level parallelism); none of it reads
            // simulated state, so the walk's outcome is unchanged.
            self.cores[core].l2.warm(block);
            self.l3.warm(block);
            self.directory.warm(block);
            self.recently_evicted_l1.warm(block);
            self.evicted_unused.warm(block);
            self.cores[core].mshr.retire_completed(now);
            if let Some(entry) = self.cores[core].mshr.lookup(block) {
                // The line was evicted while its fill was in flight;
                // merge and reinstate it.
                if !self.directory.tracks(core as u8, block) {
                    // Both private copies were evicted mid-flight and the
                    // directory forgot us: re-register before
                    // reinstating, or the copy would be invisible to
                    // later exclusive requests.
                    self.stats.coherence_repairs += 1;
                    self.coh(now, core as u8, block, CoherenceKind::Reinstated);
                    if entry.exclusive {
                        self.directory.reinstate_owner(core as u8, block);
                    } else {
                        let actions = self.directory.request_shared(core as u8, block);
                        if let Some(owner) = actions.downgrade {
                            let o = owner as usize;
                            self.coh(now, owner, block, CoherenceKind::Downgraded);
                            let mut d = self.cores[o].l1.downgrade(block).unwrap_or(false);
                            d |= self.cores[o].l2.downgrade(block).unwrap_or(false);
                            self.cores[o].mshr.retire_completed(now);
                            self.cores[o].mshr.downgrade_entry(block);
                            if d {
                                if let Some(mut l3line) = self.l3.lookup(block) {
                                    l3line.set_dirty(true);
                                }
                            }
                        }
                    }
                }
                let state = if entry.exclusive {
                    CoherenceState::Modified
                } else {
                    match self.directory.entry(block) {
                        Some(DirEntry::Shared { .. }) => {
                            // The old model reinstated E here even with
                            // other sharers present.
                            self.stats.coherence_repairs += 1;
                            CoherenceState::Shared
                        }
                        _ => CoherenceState::Exclusive,
                    }
                };
                if let Some(ev) = self.cores[core].l1.insert(block, state, entry.ready, None) {
                    self.handle_l1_eviction(core, ev, now);
                }
                self.cores[core].demand_miss_until =
                    self.cores[core].demand_miss_until.max(entry.ready);
                return AccessResult {
                    ready: entry.ready,
                    l1_hit: false,
                    level: Level::L2,
                };
            }
            if self.recently_evicted_l1.remove(block).is_some() {
                self.stats.l1_rereference_misses += 1;
            }
            if let Some(origin) = self.evicted_unused.remove(block) {
                self.stats.prefetch_early[origin.index()] += 1;
            }
            let now_adm = self.mshr_admit(core, now);
            let (ready, level) = self.fill_below_l1(core, block, now_adm, Want::Read, None);
            match level {
                Level::L2 => self.stats.load_l2_hits += 1,
                Level::L3 => self.stats.load_l3_hits += 1,
                Level::Remote => self.stats.load_remote_hits += 1,
                Level::Dram => self.stats.load_dram += 1,
                Level::L1 => unreachable!(),
            }
            let state = match self.directory.entry(block) {
                Some(crate::directory::DirEntry::Shared { .. }) => CoherenceState::Shared,
                _ => CoherenceState::Exclusive,
            };
            let _ = self.alloc_mshr(core, block, ready, false, None, now_adm);
            if let Some(ev) = self.cores[core].l1.insert(block, state, ready, None) {
                self.handle_l1_eviction(core, ev, now_adm);
            }
            self.cores[core].l1.touch(block);
            self.cores[core].demand_miss_until = self.cores[core].demand_miss_until.max(ready);
            AccessResult {
                ready,
                l1_hit: false,
                level,
            }
        };

        if !candidates.is_empty() {
            self.issue_cache_prefetches(core, &candidates, now, Want::Read);
        }
        result
    }

    /// The head store of `core`'s SB tries to write the block containing
    /// `addr`. TSO allows at most one drain attempt per cycle per core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn store_drain(&mut self, core: usize, addr: u64, now: u64) -> StoreDrainOutcome {
        self.store_drain_with_pc(core, addr, addr >> 2, now)
    }

    /// [`MemorySystem::store_drain`] with an explicit PC for prefetcher
    /// training (the generic L1 prefetcher trains on demand accesses:
    /// loads and performed stores, as in gem5).
    pub(crate) fn store_drain_with_pc(
        &mut self,
        core: usize,
        addr: u64,
        pc: u64,
        now: u64,
    ) -> StoreDrainOutcome {
        let block = addr / 64;
        self.cores[core].mshr.retire_completed(now);
        // An architectural store reached the block (whether it performs
        // now, merges into an in-flight fill, or opens a demand RFO):
        // whatever speculation obtained ownership was useful, not waste.
        // Untagging here — not only on Performed — matters because the
        // demand-miss paths below install Modified (dirty) lines whose
        // store has not performed yet; a tag surviving past this point
        // would trip the speculative-leak check on exactly that state.
        if !self.spec_tags.is_empty() {
            self.spec_tags.remove(block);
        }
        let line_info = self.cores[core]
            .l1
            .lookup(block)
            .map(|l| (l.state(), l.ready(), l.prefetch(), l.used()));
        match line_info {
            Some((state, line_ready, prefetch, used)) if state.writable() => {
                if line_ready <= now {
                    if let Some(origin) = prefetch.filter(|_| !used) {
                        self.stats.prefetch_successful[origin.index()] += 1;
                        self.cores[core].prefetcher.feedback_useful();
                    }
                    self.cores[core].l1.touch(block);
                    if let Some(mut l) = self.cores[core].l1.lookup(block) {
                        l.set_state(CoherenceState::Modified);
                        l.set_dirty(true);
                    }
                    self.stats.stores_performed += 1;
                    self.stats.store_l1_ready_hits += 1;
                    self.stats.l1_data_accesses += 1;
                    self.coh(now, core as u8, block, CoherenceKind::StorePerformed);
                    // Demand training of the generic L1 prefetcher: this
                    // is the "store in entry 0 performs → prefetch B1"
                    // behaviour of §III-A.
                    let mut candidates = Vec::new();
                    self.cores[core]
                        .prefetcher
                        .train(pc, block, &mut candidates);
                    if !candidates.is_empty() {
                        self.issue_cache_prefetches(core, &candidates, now, Want::Own);
                    }
                    StoreDrainOutcome::Performed { l1_hit: true }
                } else {
                    // In flight (IM / PF_IM): classify lateness once.
                    if let Some(origin) = prefetch.filter(|_| !used) {
                        self.stats.prefetch_late[origin.index()] += 1;
                        self.cores[core].l1.touch(block); // marks used
                    }
                    self.stats.store_retries += 1;
                    self.cores[core].demand_miss_until =
                        self.cores[core].demand_miss_until.max(line_ready);
                    StoreDrainOutcome::Retry { at: line_ready }
                }
            }
            Some((_, _, _, _)) => {
                // Readable but not writable: upgrade.
                self.stats.store_retries += 1;
                let now_adm = self.mshr_admit(core, now);
                let (ready, _level) = self.fill_below_l1(core, block, now_adm, Want::Own, None);
                if let Some(mut l) = self.cores[core].l1.lookup(block) {
                    l.set_state(CoherenceState::Modified);
                    l.set_ready(ready);
                }
                // A shared line can still have its read fill in flight
                // (downgraded mid-fill, or upgrading under a load miss):
                // fold the upgrade into that entry rather than duplicate.
                if !self.cores[core].mshr.merge_exclusive(block, ready) {
                    let _ = self.alloc_mshr(core, block, ready, true, None, now_adm);
                }
                self.cores[core].demand_miss_until = self.cores[core].demand_miss_until.max(ready);
                StoreDrainOutcome::Retry { at: ready }
            }
            None => {
                // Miss: same warm-ahead as the load miss path (see
                // `load_with_pc`) before the dependent probe chain.
                self.cores[core].l2.warm(block);
                self.l3.warm(block);
                self.directory.warm(block);
                self.recently_evicted_l1.warm(block);
                self.evicted_unused.warm(block);
                // Merge into an in-flight request if one exists.
                if let Some(ready) = self.cores[core].mshr.upgrade_to_exclusive(block) {
                    self.stats.store_retries += 1;
                    self.upgrade_merged_entry(core, block, now);
                    self.cores[core].demand_miss_until =
                        self.cores[core].demand_miss_until.max(ready);
                    // Reinstate the L1 line if it was evicted mid-flight.
                    if self.cores[core].l1.peek(block).is_none() {
                        if let Some(ev) =
                            self.cores[core]
                                .l1
                                .insert(block, CoherenceState::Modified, ready, None)
                        {
                            self.handle_l1_eviction(core, ev, now);
                        }
                    } else if let Some(mut l) = self.cores[core].l1.lookup(block) {
                        l.set_state(CoherenceState::Modified);
                    }
                    return StoreDrainOutcome::Retry { at: ready };
                }
                // Demand RFO: the `Getx` of Figure 4's T0.
                self.stats.demand_store_misses += 1;
                self.stats.store_retries += 1;
                if self.recently_evicted_l1.remove(block).is_some() {
                    self.stats.l1_rereference_misses += 1;
                }
                if let Some(origin) = self.evicted_unused.remove(block) {
                    self.stats.prefetch_early[origin.index()] += 1;
                }
                let now_adm = self.mshr_admit(core, now);
                let (ready, _level) = self.fill_below_l1(core, block, now_adm, Want::Own, None);
                let _ = self.alloc_mshr(core, block, ready, true, None, now_adm);
                if let Some(ev) =
                    self.cores[core]
                        .l1
                        .insert(block, CoherenceState::Modified, ready, None)
                {
                    self.handle_l1_eviction(core, ev, now_adm);
                }
                self.cores[core].demand_miss_until = self.cores[core].demand_miss_until.max(ready);
                StoreDrainOutcome::Retry { at: ready }
            }
        }
    }

    /// A store-prefetch (write-permission) request from `origin` for the
    /// block containing `addr` — the at-execute/at-commit per-store RFO,
    /// or one block of an SPB burst.
    ///
    /// Also trains the generic L1 prefetcher (store prefetches are how
    /// the store stream reaches it, per §III-A).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn store_prefetch(
        &mut self,
        core: usize,
        addr: u64,
        pc: u64,
        now: u64,
        origin: RfoOrigin,
    ) -> RfoResponse {
        let _ = pc; // prefetcher training happens on demand accesses only
        let block = addr / 64;
        self.cores[core].mshr.retire_completed(now);
        self.stats.prefetch_requests[origin.index()] += 1;

        let line_state = self.cores[core].l1.lookup(block).map(|l| l.state());
        let response = match line_state {
            Some(state) if state.writable() => RfoResponse::Discarded, // PopReq
            Some(_) => {
                // Shared: upgrade in place.
                self.stats.prefetch_downstream[origin.index()] += 1;
                let now_adm = self.mshr_admit(core, now);
                let (mut ready, _) =
                    self.fill_below_l1(core, block, now_adm, Want::Own, Some(origin));
                if let Some(extra) = self.fault.ack_delay() {
                    ready += extra;
                    self.stats.faults_ack_delayed += 1;
                }
                if let Some(mut l) = self.cores[core].l1.lookup(block) {
                    l.set_state(CoherenceState::Modified);
                    l.set_ready(ready);
                }
                // The shared line's own fill may still be in flight:
                // fold the upgrade into that entry rather than duplicate.
                if !self.cores[core].mshr.merge_exclusive(block, ready) {
                    let _ = self.alloc_mshr(core, block, ready, true, Some(origin), now_adm);
                }
                RfoResponse::Issued
            }
            None => {
                if let Some(ready) = self.cores[core].mshr.upgrade_to_exclusive(block) {
                    self.upgrade_merged_entry(core, block, now);
                    if self.cores[core].l1.peek(block).is_some() {
                        if let Some(mut l) = self.cores[core].l1.lookup(block) {
                            l.set_state(CoherenceState::Modified);
                        }
                    }
                    let _ = ready;
                    return RfoResponse::Merged;
                }
                // When the MSHR file is full the request waits in the L1
                // controller's prefetch queue (an SB entry in real
                // hardware holds its RFO until a fill buffer frees) and
                // is re-issued by `tick`. Fault injection can force this
                // path to model transient fill-buffer denial.
                {
                    let denied = self.fault.mshr_exhausted();
                    if denied {
                        self.stats.faults_mshr_denied += 1;
                    }
                    let mshr = &mut self.cores[core].mshr;
                    mshr.retire_completed(now);
                    if denied || mshr.len() >= mshr.capacity() {
                        self.stats.prefetch_requests[origin.index()] -= 1; // re-counted on reissue
                        let spec = self.spec_ctx;
                        self.cores[core]
                            .burst_queue
                            .push_back((block, origin, spec));
                        self.coh(now, core as u8, block, CoherenceKind::PrefetchQueued);
                        return RfoResponse::Queued;
                    }
                }
                // `GetPFx`: a fresh ownership prefetch (PF_IM).
                self.stats.prefetch_downstream[origin.index()] += 1;
                let (mut ready, _) = self.fill_below_l1(core, block, now, Want::Own, Some(origin));
                if let Some(extra) = self.fault.ack_delay() {
                    ready += extra;
                    self.stats.faults_ack_delayed += 1;
                }
                let _ = self.alloc_mshr(core, block, ready, true, Some(origin), now);
                if let Some(ev) = self.cores[core].l1.insert(
                    block,
                    CoherenceState::Exclusive,
                    ready,
                    Some(origin),
                ) {
                    self.handle_l1_eviction(core, ev, now);
                }
                RfoResponse::Issued
            }
        };
        response
    }

    /// [`MemorySystem::store_prefetch`] on behalf of a *wrong-path*
    /// store: the RFO behaves identically at the controller, but any
    /// block whose ownership it obtains (fresh issue or merge-upgrade)
    /// is tagged speculative, together with the downstream traffic the
    /// request caused. [`MemorySystem::attribute_squash`] later charges
    /// still-tagged blocks as waste; an architectural store performing
    /// to the block first clears the tag (the speculation was useful).
    pub fn store_prefetch_spec(
        &mut self,
        core: usize,
        addr: u64,
        pc: u64,
        now: u64,
        origin: RfoOrigin,
    ) -> RfoResponse {
        let inval_before = self.stats.invalidations;
        let dram_before = self.stats.dram_accesses;
        self.spec_ctx = true;
        let resp = self.store_prefetch(core, addr, pc, now, origin);
        self.spec_ctx = false;
        match resp {
            RfoResponse::Issued | RfoResponse::Merged => {
                self.stats.spec_rfos_issued += 1;
                let coh = (self.stats.invalidations - inval_before) as u32;
                let dram = (self.stats.dram_accesses - dram_before) as u32;
                let block = addr / 64;
                if let Some(t) = self.spec_tags.get_mut(block) {
                    t.core = core as u8;
                    t.rfos += 1;
                    t.coh += coh;
                    t.dram += dram;
                } else {
                    self.spec_tags.insert(
                        block,
                        SpecTag {
                            core: core as u8,
                            rfos: 1,
                            coh,
                            dram,
                        },
                    );
                }
            }
            // Queued: tagged when the queue re-issues it (spec entry).
            // Discarded: the core already owned the line — this request
            // caused no ownership transition, so nothing to attribute.
            RfoResponse::Queued | RfoResponse::Discarded => {}
        }
        resp
    }

    /// A squash resolved on `core`: attributes every speculative tag it
    /// still owns as waste (the wrong-path RFOs bought ownership no
    /// architectural store ever used) and drops its still-queued
    /// speculative burst entries. Folds the per-tag traffic into the
    /// `spec_*` counters and emits one `squash` observer event.
    pub fn attribute_squash(&mut self, core: usize, now: u64) {
        let q = &mut self.cores[core].burst_queue;
        let before = q.len();
        q.retain(|&(_, _, spec)| !spec);
        self.stats.spec_dropped += (before - q.len()) as u64;

        let mut rfos = 0u64;
        let mut coh = 0u64;
        let mut dram = 0u64;
        let mut blocks = 0u64;
        if !self.spec_tags.is_empty() {
            let id = core as u8;
            self.spec_tags.retain(|_, t| {
                if t.core == id {
                    rfos += u64::from(t.rfos);
                    coh += u64::from(t.coh);
                    dram += u64::from(t.dram);
                    blocks += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.stats.spec_wasted_rfos += rfos;
        self.stats.spec_wasted_coh_msgs += coh;
        self.stats.spec_wasted_dram += dram;
        self.stats.spec_leaked_m_blocks += blocks;
        self.stats.spec_squashes += 1;
        self.obs.emit(|| Event {
            cycle: now,
            core: core as u8,
            kind: ObsEventKind::SquashAttributed {
                blocks: blocks as u32,
                rfos: rfos as u32,
            },
        });
    }

    /// Queues a page burst: RFO prefetches for `blocks`, drained at
    /// [`MemoryConfig::burst_issue_per_cycle`] by [`MemorySystem::tick`].
    pub fn enqueue_burst(&mut self, core: usize, blocks: impl IntoIterator<Item = u64>, now: u64) {
        self.enqueue_burst_inner(core, blocks, now, false);
    }

    /// [`MemorySystem::enqueue_burst`] for a burst triggered by
    /// *wrong-path* stores: every issued block is speculatively tagged,
    /// and entries still queued when the squash arrives are dropped and
    /// counted instead of issued.
    pub fn enqueue_burst_spec(
        &mut self,
        core: usize,
        blocks: impl IntoIterator<Item = u64>,
        now: u64,
    ) {
        self.enqueue_burst_inner(core, blocks, now, true);
    }

    fn enqueue_burst_inner(
        &mut self,
        core: usize,
        blocks: impl IntoIterator<Item = u64>,
        now: u64,
        spec: bool,
    ) {
        let q = &mut self.cores[core].burst_queue;
        let before = q.len();
        let mut first = None;
        for b in blocks {
            first.get_or_insert(b);
            q.push_back((b, RfoOrigin::SpbBurst, spec));
        }
        let pushed = (q.len() - before) as u64;
        if pushed > 0 {
            self.burst_lengths.record(pushed);
            self.obs.emit(|| Event {
                cycle: now,
                core: core as u8,
                kind: ObsEventKind::BurstDetected {
                    page: (first.unwrap_or(0) * 64) & !0xfff,
                    blocks: pushed as u32,
                },
            });
        }
    }

    /// One cycle of L1-controller work: drains the burst queues and
    /// periodically runs the invariant checker.
    pub fn tick(&mut self, now: u64) {
        self.work.ticks += 1;
        let interval = self.config.checker_interval;
        // `next_check_at` caches the boundary so the per-cycle fast
        // path is one compare instead of a hardware division; the exact
        // multiple test below keeps the check schedule identical even
        // if a caller ticks at a non-boundary cycle past the cache.
        if interval > 0 && now >= self.next_check_at {
            if now.is_multiple_of(interval) && self.pending_violation.is_none() {
                if let Err(v) = self.check_invariants(now) {
                    self.pending_violation = Some(v);
                }
            }
            self.next_check_at = (now / interval + 1) * interval;
        }
        for core in 0..self.cores.len() {
            for _ in 0..self.config.burst_issue_per_cycle {
                // Leave headroom in the MSHR file for demand requests.
                let mshr = &mut self.cores[core].mshr;
                mshr.retire_completed(now);
                if mshr.len() + 4 >= mshr.capacity() {
                    break;
                }
                let Some((block, origin, spec)) = self.cores[core].burst_queue.pop_front() else {
                    break;
                };
                if self.fault.drop_burst_block() {
                    // The controller sheds this request entirely: the
                    // store it covered falls back to a demand RFO.
                    self.stats.faults_bursts_dropped += 1;
                    self.coh(now, core as u8, block, CoherenceKind::PrefetchDropped);
                    continue;
                }
                self.obs.emit(|| Event {
                    cycle: now,
                    core: core as u8,
                    kind: ObsEventKind::BurstIssued { block },
                });
                if spec {
                    let _ = self.store_prefetch_spec(core, block * 64, 0, now, origin);
                } else {
                    let _ = self.store_prefetch(core, block * 64, 0, now, origin);
                }
            }
        }
        if self.obs.enabled() && now >= self.next_obs_at {
            if now.is_multiple_of(OBS_SAMPLE_INTERVAL) {
                for core in 0..self.cores.len() {
                    let occupancy = self.cores[core].mshr.len() as u32;
                    self.obs.emit(|| Event {
                        cycle: now,
                        core: core as u8,
                        kind: ObsEventKind::MshrOccupancy { occupancy },
                    });
                }
                let busy = self.dram.busy_channels(now) as u32;
                self.obs.emit(|| Event {
                    cycle: now,
                    core: 0,
                    kind: ObsEventKind::DramQueue { busy },
                });
            }
            self.next_obs_at = (now / OBS_SAMPLE_INTERVAL + 1) * OBS_SAMPLE_INTERVAL;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_core() -> MemorySystem {
        MemorySystem::new(MemoryConfig::default())
    }

    #[test]
    fn cold_load_misses_to_dram_then_hits() {
        let mut m = single_core();
        let r1 = m.load(0, 0x10000, 0);
        assert_eq!(r1.level, Level::Dram);
        assert!(!r1.l1_hit);
        assert!(r1.ready > 150);
        let r2 = m.load(0, 0x10008, r1.ready + 1);
        assert!(r2.l1_hit);
        assert_eq!(r2.ready, r1.ready + 1 + m.config().l1_latency);
        assert_eq!(m.stats().load_l1_hits, 1);
        assert_eq!(m.stats().load_dram, 1);
    }

    #[test]
    fn load_hit_under_fill_waits_for_line() {
        let mut m = single_core();
        let r1 = m.load(0, 0x20000, 0);
        let r2 = m.load(0, 0x20008, 5);
        assert!(!r2.l1_hit);
        assert_eq!(r2.ready, r1.ready, "second load waits for the same fill");
    }

    #[test]
    fn store_drain_miss_issues_demand_rfo_and_retries() {
        let mut m = single_core();
        match m.store_drain(0, 0x30000, 0) {
            StoreDrainOutcome::Retry { at } => {
                assert!(at > 100);
                // Retrying at the ready time performs.
                match m.store_drain(0, 0x30000, at) {
                    StoreDrainOutcome::Performed { l1_hit } => assert!(l1_hit),
                    other => panic!("expected perform, got {other:?}"),
                }
            }
            other => panic!("expected retry, got {other:?}"),
        }
        assert_eq!(m.stats().demand_store_misses, 1);
        assert_eq!(m.stats().stores_performed, 1);
    }

    #[test]
    fn at_commit_prefetch_turns_miss_into_hit() {
        let mut m = single_core();
        let resp = m.store_prefetch(0, 0x40000, 0x99, 0, RfoOrigin::AtCommit);
        assert_eq!(resp, RfoResponse::Issued);
        // Wait out the fill, then the drain succeeds immediately.
        let outcome = m.store_drain(0, 0x40000, 1000);
        assert_eq!(outcome, StoreDrainOutcome::Performed { l1_hit: true });
        assert_eq!(
            m.stats().prefetch_successful[RfoOrigin::AtCommit.index()],
            1
        );
    }

    #[test]
    fn prefetch_to_owned_block_is_discarded_popreq() {
        let mut m = single_core();
        let _ = m.store_prefetch(0, 0x50000, 0x99, 0, RfoOrigin::AtCommit);
        let resp = m.store_prefetch(0, 0x50000, 0x99, 1, RfoOrigin::AtCommit);
        assert_eq!(resp, RfoResponse::Discarded);
    }

    #[test]
    fn late_prefetch_is_classified_once() {
        let mut m = single_core();
        let _ = m.store_prefetch(0, 0x60000, 0x99, 0, RfoOrigin::AtCommit);
        // Demand store arrives while the RFO is still in flight.
        let o = m.store_drain(0, 0x60000, 2);
        assert!(matches!(o, StoreDrainOutcome::Retry { .. }));
        let _ = m.store_drain(0, 0x60000, 3);
        assert_eq!(m.stats().prefetch_late[RfoOrigin::AtCommit.index()], 1);
        assert_eq!(
            m.stats().prefetch_successful[RfoOrigin::AtCommit.index()],
            0
        );
    }

    #[test]
    fn burst_queue_drains_at_configured_rate() {
        let mut m = single_core();
        m.enqueue_burst(0, (0..10u64).map(|i| 0x1000 + i), 0);
        assert_eq!(m.burst_queue_len(0), 10);
        m.tick(0);
        assert_eq!(
            m.burst_queue_len(0),
            10 - m.config().burst_issue_per_cycle as usize
        );
        for now in 1..10 {
            m.tick(now);
        }
        assert_eq!(m.burst_queue_len(0), 0);
        assert_eq!(m.stats().prefetch_requests[RfoOrigin::SpbBurst.index()], 10);
    }

    #[test]
    fn spec_prefetch_tags_block_and_squash_attributes_waste() {
        let mut m = single_core();
        let resp = m.store_prefetch_spec(0, 0x80000, 0xDEAD, 0, RfoOrigin::AtExecute);
        assert_eq!(resp, RfoResponse::Issued);
        assert_eq!(m.stats().spec_rfos_issued, 1);
        assert_eq!(m.spec_tags.len(), 1);
        // Cold block: the RFO went to DRAM, and no store ever performs.
        m.attribute_squash(0, 100);
        assert_eq!(m.stats().spec_wasted_rfos, 1);
        assert_eq!(m.stats().spec_leaked_m_blocks, 1);
        assert_eq!(m.stats().spec_wasted_dram, 1);
        assert_eq!(m.stats().spec_squashes, 1);
        assert_eq!(m.spec_tags.len(), 0);
    }

    #[test]
    fn architectural_store_untags_speculative_block() {
        let mut m = single_core();
        let _ = m.store_prefetch_spec(0, 0x90000, 0xDEAD, 0, RfoOrigin::AtExecute);
        // The speculation turns out right: a committed store performs to
        // the block before any squash reaches the controller.
        let o = m.store_drain(0, 0x90000, 1000);
        assert_eq!(o, StoreDrainOutcome::Performed { l1_hit: true });
        assert_eq!(m.spec_tags.len(), 0);
        m.attribute_squash(0, 1001);
        assert_eq!(m.stats().spec_wasted_rfos, 0);
        assert_eq!(m.stats().spec_leaked_m_blocks, 0);
        assert_eq!(m.stats().spec_squashes, 1);
    }

    #[test]
    fn squash_drops_queued_speculative_burst_entries() {
        let mut m = single_core();
        m.enqueue_burst(0, [0x1000, 0x1001], 0);
        m.enqueue_burst_spec(0, [0x2000, 0x2001, 0x2002], 0);
        assert_eq!(m.burst_queue_len(0), 5);
        m.attribute_squash(0, 0);
        assert_eq!(m.stats().spec_dropped, 3);
        assert_eq!(m.burst_queue_len(0), 2, "committed-path entries survive");
    }

    #[test]
    fn spec_checks_pass_on_healthy_speculation() {
        let mut m = single_core();
        let _ = m.store_prefetch_spec(0, 0xa0000, 0xDEAD, 0, RfoOrigin::AtExecute);
        m.check_invariants(1000).unwrap();
        m.check_invariants_thorough(1000).unwrap();
    }

    #[test]
    fn forget_untag_mutation_trips_speculative_leak_check() {
        let mut m = single_core();
        let _ = m.store_prefetch_spec(0, 0xb0000, 0xDEAD, 0, RfoOrigin::AtExecute);
        // Let the fill complete so the line is stable, then corrupt.
        let block = m.seed_forget_untag_mutation(1000).expect("tagged line");
        assert_eq!(block, 0xb0000 / 64);
        let err = m.check_invariants(1000).unwrap_err();
        assert_eq!(err.kind, InvariantKind::SpeculativeLeak);
        assert_eq!(err.block, Some(block));
        let err = m.check_invariants_thorough(1000).unwrap_err();
        assert_eq!(err.kind, InvariantKind::SpeculativeLeak);
    }

    #[test]
    fn demand_miss_tracking_reflects_outstanding_fill() {
        let mut m = single_core();
        assert!(!m.has_pending_demand_miss(0, 0));
        let r = m.load(0, 0x70000, 0);
        assert!(m.has_pending_demand_miss(0, 1));
        assert!(!m.has_pending_demand_miss(0, r.ready + 1));
    }

    #[test]
    fn multicore_store_invalidates_remote_copy() {
        let cfg = MemoryConfig {
            cores: 2,
            ..Default::default()
        };
        let mut m = MemorySystem::new(cfg);
        // Core 1 reads the block, then core 0 stores to it.
        let r = m.load(1, 0x80000, 0);
        let _ = m.store_drain(0, 0x80000, r.ready + 1);
        assert_eq!(m.stats().invalidations, 1);
        // Core 1's copy is gone: next read misses.
        let r2 = m.load(1, 0x80000, r.ready + 500);
        assert!(!r2.l1_hit);
    }

    #[test]
    fn remote_dirty_read_pays_remote_penalty() {
        let cfg = MemoryConfig {
            cores: 2,
            ..Default::default()
        };
        let mut m = MemorySystem::new(cfg);
        // Core 0 owns and writes the block.
        let StoreDrainOutcome::Retry { at } = m.store_drain(0, 0x90000, 0) else {
            panic!("expected retry");
        };
        let _ = m.store_drain(0, 0x90000, at);
        // Core 1 loads it: 3-hop.
        let r = m.load(1, 0x90000, at + 1);
        assert_eq!(r.level, Level::Remote);
    }

    #[test]
    fn evicted_unused_prefetch_becomes_early_on_demand() {
        // Tiny L1 to force evictions quickly: 2 sets x 2 ways.
        let cfg = MemoryConfig {
            l1_size: 256,
            l1_ways: 2,
            ..Default::default()
        };
        let mut m = MemorySystem::new(cfg);
        // Prefetch 8 blocks into a 4-line cache: some evict unused.
        for b in 0..8u64 {
            let _ = m.store_prefetch(0, b * 64, 0x9, 0, RfoOrigin::SpbBurst);
        }
        // Demand-store one of the early blocks (now evicted).
        let _ = m.store_drain(0, 0, 1000);
        assert!(m.stats().prefetch_early[RfoOrigin::SpbBurst.index()] >= 1);
    }

    #[test]
    fn finalize_counts_never_used_prefetches() {
        let mut m = single_core();
        let _ = m.store_prefetch(0, 0xA0000, 0x9, 0, RfoOrigin::SpbBurst);
        let _ = m.store_prefetch(0, 0xA0040, 0x9, 0, RfoOrigin::SpbBurst);
        // Use one of the two.
        let _ = m.store_drain(0, 0xA0000, 5000);
        m.finalize_stats();
        assert_eq!(
            m.stats().prefetch_never_used[RfoOrigin::SpbBurst.index()],
            1
        );
        assert_eq!(
            m.stats().prefetch_successful[RfoOrigin::SpbBurst.index()],
            1
        );
    }

    #[test]
    fn reset_stats_clears_counters_but_keeps_cache_contents() {
        let mut m = single_core();
        let r = m.load(0, 0xB0000, 0);
        m.reset_stats();
        assert_eq!(m.stats().loads, 0);
        let r2 = m.load(0, 0xB0000, r.ready + 1);
        assert!(r2.l1_hit, "warm line survives the stats reset");
    }

    #[test]
    fn store_merge_into_load_miss_upgrades() {
        let mut m = single_core();
        let r = m.load(0, 0xC0000, 0);
        // While the load is in flight, a store to the same block merges.
        let o = m.store_drain(0, 0xC0000, 1);
        match o {
            StoreDrainOutcome::Retry { at } => assert!(at >= r.ready),
            other => panic!("expected retry, got {other:?}"),
        }
    }

    #[test]
    fn dram_bandwidth_spreads_a_burst() {
        let mut m = single_core();
        // 32 parallel RFOs: later ones must queue behind channel slots.
        let mut readies = Vec::new();
        for b in 0..32u64 {
            let _ = m.store_prefetch(0, 0xD0000 + b * 64, 0x9, 0, RfoOrigin::SpbBurst);
            if let Some(l) = m.cores[0].l1.peek(0xD0000 / 64 + b) {
                readies.push(l.ready);
            }
        }
        let first = readies.iter().min().unwrap();
        let last = readies.iter().max().unwrap();
        assert!(last > first, "bursts are bandwidth-limited, not instant");
    }

    #[test]
    fn checker_is_clean_on_normal_traffic() {
        let cfg = MemoryConfig {
            cores: 2,
            ..Default::default()
        };
        let mut m = MemorySystem::new(cfg);
        let mut now = 0u64;
        for i in 0..200u64 {
            let r = m.load((i % 2) as usize, 0x1000 + (i % 16) * 64, now);
            let _ = m.store_drain(((i + 1) % 2) as usize, 0x9000 + (i % 8) * 64, now);
            m.tick(now);
            now = r.ready + 1;
        }
        m.check_invariants_thorough(now)
            .expect("protocol stays coherent");
        assert!(m.take_violation().is_none());
    }

    #[test]
    fn checker_flags_an_untracked_writer() {
        let cfg = MemoryConfig {
            cores: 2,
            ..Default::default()
        };
        let mut m = MemorySystem::new(cfg);
        let StoreDrainOutcome::Retry { at } = m.store_drain(0, 0x4000, 0) else {
            panic!("expected retry");
        };
        // Corrupt the model directly: the directory forgets the owner.
        m.directory.evicted(0, 0x4000 / 64);
        let err = m.check_invariants(at + 1).unwrap_err();
        assert_eq!(err.kind, InvariantKind::SingleWriter);
        assert_eq!(err.block, Some(0x4000 / 64));
        assert_eq!(err.core, Some(0));
        assert!(
            !err.history.is_empty(),
            "violation carries the block's event history"
        );
    }

    #[test]
    fn checker_flags_a_stuck_mshr_entry() {
        let mut m = single_core();
        let _ = m.cores[0]
            .mshr
            .allocate(7, MSHR_STUCK_HORIZON + 10, false, None, 0);
        let err = m.check_invariants(0).unwrap_err();
        assert_eq!(err.kind, InvariantKind::MshrLeak);
    }

    #[test]
    fn periodic_check_surfaces_through_take_violation() {
        let mut m = single_core();
        let _ = m.cores[0]
            .mshr
            .allocate(7, MSHR_STUCK_HORIZON + 10, false, None, 0);
        m.tick(0); // cycle 0 is always a checking cycle
        let v = m.take_violation().expect("violation pending");
        assert_eq!(v.kind, InvariantKind::MshrLeak);
        assert!(m.take_violation().is_none(), "taken exactly once");
    }

    #[test]
    fn disabled_checker_skips_periodic_scan() {
        let cfg = MemoryConfig {
            checker_interval: 0,
            ..Default::default()
        };
        let mut m = MemorySystem::new(cfg);
        let _ = m.cores[0]
            .mshr
            .allocate(7, MSHR_STUCK_HORIZON + 10, false, None, 0);
        m.tick(0);
        assert!(m.take_violation().is_none());
    }

    #[test]
    fn dram_spike_fault_delays_fills() {
        let clean = {
            let mut m = single_core();
            m.load(0, 0x10000, 0).ready
        };
        let faulty = {
            let mut m = MemorySystem::new(MemoryConfig {
                fault: FaultConfig {
                    dram_spike_rate: 1.0,
                    dram_spike_cycles: 500,
                    ..FaultConfig::none()
                },
                ..Default::default()
            });
            m.load(0, 0x10000, 0).ready
        };
        assert_eq!(faulty, clean + 500);
    }

    #[test]
    fn ack_delay_fault_postpones_prefetched_line() {
        let mut m = MemorySystem::new(MemoryConfig {
            fault: FaultConfig {
                ack_delay_rate: 1.0,
                ack_delay_cycles: 300,
                ..FaultConfig::none()
            },
            ..Default::default()
        });
        let _ = m.store_prefetch(0, 0x40000, 0x9, 0, RfoOrigin::AtCommit);
        let line_ready = m.cores[0].l1.peek(0x40000 / 64).unwrap().ready;
        assert_eq!(m.stats().faults_ack_delayed, 1);
        // A drain just before the delayed ready still retries.
        assert!(matches!(
            m.store_drain(0, 0x40000, line_ready - 1),
            StoreDrainOutcome::Retry { .. }
        ));
    }

    #[test]
    fn forced_mshr_exhaustion_queues_prefetches() {
        let mut m = MemorySystem::new(MemoryConfig {
            fault: FaultConfig {
                mshr_exhaust_rate: 1.0,
                ..FaultConfig::none()
            },
            ..Default::default()
        });
        let resp = m.store_prefetch(0, 0x50000, 0x9, 0, RfoOrigin::SpbBurst);
        assert_eq!(resp, RfoResponse::Queued);
        assert_eq!(m.burst_queue_len(0), 1);
        assert_eq!(m.stats().faults_mshr_denied, 1);
    }

    #[test]
    fn burst_drop_fault_shrinks_issued_bursts() {
        let mut m = MemorySystem::new(MemoryConfig {
            fault: FaultConfig {
                burst_drop_rate: 1.0,
                ..FaultConfig::none()
            },
            ..Default::default()
        });
        m.enqueue_burst(0, (0..8u64).map(|i| 0x100 + i), 0);
        for now in 0..4 {
            m.tick(now);
        }
        assert_eq!(m.burst_queue_len(0), 0, "drops still consume the queue");
        assert_eq!(m.stats().faults_bursts_dropped, 8);
        assert_eq!(m.stats().prefetch_requests[RfoOrigin::SpbBurst.index()], 0);
    }

    #[test]
    fn faulty_run_stays_coherent() {
        let cfg = MemoryConfig {
            cores: 2,
            fault: FaultConfig::uniform(0.2, 99),
            ..Default::default()
        };
        let mut m = MemorySystem::new(cfg);
        let mut now = 0u64;
        for i in 0..400u64 {
            let c = (i % 2) as usize;
            let r = m.load(c, 0x2000 + (i % 32) * 64, now);
            let _ = m.store_drain(1 - c, 0x2000 + (i % 32) * 64, now + 1);
            m.enqueue_burst(c, (0..4u64).map(|j| 0x800 + (i % 8) * 4 + j), 0);
            m.tick(now);
            assert!(m.take_violation().is_none(), "violation at iter {i}");
            now = r.ready + 1;
        }
        m.check_invariants_thorough(now)
            .expect("coherent under injected faults");
        let s = m.stats();
        assert!(
            s.faults_dram_spiked + s.faults_ack_delayed + s.faults_bursts_dropped > 0,
            "faults actually fired"
        );
    }

    #[test]
    fn no_fault_config_leaves_stats_untouched() {
        let mut m = single_core();
        let mut now = 0u64;
        for i in 0..100u64 {
            let r = m.load(0, 0x3000 + i * 64, now);
            m.tick(now);
            now = r.ready + 1;
        }
        let s = m.stats();
        assert_eq!(s.faults_ack_delayed, 0);
        assert_eq!(s.faults_dram_spiked, 0);
        assert_eq!(s.faults_mshr_denied, 0);
        assert_eq!(s.faults_bursts_dropped, 0);
    }

    #[test]
    fn diagnostic_snapshot_names_the_stuck_block() {
        let mut m = single_core();
        let _ = m.cores[0].mshr.allocate(0x77, 9_000_000, false, None, 0);
        let s = m.diagnostic_snapshot(100);
        assert!(s.contains("cycle 100"));
        assert!(s.contains("0x77"));
        assert!(s.contains("mshr 1/64"));
    }

    #[test]
    fn stride_prefetcher_issues_for_a_load_stream() {
        let mut m = single_core();
        let mut now = 0u64;
        for b in 0..40u64 {
            let r = m.load_with_pc(0, 0xE00000 + b * 64, 0x1234, now);
            now = r.ready + 1;
        }
        assert!(
            m.stats().prefetch_requests[RfoOrigin::CachePrefetcher.index()] > 0,
            "the stride prefetcher must have trained and issued"
        );
    }
}
