//! The out-of-order core: dispatch, completion, commit, and SB drain.

use crate::config::CoreConfig;
use crate::rob::{IssueQueue, RobEntry, RobRing, SbRing};
use spb_mem::blockmap::BlockMap;
use crate::policy::StorePrefetchPolicy;
use spb_mem::MemorySystem;
use spb_obs::{Event, EventKind, Observer};
use spb_stats::{Histogram, StallCause, TopDown};
use spb_trace::{CodeRegion, MicroOp, OpKind, TraceSource};

/// Size of the completion ring (max dependency distance honoured).
const RING: usize = 1024;
/// µops the front end reads from the trace per [`TraceSource::fill`]
/// call. The core refills only when every buffered µop has been
/// dispatched, so it never holds more than this many unexecuted µops.
const TRACE_RING: usize = 128;

/// Fraction of wrong-path µops that access the L1D (loads on the wrong
/// path), used for the energy/L1-traffic accounting of Figures 7 and 13.
const WRONG_PATH_LOAD_RATIO: f64 = 0.25;
/// Fraction of wrong-path µops that are stores (drives the at-execute
/// policy's wasted RFOs).
const WRONG_PATH_STORE_RATIO: f64 = 0.125;

/// Counters specific to the core model (the Top-Down breakdown lives in
/// [`TopDown`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Committed stores.
    pub committed_stores: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed branches.
    pub committed_branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Estimated wrong-path µops fetched while redirects were pending.
    pub wrong_path_uops: u64,
    /// Estimated wrong-path L1D accesses (energy model input).
    pub wrong_path_l1_accesses: u64,
    /// Loads satisfied by store-to-load forwarding from the SB (no L1
    /// access; the load reads the youngest older store's data).
    pub store_forwards: u64,
    /// Stores merged into an existing SB entry (coalescing mode only).
    pub coalesced_stores: u64,
    /// SB-stall cycles attributed to the code region of the blocking
    /// store (Figure 3), indexed parallel to [`CodeRegion::ALL`].
    pub sb_stall_by_region: [u64; 5],
    /// Explicitly modeled wrong-path stores fetched from the trace (the
    /// squash injector's streams), as opposed to the synthesized
    /// [`CpuStats::wrong_path_uops`] estimate.
    pub wrong_path_stores_injected: u64,
    /// Squash episodes resolved: each ends one injected wrong-path run
    /// and triggers waste attribution in the memory system.
    pub squash_episodes: u64,
}

impl CpuStats {
    /// SB-stall cycles charged to `region`.
    pub fn sb_stalls_in(&self, region: CodeRegion) -> u64 {
        self.sb_stall_by_region[region.index()]
    }
}

/// One simulated out-of-order core.
///
/// Drive it by calling [`Core::cycle`] once per cycle (after
/// [`MemorySystem::tick`]), or use [`Core::run_until_committed`] for
/// single-core runs. See the crate docs for the modelling rationale.
pub struct Core {
    id: usize,
    config: CoreConfig,
    trace: Box<dyn TraceSource + Send>,
    policy: Box<dyn StorePrefetchPolicy + Send>,
    rob: RobRing,
    /// Read-ahead µops from the trace: `ops[op_head..op_end]` are
    /// fetched but not yet dispatched, oldest first.
    ops: [MicroOp; TRACE_RING],
    op_head: usize,
    op_end: usize,
    completion_ring: [u64; RING],
    seq: u64,
    iq: IssueQueue,
    loads_in_flight: usize,
    stores_in_machine: usize,
    sb_pending: SbRing, // (addr, pc, commit cycle)
    /// Post-commit SB residency (cycles from commit to drain).
    sb_residency: Histogram,
    /// Qword addresses with at least one store still in the machine
    /// (dispatched, not yet drained), for store-to-load forwarding.
    pending_store_qwords: BlockMap<u32>,
    sb_next_attempt: u64,
    fetch_resume_at: u64,
    last_store_addr: u64,
    /// Whether the front end is currently feeding an injected wrong-path
    /// store run; cleared (and the squash charged) when the next
    /// correct-path µop arrives.
    in_wrong_path: bool,
    trace_done: bool,
    topdown: TopDown,
    stats: CpuStats,
    obs: Observer,
    /// Open dispatch-stall episode: (cause, start cycle, stalled cycles).
    /// Tracked only while an observer is attached.
    stall_episode: Option<(StallCause, u64, u32)>,
    /// Dispatch-stall cause (and blocking code-region index for SB
    /// stalls) captured by the last idle [`Core::next_event_at`] probe,
    /// replayed over the skipped span by [`Core::skip_span`].
    skip_stall: Option<(StallCause, usize)>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("config", &self.config)
            .field("rob_occupancy", &self.rob.len())
            .field("sb_occupancy", &self.stores_in_machine)
            .field("committed", &self.topdown.committed_uops())
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core with the given id, configuration, instruction
    /// source and store-prefetch policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`].
    pub fn new(
        id: usize,
        config: CoreConfig,
        trace: Box<dyn TraceSource + Send>,
        policy: Box<dyn StorePrefetchPolicy + Send>,
    ) -> Self {
        config.validate();
        Self {
            id,
            config,
            trace,
            policy,
            rob: RobRing::new(config.rob_entries),
            ops: [MicroOp::new(OpKind::IntAlu { latency: 1 }, 0); TRACE_RING],
            op_head: 0,
            op_end: 0,
            completion_ring: [0; RING],
            seq: 0,
            iq: IssueQueue::new(config.iq_entries),
            loads_in_flight: 0,
            stores_in_machine: 0,
            sb_pending: SbRing::new(config.sb_entries),
            sb_residency: Histogram::new("sb_residency_cycles", 16, 64),
            pending_store_qwords: BlockMap::new(),
            sb_next_attempt: 0,
            fetch_resume_at: 0,
            last_store_addr: 0,
            in_wrong_path: false,
            trace_done: false,
            topdown: TopDown::new(),
            stats: CpuStats::default(),
            obs: Observer::off(),
            stall_episode: None,
            skip_stall: None,
        }
    }

    /// Attaches an observability sink. Emitted events are pure reads of
    /// core state, so attaching one never changes a simulated number.
    pub fn set_observer(&mut self, obs: Observer) {
        self.obs = obs;
    }

    /// Emits the still-open dispatch-stall episode, if any. The runner
    /// calls this when a run ends so a run-ending stall is not lost.
    pub fn flush_stall_episode(&mut self) {
        if let Some((cause, start, cycles)) = self.stall_episode.take() {
            self.obs.emit(|| Event {
                cycle: start,
                core: self.id as u8,
                kind: EventKind::StallEpisode { cause, cycles },
            });
        }
    }

    /// The core's id (index into the memory system).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Committed µops so far.
    pub fn committed_uops(&self) -> u64 {
        self.topdown.committed_uops()
    }

    /// The Top-Down cycle accounting.
    pub fn topdown(&self) -> &TopDown {
        &self.topdown
    }

    /// Core-specific counters.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Whether the trace ended and all in-flight work has retired.
    pub fn is_drained(&self) -> bool {
        self.trace_done && self.rob.is_empty() && self.sb_pending.is_empty()
    }

    /// Current SB occupancy (dispatched-but-undrained stores).
    pub fn sb_occupancy(&self) -> usize {
        self.stores_in_machine
    }

    /// Post-commit SB residency distribution (cycles from commit to
    /// drain) of the stores drained so far.
    pub fn sb_residency(&self) -> &Histogram {
        &self.sb_residency
    }

    /// Clears all measurement state (end of warm-up) without touching
    /// pipeline occupancy.
    pub fn reset_stats(&mut self) {
        self.topdown.reset();
        self.stats = CpuStats::default();
        self.sb_residency.reset();
    }

    /// Advances the core by one cycle against `mem`.
    ///
    /// Call [`MemorySystem::tick`] for the same cycle first so the SPB
    /// burst queue drains before stores retry.
    pub fn cycle(&mut self, mem: &mut MemorySystem, now: u64) {
        let committed = self.commit(mem, now);
        self.drain_store_buffer(mem, now);
        self.dispatch(mem, now);
        self.topdown.tick();
        self.topdown.record_commit(committed);
        // "Execution stalls with L1D miss pending" (Intel Top-Down):
        // nothing retired this cycle, there is in-flight work — in the
        // ROB *or* waiting in the SB (a drain blocked on a store miss
        // keeps the counter ticking even if dispatch starvation drained
        // the ROB) — and a demand L1D miss is outstanding.
        if committed == 0
            && (!self.rob.is_empty() || !self.sb_pending.is_empty())
            && mem.has_pending_demand_miss(self.id, now)
        {
            self.topdown.record_l1d_miss_pending_stall();
        }
    }

    /// Accounts one cycle in which this hardware thread does not own
    /// the pipeline (SMT round-robin): the clock advances and the
    /// memory-boundness metric keeps ticking, but no dispatch, commit,
    /// or drain happens.
    pub(crate) fn tick_idle(&mut self, mem: &mut MemorySystem, now: u64) {
        self.topdown.tick();
        if (!self.rob.is_empty() || !self.sb_pending.is_empty())
            && mem.has_pending_demand_miss(self.id, now)
        {
            self.topdown.record_l1d_miss_pending_stall();
        }
    }

    /// Runs single-core until `uops` µops have committed; returns the
    /// cycle count consumed. Also drives [`MemorySystem::tick`].
    pub fn run_until_committed(&mut self, mem: &mut MemorySystem, uops: u64) -> u64 {
        let mut now = 0;
        let target = self.committed_uops() + uops;
        while self.committed_uops() < target && !self.is_drained() {
            mem.tick(now);
            self.cycle(mem, now);
            now += 1;
        }
        now
    }

    /// Probes whether this core has same-cycle work at `now`, and if
    /// not, when its state can next change (the skip-ahead kernel's
    /// per-core horizon).
    ///
    /// Returns `Some(now)` when the core would commit, drain, or
    /// dispatch this cycle (the kernel must run a normal cycle);
    /// `Some(t)` with `t > now` when the core is provably idle at every
    /// cycle in `now..t` (`t` is the earliest ROB-head completion, SB
    /// retry time, fetch-redirect resume, or issue-queue reclaim time);
    /// and `None` when the core is idle with no pending events at all
    /// (e.g. fully drained).
    ///
    /// An idle probe also captures the dispatch-stall cause for the
    /// span, which [`Core::skip_span`] replays. The probe performs
    /// exactly the state transitions dispatch itself would perform at
    /// `now` — refilling the µop ring, reclaiming issued IQ entries,
    /// latching end-of-trace — so running a normal cycle at `now` after
    /// a probe is bit-identical to running one without it.
    pub fn next_event_at(&mut self, now: u64) -> Option<u64> {
        if let Some(t) = self.rob.head_complete_at() {
            if t <= now {
                return Some(now); // commit has work this cycle
            }
        }
        let drain_waiting = !self.sb_pending.is_empty();
        if drain_waiting && now >= self.sb_next_attempt {
            return Some(now); // the SB head would attempt a drain
        }
        // Commit and drain are idle, so dispatch sees exactly the state
        // it would see inside `cycle()`; replicate its gating.
        self.skip_stall = None;
        let mut iq_wake: Option<u64> = None;
        if now < self.fetch_resume_at {
            self.skip_stall = Some((StallCause::FrontEnd, 0));
        } else {
            match self.peek_op() {
                None => {}
                Some(op) if op.is_wrong_path() || self.in_wrong_path => {
                    // Wrong-path work (or a squash waiting to resolve)
                    // always has same-cycle effects in `dispatch`.
                    return Some(now);
                }
                Some(op) => match self.blocking_resource(&op, now) {
                    None => return Some(now), // dispatch would issue this cycle
                    Some(cause) => {
                        let region = if cause == StallCause::StoreBuffer {
                            self.sb_blocking_region(&op)
                        } else {
                            0
                        };
                        self.skip_stall = Some((cause, region));
                        // An IssueQueue stall can clear as soon as an
                        // in-flight µop's issue time passes (IQ
                        // reclaim), so never skip past the earliest
                        // one. Every other cause is a function of ROB
                        // occupancy and in-flight load/store counts,
                        // which only commit, drain, or issue can change
                        // — all covered by the other wake candidates.
                        if cause == StallCause::IssueQueue {
                            iq_wake = self.iq.earliest();
                        }
                    }
                },
            }
        }
        let mut next: Option<u64> = None;
        let mut merge = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        if let Some(t) = self.rob.head_complete_at() {
            merge(t);
        }
        if drain_waiting {
            merge(self.sb_next_attempt);
        }
        if self.fetch_resume_at > now {
            merge(self.fetch_resume_at);
        }
        if let Some(t) = iq_wake {
            merge(t);
        }
        next
    }

    /// Replays, in O(1), the per-cycle accounting that the `until - now`
    /// consecutive idle cycles established by [`Core::next_event_at`]
    /// would have produced under the lock-step kernel: cycle ticks, the
    /// captured dispatch-stall cause (and its Figure 3 region charge),
    /// L1D-miss-pending execution stalls, and the open stall episode.
    /// An empty span (`until == now`) is a no-op: it covers no cycle, so
    /// it must not flush or open a stall episode either.
    pub fn skip_span(&mut self, mem: &MemorySystem, now: u64, until: u64) {
        let n = until - now;
        if n == 0 {
            return;
        }
        self.topdown.tick_n(n);
        if let Some((cause, region)) = self.skip_stall {
            self.topdown.record_stall_n(cause, n);
            if cause == StallCause::StoreBuffer {
                self.stats.sb_stall_by_region[region] += n;
            }
        }
        if !self.rob.is_empty() || !self.sb_pending.is_empty() {
            // `demand_miss_until` cannot change over a span in which no
            // core touches the memory system, so the per-cycle check
            // collapses to a range intersection.
            let pending = mem
                .demand_miss_until(self.id)
                .min(until)
                .saturating_sub(now);
            self.topdown.record_l1d_miss_pending_stall_n(pending);
        }
        if self.obs.enabled() {
            match (self.stall_episode.as_mut(), self.skip_stall) {
                (Some((cause, _, cycles)), Some((new_cause, _))) if *cause == new_cause => {
                    *cycles += n as u32;
                }
                (_, stalled) => {
                    self.flush_stall_episode();
                    if let Some((cause, _)) = stalled {
                        self.stall_episode = Some((cause, now, n as u32));
                    }
                }
            }
        }
    }

    fn commit(&mut self, mem: &mut MemorySystem, now: u64) -> u64 {
        let mut committed = 0;
        while committed < u64::from(self.config.commit_width) {
            let Some(t) = self.rob.head_complete_at() else {
                break;
            };
            if t > now {
                break;
            }
            let e = self.rob.pop_front().expect("head exists");
            if e.is_store {
                self.stats.committed_stores += 1;
                let coalesced = self.config.coalescing
                    && self
                        .sb_pending
                        .back_addr()
                        .is_some_and(|prev| prev / 64 == e.addr / 64);
                if coalesced {
                    // The store merges into the tail entry: its SB slot
                    // frees immediately and the group drains as one
                    // write (non-speculative coalescing, §VII-B).
                    self.stats.coalesced_stores += 1;
                    self.stores_in_machine -= 1;
                    let q = e.addr & !7;
                    if let Some(n) = self.pending_store_qwords.get_mut(q) {
                        *n -= 1;
                        if *n == 0 {
                            self.pending_store_qwords.remove(q);
                        }
                    }
                } else {
                    self.sb_pending.push_back(e.addr, e.pc, now);
                    self.obs.emit(|| Event {
                        cycle: now,
                        core: self.id as u8,
                        kind: EventKind::SbEnqueue {
                            occupancy: self.sb_pending.len() as u32,
                        },
                    });
                }
                self.policy
                    .on_store_commit(mem, self.id, e.addr, e.size, e.pc, now);
            } else if e.is_load {
                self.stats.committed_loads += 1;
                self.loads_in_flight -= 1;
            } else if e.is_branch {
                self.stats.committed_branches += 1;
            }
            committed += 1;
        }
        committed
    }

    fn drain_store_buffer(&mut self, mem: &mut MemorySystem, now: u64) {
        if now < self.sb_next_attempt {
            return;
        }
        let Some((addr, _pc, committed_at)) = self.sb_pending.front() else {
            return;
        };
        match mem.store_drain(self.id, addr, now) {
            spb_mem::system::StoreDrainOutcome::Performed { .. } => {
                self.sb_residency.record(now - committed_at);
                self.sb_pending.pop_front();
                self.obs.emit(|| Event {
                    cycle: now,
                    core: self.id as u8,
                    kind: EventKind::SbDrain {
                        occupancy: self.sb_pending.len() as u32,
                        residency: (now - committed_at) as u32,
                    },
                });
                self.stores_in_machine -= 1;
                let q = addr & !7;
                if let Some(n) = self.pending_store_qwords.get_mut(q) {
                    *n -= 1;
                    if *n == 0 {
                        self.pending_store_qwords.remove(q);
                    }
                }
                // Pipelined L1 store port: one drain per cycle.
                self.sb_next_attempt = now + 1;
            }
            spb_mem::system::StoreDrainOutcome::Retry { at } => {
                self.sb_next_attempt = at.max(now + 1);
            }
        }
    }

    fn dispatch(&mut self, mem: &mut MemorySystem, now: u64) {
        let mut dispatched = 0u32;
        let mut stall: Option<StallCause> = None;

        while dispatched < self.config.dispatch_width {
            if now < self.fetch_resume_at {
                stall.get_or_insert(StallCause::FrontEnd);
                break;
            }
            let Some(op) = self.peek_op() else {
                break;
            };
            if op.is_wrong_path() {
                // A wrong-path µop consumes a front-end slot but never
                // enters the ROB, IQ, or SB — it exists so speculative
                // policies see its address and pay for it.
                self.op_head += 1;
                self.in_wrong_path = true;
                self.stats.wrong_path_uops += 1;
                if let OpKind::Store { addr, size } = op.kind() {
                    self.stats.wrong_path_stores_injected += 1;
                    self.policy
                        .on_wrong_path_store(mem, self.id, addr, size, op.pc(), now);
                }
                dispatched += 1;
                continue;
            }
            if self.in_wrong_path {
                // First correct-path µop after a wrong-path run: the
                // squash resolves here. Charge the memory system's waste
                // attribution, reset the policy's path-local state, and
                // pay the fetch redirect before the correct path resumes.
                self.in_wrong_path = false;
                self.stats.squash_episodes += 1;
                mem.attribute_squash(self.id, now);
                self.policy.on_wrong_path_squash(mem, self.id, now);
                self.fetch_resume_at = self
                    .fetch_resume_at
                    .max(now + self.config.redirect_penalty);
                continue;
            }
            if let Some(cause) = self.blocking_resource(&op, now) {
                if cause == StallCause::StoreBuffer {
                    // Figure 3: charge the stall to the code region of the
                    // store blocking the SB head.
                    let region = self.sb_blocking_region(&op);
                    self.stats.sb_stall_by_region[region] += 1;
                }
                stall.get_or_insert(cause);
                break;
            }
            self.op_head += 1;
            self.issue_op(mem, op, now);
            dispatched += 1;
        }

        if dispatched == 0 {
            if let Some(cause) = stall {
                self.topdown.record_stall(cause);
            }
        }
        if self.obs.enabled() {
            self.track_stall_episode(if dispatched == 0 { stall } else { None }, now);
        }
    }

    /// Folds this cycle's dispatch outcome into the open stall episode:
    /// same cause extends it, anything else closes it (emitting a
    /// [`EventKind::StallEpisode`]) and possibly opens a new one. Only
    /// called while an observer is attached, so the disabled path keeps
    /// no state.
    fn track_stall_episode(&mut self, stalled_on: Option<StallCause>, now: u64) {
        match (self.stall_episode.as_mut(), stalled_on) {
            (Some((cause, _, cycles)), Some(new_cause)) if *cause == new_cause => {
                *cycles += 1;
            }
            (_, new_cause) => {
                self.flush_stall_episode();
                if let Some(cause) = new_cause {
                    self.stall_episode = Some((cause, now, 1));
                }
            }
        }
    }

    /// The next trace µop, left in the µop ring until dispatch consumes
    /// it (`op_head += 1`). An empty ring is refilled with one
    /// [`TraceSource::fill`] batch; `None` latches end-of-trace.
    #[inline]
    fn peek_op(&mut self) -> Option<MicroOp> {
        if self.op_head == self.op_end && !self.refill_ops() {
            return None;
        }
        Some(self.ops[self.op_head])
    }

    #[cold]
    #[inline(never)]
    fn refill_ops(&mut self) -> bool {
        self.op_head = 0;
        self.op_end = self.trace.fill(&mut self.ops);
        self.trace_done |= self.op_end == 0;
        self.op_end > 0
    }

    /// [`CodeRegion::index`] of the store blocking the SB head, which a
    /// Figure 3 SB stall of `op` is charged to (`op`'s own region while
    /// no store has committed into the SB).
    fn sb_blocking_region(&self, op: &MicroOp) -> usize {
        let pc = self.sb_pending.front_pc().unwrap_or(op.pc());
        CodeRegion::of_pc(pc).index()
    }

    /// The oldest resource that blocks dispatching `op`, if any.
    fn blocking_resource(&mut self, op: &MicroOp, now: u64) -> Option<StallCause> {
        if self.rob.len() >= self.config.rob_entries {
            return Some(StallCause::Rob);
        }
        if self.iq.is_full(now) {
            return Some(StallCause::IssueQueue);
        }
        if self.rob.len() >= self.config.int_regs + self.config.fp_regs {
            return Some(StallCause::Registers);
        }
        match op.kind() {
            OpKind::Load { .. } if self.loads_in_flight >= self.config.lq_entries => {
                Some(StallCause::LoadQueue)
            }
            OpKind::Store { .. } if self.stores_in_machine >= self.config.sb_entries => {
                Some(StallCause::StoreBuffer)
            }
            _ => None,
        }
    }

    fn issue_op(&mut self, mem: &mut MemorySystem, op: MicroOp, now: u64) {
        self.seq += 1;
        let seq = self.seq;
        let mut dep_ready = 0u64;
        for d in op.deps() {
            let d = u64::from(d);
            if d == 0 || d > seq || d as usize >= RING {
                continue;
            }
            dep_ready = dep_ready.max(self.completion_ring[((seq - d) as usize) % RING]);
        }
        let issue_at = dep_ready.max(now + 1);

        let (complete_at, is_store, is_load, is_branch, addr, size) = match op.kind() {
            OpKind::IntAlu { latency } | OpKind::FpAlu { latency } => {
                (issue_at + u64::from(latency), false, false, false, 0, 0)
            }
            OpKind::Load { addr, size } => {
                self.loads_in_flight += 1;
                // Store-to-load forwarding: a load whose qword has an
                // older store still in the SB reads the store's data
                // directly (one cycle, no L1 access).
                if self.pending_store_qwords.contains(addr & !7) {
                    self.stats.store_forwards += 1;
                    (issue_at + 1, false, true, false, addr, size)
                } else {
                    let res = mem.load_with_pc(self.id, addr, op.pc(), issue_at);
                    (res.ready, false, true, false, addr, size)
                }
            }
            OpKind::Store { addr, size } => {
                self.policy
                    .on_store_execute(mem, self.id, addr, size, op.pc(), issue_at);
                self.stores_in_machine += 1;
                let q = addr & !7;
                if let Some(n) = self.pending_store_qwords.get_mut(q) {
                    *n += 1;
                } else {
                    self.pending_store_qwords.insert(q, 1);
                }
                self.last_store_addr = addr;
                (issue_at, true, false, false, addr, size)
            }
            OpKind::Branch { mispredict } => {
                let resolve = issue_at + 1;
                if mispredict {
                    self.squash(mem, now, resolve);
                }
                (resolve, false, false, true, 0, 0)
            }
        };

        self.completion_ring[(seq as usize) % RING] = complete_at;
        if issue_at > now + 1 {
            self.iq.push(issue_at);
        }
        self.rob.push_back(RobEntry {
            complete_at,
            addr,
            pc: op.pc(),
            size,
            is_store,
            is_load,
            is_branch,
        });
    }

    fn squash(&mut self, mem: &mut MemorySystem, now: u64, resolve: u64) {
        self.stats.mispredicts += 1;
        let resume = resolve + self.config.redirect_penalty;
        self.fetch_resume_at = self.fetch_resume_at.max(resume);
        // The front end fetched wrong-path µops from `now` until the
        // redirect; cap by what the machine can physically hold.
        let window = resume.saturating_sub(now);
        let wrong =
            (u64::from(self.config.dispatch_width) * window).min(self.config.rob_entries as u64);
        self.stats.wrong_path_uops += wrong;
        let wrong_loads = (wrong as f64 * WRONG_PATH_LOAD_RATIO) as u64;
        self.stats.wrong_path_l1_accesses += wrong_loads;
        let wrong_stores = (wrong as f64 * WRONG_PATH_STORE_RATIO) as u64;
        self.policy
            .on_squash(mem, self.id, self.last_store_addr, wrong_stores, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AtCommitPolicy, NoPolicy};
    use spb_mem::MemoryConfig;
    use spb_trace::generators::{ComputeGen, ComputeParams, MemsetGen, PointerChaseGen};
    use spb_trace::phased::{PhaseSpec, PhasedWorkload};

    fn mem() -> MemorySystem {
        MemorySystem::new(MemoryConfig::default())
    }

    fn compute_trace(count: u64) -> Box<dyn TraceSource + Send> {
        Box::new(ComputeGen::new(
            ComputeParams {
                count,
                fp_ratio: 0.0,
                mispredict_rate: 0.0,
                branch_every: 8,
                dep_density: 0.0,
            },
            1,
        ))
    }

    #[test]
    fn commit_width_bounds_ipc() {
        let mut m = mem();
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            compute_trace(4000),
            Box::new(NoPolicy),
        );
        let cycles = core.run_until_committed(&mut m, 4000);
        assert!(core.committed_uops() >= 4000);
        let ipc = core.committed_uops() as f64 / cycles as f64;
        assert!(ipc <= 4.0 + 1e-9, "ipc {ipc} exceeds the machine width");
        assert!(
            ipc > 2.0,
            "independent int ops should run near full width, got {ipc}"
        );
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut m = mem();
        let serial = ComputeParams {
            count: 2000,
            fp_ratio: 0.0,
            mispredict_rate: 0.0,
            branch_every: 1_000_000,
            dep_density: 1.0,
        };
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            Box::new(ComputeGen::new(serial, 1)),
            Box::new(NoPolicy),
        );
        let cycles = core.run_until_committed(&mut m, 2000);
        let ipc = core.committed_uops() as f64 / cycles as f64;
        assert!(
            ipc < 1.2,
            "a fully dependent chain cannot exceed 1 ipc, got {ipc}"
        );
    }

    #[test]
    fn store_burst_without_prefetch_stalls_on_sb() {
        let mut m = mem();
        let trace = Box::new(MemsetGen::new(0x10_0000, 256 * 1024, CodeRegion::Memset, 1));
        let mut core = Core::new(0, CoreConfig::skylake(), trace, Box::new(NoPolicy));
        let _ = core.run_until_committed(&mut m, 40_000);
        assert!(
            core.topdown().sb_stall_ratio() > 0.3,
            "a serialized DRAM-missing store burst must be SB-bound, ratio {}",
            core.topdown().sb_stall_ratio()
        );
    }

    #[test]
    fn at_commit_reduces_sb_stalls_versus_none() {
        let run = |policy: Box<dyn StorePrefetchPolicy + Send>| {
            let mut m = mem();
            let trace = Box::new(MemsetGen::new(0x10_0000, 256 * 1024, CodeRegion::Memset, 1));
            let mut core = Core::new(0, CoreConfig::skylake(), trace, policy);
            let cycles = core.run_until_committed(&mut m, 40_000);
            (cycles, core.topdown().stall_cycles(StallCause::StoreBuffer))
        };
        let (cycles_none, stalls_none) = run(Box::new(NoPolicy));
        let (cycles_commit, stalls_commit) = run(Box::new(AtCommitPolicy::new()));
        assert!(
            cycles_commit < cycles_none,
            "at-commit must speed up a store burst: {cycles_commit} vs {cycles_none}"
        );
        assert!(stalls_commit < stalls_none);
    }

    /// A realistic workload interleaves bursts with compute, so the mean
    /// store rate stays under the 1-per-cycle drain rate; with a
    /// 1024-entry SB the bursts are absorbed and SB stalls vanish.
    /// (A *pure* memset is different: stores commit faster than any SB
    /// can drain, so even an ideal SB backs up — that is physics, not a
    /// modelling artefact.)
    #[test]
    fn ideal_sb_eliminates_sb_stalls_on_mixed_workload() {
        let mixed = || {
            Box::new(PhasedWorkload::new(
                vec![
                    PhaseSpec::Memset {
                        bytes: 4096,
                        region: CodeRegion::Memset,
                        footprint_pages: 1 << 13,
                    },
                    PhaseSpec::Compute(ComputeParams {
                        count: 4096,
                        fp_ratio: 0.2,
                        mispredict_rate: 0.001,
                        branch_every: 8,
                        dep_density: 0.3,
                    }),
                ],
                1,
            ))
        };
        let stall_ratio = |sb: usize| {
            let mut m = mem();
            let cfg = CoreConfig::skylake().with_sb_entries(sb);
            let mut core = Core::new(0, cfg, mixed(), Box::new(AtCommitPolicy::new()));
            let _ = core.run_until_committed(&mut m, 60_000);
            core.topdown().sb_stall_ratio()
        };
        let ideal = stall_ratio(1024);
        let sb14 = stall_ratio(14);
        assert!(ideal < 0.01, "ideal SB must absorb bursts, got {ideal}");
        assert!(
            sb14 > ideal + 0.02,
            "SB14 must stall visibly more: {sb14} vs {ideal}"
        );
    }

    #[test]
    fn smaller_sb_stalls_more() {
        let stalls = |sb: usize| {
            let mut m = mem();
            let trace = Box::new(MemsetGen::new(0x10_0000, 128 * 1024, CodeRegion::Memset, 1));
            let cfg = CoreConfig::skylake().with_sb_entries(sb);
            let mut core = Core::new(0, cfg, trace, Box::new(AtCommitPolicy::new()));
            let cycles = core.run_until_committed(&mut m, 20_000);
            (cycles, core.topdown().stall_cycles(StallCause::StoreBuffer))
        };
        let (c56, s56) = stalls(56);
        let (c14, s14) = stalls(14);
        assert!(s14 > s56, "SB14 must stall more than SB56 ({s14} vs {s56})");
        assert!(c14 >= c56);
    }

    #[test]
    fn mispredicts_create_front_end_stalls_and_wrong_path() {
        let mut m = mem();
        let params = ComputeParams {
            count: 5000,
            fp_ratio: 0.0,
            mispredict_rate: 0.3,
            branch_every: 4,
            dep_density: 0.2,
        };
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            Box::new(ComputeGen::new(params, 3)),
            Box::new(NoPolicy),
        );
        let _ = core.run_until_committed(&mut m, 5000);
        assert!(core.stats().mispredicts > 50);
        assert!(core.stats().wrong_path_uops > 0);
        assert!(core.topdown().stall_cycles(StallCause::FrontEnd) > 0);
    }

    #[test]
    fn sb_stalls_attributed_to_blocking_region() {
        let mut m = mem();
        let trace = Box::new(MemsetGen::new(0x10_0000, 128 * 1024, CodeRegion::Memset, 1));
        let mut core = Core::new(
            0,
            CoreConfig::skylake().with_sb_entries(14),
            trace,
            Box::new(NoPolicy),
        );
        let _ = core.run_until_committed(&mut m, 20_000);
        assert!(core.stats().sb_stalls_in(CodeRegion::Memset) > 0);
        assert_eq!(core.stats().sb_stalls_in(CodeRegion::ClearPage), 0);
    }

    #[test]
    fn pointer_chase_is_latency_bound_not_sb_bound() {
        let mut m = mem();
        let trace = Box::new(PointerChaseGen::new(0x100_0000, 1 << 16, 5_000, 7));
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            trace,
            Box::new(AtCommitPolicy::new()),
        );
        let cycles = core.run_until_committed(&mut m, 10_000);
        let ipc = core.committed_uops() as f64 / cycles as f64;
        assert!(ipc < 0.5, "dependent DRAM misses should crawl, got {ipc}");
        assert!(core.topdown().sb_stall_ratio() < 0.01);
        assert!(core.topdown().l1d_miss_pending_stalls() > cycles / 4);
    }

    #[test]
    fn drained_core_stops() {
        let mut m = mem();
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            compute_trace(100),
            Box::new(NoPolicy),
        );
        let _ = core.run_until_committed(&mut m, 10_000);
        assert!(core.is_drained());
        assert_eq!(core.committed_uops(), 100);
    }

    #[test]
    fn reset_stats_clears_measurements_midstream() {
        let mut m = mem();
        let workload = PhasedWorkload::new(
            vec![PhaseSpec::Memset {
                bytes: 4096,
                region: CodeRegion::Memset,
                footprint_pages: 1 << 12,
            }],
            1,
        );
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            Box::new(workload),
            Box::new(NoPolicy),
        );
        let _ = core.run_until_committed(&mut m, 5_000);
        core.reset_stats();
        assert_eq!(core.committed_uops(), 0);
        assert_eq!(core.topdown().cycles(), 0);
    }

    /// The contract the `spb-verify` oracles rest on: commit is in
    /// order and wrong-path µops are synthesized, so the committed µop
    /// stream is *exactly* a prefix of the trace — replaying the same
    /// workload predicts the per-kind committed counts bit-exactly.
    #[test]
    fn committed_stream_is_exactly_a_trace_prefix() {
        let specs = vec![
            PhaseSpec::Memset {
                bytes: 2048,
                region: CodeRegion::Memset,
                footprint_pages: 8,
            },
            PhaseSpec::Compute(ComputeParams {
                count: 300,
                ..Default::default()
            }),
            PhaseSpec::PointerChase {
                count: 40,
                pool_pages: 4,
            },
        ];
        let trace = PhasedWorkload::new(specs.clone(), 11);
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            Box::new(trace),
            Box::new(AtCommitPolicy::new()),
        );
        let mut m = mem();
        let _ = core.run_until_committed(&mut m, 5_000);
        let n = core.committed_uops();
        assert!(n >= 5_000);
        // Replay the same workload: committed per-kind counts must equal
        // the counts over exactly the first `n` trace entries.
        let mut reference = PhasedWorkload::new(specs, 11);
        let (mut stores, mut loads, mut branches) = (0u64, 0u64, 0u64);
        for _ in 0..n {
            match reference.next_op().unwrap().kind() {
                OpKind::Store { .. } => stores += 1,
                OpKind::Load { .. } => loads += 1,
                OpKind::Branch { .. } => branches += 1,
                _ => {}
            }
        }
        assert_eq!(core.stats().committed_stores, stores);
        assert_eq!(core.stats().committed_loads, loads);
        assert_eq!(core.stats().committed_branches, branches);
    }
}

#[cfg(test)]
mod trace_ring_tests {
    use super::*;
    use crate::policy::{AtCommitPolicy, AtExecutePolicy};
    use spb_mem::MemoryConfig;
    use spb_trace::profile::AppProfile;
    use spb_trace::{SquashConfig, SquashInjector};

    /// Hands over one µop per `fill` call: the core then reads its trace
    /// µop by µop, as it did before it read in batches.
    struct PerOp(Box<dyn TraceSource + Send>);

    impl TraceSource for PerOp {
        fn next_op(&mut self) -> Option<MicroOp> {
            self.0.next_op()
        }

        fn fill(&mut self, out: &mut [MicroOp]) -> usize {
            let Some(slot) = out.first_mut() else {
                return 0;
            };
            match self.0.next_op() {
                Some(op) => {
                    *slot = op;
                    1
                }
                None => 0,
            }
        }
    }

    /// Runs `trace` for `cycles` cycles, probing [`Core::next_event_at`]
    /// before every cycle when `probe` is set (as the skip-ahead kernel
    /// does on quiet cycles).
    fn drive(
        trace: Box<dyn TraceSource + Send>,
        at_execute: bool,
        probe: bool,
        cycles: u64,
    ) -> (u64, CpuStats, TopDown, spb_mem::system::MemStats) {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let policy: Box<dyn StorePrefetchPolicy + Send> = if at_execute {
            Box::new(AtExecutePolicy::new())
        } else {
            Box::new(AtCommitPolicy::new())
        };
        let cfg = CoreConfig::skylake().with_sb_entries(14);
        let mut core = Core::new(0, cfg, trace, policy);
        for now in 0..cycles {
            mem.tick(now);
            if probe {
                let _ = core.next_event_at(now);
            }
            core.cycle(&mut mem, now);
        }
        (
            core.committed_uops(),
            core.stats().clone(),
            core.topdown().clone(),
            mem.stats().clone(),
        )
    }

    /// Reading the trace in ring-sized batches commits exactly what
    /// reading it µop by µop commits: same µops, same cycles, same
    /// stalls, same memory traffic — with and without wrong-path runs in
    /// the ring, and with and without the idle probe peeking at it.
    #[test]
    fn batched_and_per_op_reads_commit_identical_windows() {
        let squash = SquashConfig::parse("rate=0.05,depth=4..24,storm=2,seed=9").unwrap();
        for name in ["x264", "cam4", "mcf"] {
            let app = AppProfile::by_name(name).unwrap();
            for (with_squash, probe) in [(false, false), (true, true), (true, false)] {
                let source = || -> Box<dyn TraceSource + Send> {
                    if with_squash {
                        Box::new(SquashInjector::new(app.build(42), squash, 0))
                    } else {
                        Box::new(app.build(42))
                    }
                };
                let batched = drive(source(), with_squash, probe, 40_000);
                let per_op = drive(Box::new(PerOp(source())), with_squash, probe, 40_000);
                assert!(
                    batched.0 > 1_000,
                    "{name}: only {} µops committed",
                    batched.0
                );
                assert_eq!(batched, per_op, "{name} squash={with_squash} probe={probe}");
            }
        }
    }
}

#[cfg(test)]
mod wrong_path_tests {
    use super::*;
    use crate::policy::{AtExecutePolicy, NoPolicy};
    use spb_mem::MemoryConfig;
    use spb_trace::generators::{ComputeGen, ComputeParams};
    use spb_trace::{SquashConfig, SquashInjector};

    fn branchy(count: u64, seed: u64) -> ComputeGen {
        ComputeGen::new(
            ComputeParams {
                count,
                fp_ratio: 0.0,
                mispredict_rate: 0.0,
                branch_every: 4,
                dep_density: 0.1,
            },
            seed,
        )
    }

    fn storm() -> SquashConfig {
        SquashConfig::parse("rate=0.3,depth=8..16,storm=1,seed=3").unwrap()
    }

    fn run(policy: Box<dyn StorePrefetchPolicy + Send>, inject: bool) -> (Core, MemorySystem) {
        let mut m = MemorySystem::new(MemoryConfig::default());
        let trace: Box<dyn TraceSource + Send> = if inject {
            Box::new(SquashInjector::new(branchy(20_000, 7), storm(), 0))
        } else {
            Box::new(branchy(20_000, 7))
        };
        let mut core = Core::new(0, CoreConfig::skylake(), trace, policy);
        let _ = core.run_until_committed(&mut m, 10_000);
        (core, m)
    }

    #[test]
    fn injected_wrong_path_stores_never_commit() {
        let (clean, _) = run(Box::new(NoPolicy), false);
        let (injected, _) = run(Box::new(NoPolicy), true);
        assert!(injected.stats().squash_episodes > 0);
        assert!(injected.stats().wrong_path_stores_injected > 0);
        // The committed stream is untouched by injection: same per-kind
        // counts over the same committed µop count.
        assert_eq!(injected.committed_uops(), clean.committed_uops());
        assert_eq!(
            injected.stats().committed_stores,
            clean.stats().committed_stores
        );
        assert_eq!(
            injected.stats().committed_branches,
            clean.stats().committed_branches
        );
    }

    #[test]
    fn at_execute_pays_for_wrong_path_runs() {
        let (core, m) = run(Box::new(AtExecutePolicy::new()), true);
        assert!(core.stats().squash_episodes > 0);
        assert_eq!(m.stats().spec_squashes, core.stats().squash_episodes);
        assert!(m.stats().spec_rfos_issued > 0);
        assert!(m.stats().spec_wasted_rfos > 0, "wrong-path RFOs are waste");
        assert!(m.stats().spec_leaked_m_blocks > 0);
        m.check_invariants_thorough(1_000_000).unwrap();
    }

    #[test]
    fn passive_policy_sees_squashes_but_leaks_nothing() {
        let (core, m) = run(Box::new(NoPolicy), true);
        assert!(core.stats().squash_episodes > 0);
        assert_eq!(m.stats().spec_squashes, core.stats().squash_episodes);
        assert_eq!(m.stats().spec_rfos_issued, 0);
        assert_eq!(m.stats().spec_leaked_m_blocks, 0);
    }
}

#[cfg(test)]
mod forwarding_tests {
    use super::*;
    use crate::policy::NoPolicy;
    use spb_mem::MemoryConfig;
    use spb_trace::generators::{ComputeGen, ComputeParams};

    /// A hand-built trace: store to an address, then load it back while
    /// the store is still in the SB — the load must forward.
    struct StoreThenLoad {
        emitted: usize,
    }

    impl TraceSource for StoreThenLoad {
        fn next_op(&mut self) -> Option<MicroOp> {
            self.emitted += 1;
            match self.emitted {
                1 => Some(MicroOp::new(
                    OpKind::Store {
                        addr: 0xBEEF00,
                        size: 8,
                    },
                    0x1,
                )),
                2 => Some(MicroOp::new(
                    OpKind::Load {
                        addr: 0xBEEF00,
                        size: 8,
                    },
                    0x2,
                )),
                3..=50 => Some(MicroOp::new(OpKind::IntAlu { latency: 1 }, 0x3)),
                _ => None,
            }
        }
    }

    #[test]
    fn load_forwards_from_pending_store() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            Box::new(StoreThenLoad { emitted: 0 }),
            Box::new(NoPolicy::new()),
        );
        let _ = core.run_until_committed(&mut mem, 50);
        assert_eq!(core.stats().store_forwards, 1);
        // The forwarded load never touched the L1.
        assert_eq!(mem.stats().loads, 0);
    }

    #[test]
    fn unrelated_loads_do_not_forward() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let trace = ComputeGen::new(
            ComputeParams {
                count: 200,
                ..Default::default()
            },
            3,
        );
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            Box::new(trace),
            Box::new(NoPolicy::new()),
        );
        let _ = core.run_until_committed(&mut mem, 200);
        assert_eq!(core.stats().store_forwards, 0);
    }
}

#[cfg(test)]
mod coalescing_tests {
    use super::*;
    use crate::policy::AtCommitPolicy;
    use spb_mem::MemoryConfig;
    use spb_trace::generators::MemsetGen;

    fn run_memset(coalescing: bool, sb: usize) -> (u64, u64, u64) {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let cfg = if coalescing {
            CoreConfig::skylake().with_sb_entries(sb).with_coalescing()
        } else {
            CoreConfig::skylake().with_sb_entries(sb)
        };
        let trace = MemsetGen::new(0x100_0000, 128 * 1024, CodeRegion::Memset, 1);
        let mut core = Core::new(0, cfg, Box::new(trace), Box::new(AtCommitPolicy::new()));
        let cycles = core.run_until_committed(&mut mem, 20_000);
        (
            cycles,
            core.stats().coalesced_stores,
            core.stats().committed_stores,
        )
    }

    #[test]
    fn coalescing_merges_seven_of_eight_burst_stores() {
        let (_, merged, committed) = run_memset(true, 14);
        let ratio = merged as f64 / committed as f64;
        assert!(
            (0.80..=0.90).contains(&ratio),
            "8-byte stores into 64-byte blocks must merge ~7/8, got {ratio:.3}"
        );
    }

    #[test]
    fn coalescing_speeds_up_bursts_at_small_sb() {
        let (plain, _, _) = run_memset(false, 14);
        let (merged, _, _) = run_memset(true, 14);
        assert!(
            merged < plain,
            "coalescing must relieve SB pressure: {merged} vs {plain}"
        );
    }

    #[test]
    fn coalescing_is_off_by_default_and_inert() {
        let (_, merged, _) = run_memset(false, 14);
        assert_eq!(merged, 0);
    }
}
