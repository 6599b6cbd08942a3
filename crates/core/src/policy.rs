//! SPB as a drop-in store-prefetch policy.

use crate::detector::{Burst, SpbDetector, BLOCK_BYTES, SAT_MAX};
use crate::params::SpbParams;
use spb_cpu::StorePrefetchPolicy;
use spb_mem::{MemorySystem, RfoOrigin};

/// Wrong-path companion to the commit-fed SPB detector.
///
/// The paper's SPB observes *committed* stores, so squashed work never
/// reaches it. The squash-storm scenarios ask the opposite question:
/// what does SPB waste if its window closes over a wrong-path store run
/// (a detector fed at execute, or deep ret2spec-style speculation where
/// a whole burst executes before the misprediction resolves)? This
/// mini-detector mirrors the main one's trigger rule — a contiguous
/// same-page ±1-block run reaching the window `n` — but issues its page
/// burst through [`MemorySystem::enqueue_burst_spec`], so every block it
/// acquires is tagged and charged at squash time. It keeps no state
/// across paths: [`WrongPathWindow::reset`] runs at every squash.
#[derive(Debug, Clone, Copy)]
struct WrongPathWindow {
    n: u64,
    last_block: u64,
    run: u64,
    descending: bool,
    fired_page: u64,
}

impl WrongPathWindow {
    fn new(n: u32) -> Self {
        Self {
            n: u64::from(n.max(1)),
            last_block: u64::MAX - 1,
            run: 0,
            descending: false,
            fired_page: u64::MAX,
        }
    }

    /// Observes one wrong-path store; returns the burst when the window
    /// closes over a contiguous run on a new page.
    fn observe(&mut self, addr: u64) -> Option<Burst> {
        let block = addr / 64;
        let asc = block == self.last_block.wrapping_add(1);
        let desc = block == self.last_block.wrapping_sub(1);
        if asc || desc {
            self.run += 1;
            self.descending = desc;
        } else {
            self.run = 1;
            self.descending = false;
        }
        self.last_block = block;
        let page = block / 64;
        if self.run >= self.n && page != self.fired_page {
            self.fired_page = page;
            let lo = page * 64;
            let hi = lo + 64;
            // Burst the untouched remainder of the page in run order,
            // nearest block first.
            let (start, end) = if self.descending {
                (lo, block)
            } else {
                (block + 1, hi)
            };
            return (start < end).then_some(Burst {
                start,
                end,
                descending: self.descending,
            });
        }
        None
    }

    fn reset(&mut self) {
        self.run = 0;
        self.last_block = u64::MAX - 1;
        self.fired_page = u64::MAX;
    }
}

/// Store-Prefetch Bursts as a drop-in store-prefetch policy: at-commit
/// RFOs for every store (the hardware baseline keeps running
/// underneath, as in the paper's Figure 4, where per-store `WritePF`
/// requests continue and are discarded when the burst already owns the
/// block) plus page bursts when the detector fires.
///
/// One detector serves every SPB spelling; they differ only in how a
/// burst is sized:
///
/// - [`SpbPolicy::new`] (`spb`): the detector's own threshold and page
///   fraction, from [`SpbParams`].
/// - [`SpbPolicy::dynamic`] (`spb-dynamic`): the §IV-C variant. The
///   threshold follows the observed store *size* instead of assuming
///   8-byte stores; the paper found it performs worse than plain SPB.
/// - [`SpbPolicy::feedback`] (`spb-feedback`): measured burst accuracy
///   picks how much of each burst to issue.
///
/// # Examples
///
/// ```
/// use spb_core::{SpbParams, SpbPolicy};
/// use spb_cpu::StorePrefetchPolicy;
/// use spb_mem::{MemoryConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(MemoryConfig::default());
/// let mut spb = SpbPolicy::new(SpbParams { n: 8, ..SpbParams::default() });
/// for i in 0..16u64 {
///     spb.on_store_commit(&mut mem, 0, 0x8000 + i * 8, 8, 0x400, i);
/// }
/// assert!(mem.burst_queue_len(0) > 0, "the burst reached the L1 controller");
/// ```
#[derive(Debug, Clone)]
pub struct SpbPolicy {
    detector: SpbDetector,
    wrong_path: WrongPathWindow,
    sizing: Sizing,
}

/// How an [`SpbPolicy`] sizes its bursts.
#[derive(Debug, Clone)]
enum Sizing {
    /// The paper's rule, with the [`SpbParams`] knobs.
    Page,
    /// The §IV-C store-size threshold.
    Dynamic(StoreSize),
    /// The accuracy-driven page-fraction ladder.
    Feedback(Ladder),
}

impl SpbPolicy {
    /// Creates the policy over the full parameter space
    /// ([`SpbParams::default`] is the paper's).
    ///
    /// # Panics
    ///
    /// Panics if `params.n` is zero.
    pub fn new(params: SpbParams) -> Self {
        Self::sized(params, Sizing::Page)
    }

    /// Creates the §IV-C dynamic variant with window `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn dynamic(n: u32) -> Self {
        Self::sized(SpbParams::base(n, true), Sizing::Dynamic(StoreSize::new(n)))
    }

    /// Creates the feedback-directed variant with window `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn feedback(n: u32) -> Self {
        Self::sized(SpbParams::base(n, true), Sizing::Feedback(Ladder::new()))
    }

    fn sized(params: SpbParams, sizing: Sizing) -> Self {
        Self {
            detector: SpbDetector::new(params),
            wrong_path: WrongPathWindow::new(params.n),
            sizing,
        }
    }

    /// The underlying detector (for instrumentation).
    pub fn detector(&self) -> &SpbDetector {
        &self.detector
    }

    /// The page fraction (in thousandths) kept of each burst the
    /// detector hands over; only the feedback ladder trims them.
    fn frac_milli(&self) -> u64 {
        match &self.sizing {
            Sizing::Feedback(ladder) => FEEDBACK_FRAC_LEVELS[ladder.level],
            Sizing::Page | Sizing::Dynamic(_) => 1000,
        }
    }
}

impl Default for SpbPolicy {
    fn default() -> Self {
        Self::new(SpbParams::default())
    }
}

impl StorePrefetchPolicy for SpbPolicy {
    fn on_store_commit(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        addr: u64,
        size: u8,
        pc: u64,
        now: u64,
    ) {
        // The default at-commit prefetch continues to be sent every
        // cycle (discarded as PopReq when the burst already brought the
        // block — Figure 4, T1..T7).
        let _ = mem.store_prefetch(core, addr, pc, now, RfoOrigin::AtCommit);
        let burst = match &mut self.sizing {
            Sizing::Dynamic(store_size) => {
                let threshold = store_size.threshold(size);
                self.detector.observe(addr, threshold)
            }
            Sizing::Page | Sizing::Feedback(_) => self.detector.observe_store(addr),
        };
        if let Some(burst) = burst {
            if let Sizing::Feedback(ladder) = &mut self.sizing {
                ladder.adapt(mem);
            }
            mem.enqueue_burst(core, burst.nearest(self.frac_milli()).blocks(), now);
        }
    }

    fn on_wrong_path_store(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        addr: u64,
        _size: u8,
        _pc: u64,
        now: u64,
    ) {
        // The feedback ladder throttles speculative bursts exactly like
        // committed ones.
        if let Some(burst) = self.wrong_path.observe(addr) {
            mem.enqueue_burst_spec(core, burst.nearest(self.frac_milli()).blocks(), now);
        }
    }

    fn on_wrong_path_squash(&mut self, _mem: &mut MemorySystem, _core: usize, _now: u64) {
        self.wrong_path.reset();
    }

    fn name(&self) -> &'static str {
        match self.sizing {
            Sizing::Page => "spb",
            Sizing::Dynamic(_) => "spb-dynamic",
            Sizing::Feedback(_) => "spb-feedback",
        }
    }
}

/// The §IV-C dynamic threshold: instead of assuming 8-byte stores, the
/// detector's threshold adapts to the store sizes observed in the
/// current window (`n / (64 / S)` for dominant size `S`).
///
/// The paper reports this performs *worse* than plain SPB "due to
/// adaptation hysteresis and lost opportunity"; the model reproduces
/// that by requiring two consecutive windows to agree on the dominant
/// size before the threshold moves.
#[derive(Debug, Clone)]
struct StoreSize {
    n: u32,
    sum: u64,
    count: u32,
    /// The adapted size `S`.
    current: u8,
    /// The previous window's dominant size.
    prev: u8,
}

impl StoreSize {
    fn new(n: u32) -> Self {
        Self {
            n,
            sum: 0,
            count: 0,
            current: 8,
            prev: 8,
        }
    }

    /// Accounts one committed store of `size` bytes and returns the
    /// threshold its window check is held to.
    fn threshold(&mut self, size: u8) -> u8 {
        self.sum += u64::from(size.max(1));
        self.count += 1;
        if self.count == self.n {
            let avg = (self.sum / u64::from(self.count)) as u8;
            // Round up to a power of two in 1..=64.
            let rounded = avg.max(1).next_power_of_two().min(64);
            // Hysteresis: only adapt after two agreeing windows.
            if rounded == self.prev {
                self.current = rounded;
            }
            self.prev = rounded;
            self.sum = 0;
            self.count = 0;
        }
        // stores_per_block = 64 / S, threshold = n / stores_per_block.
        let stores_per_block = (BLOCK_BYTES / u64::from(self.current)).max(1);
        (u64::from(self.n) / stores_per_block).clamp(1, u64::from(SAT_MAX)) as u8
    }
}

/// The page-fraction ladder, in thousandths of the remaining page.
pub(crate) const FEEDBACK_FRAC_LEVELS: [u64; 4] = [250, 500, 750, 1000];
/// Burst blocks issued between feedback evaluations.
pub(crate) const FEEDBACK_WINDOW: u64 = 256;

/// Feedback-directed burst sizing (Srinath-style FDP applied to
/// bursts): the detector decides *when* to burst, and measured
/// burst-prefetch accuracy decides *how much* of the burst to request.
///
/// Mirrors the `spb_mem::prefetch` FDP ladder: every
/// [`FEEDBACK_WINDOW`] burst blocks issued, accuracy ≥ 75% steps the
/// page fraction up one level and accuracy ≤ 40% steps it down, over
/// [`FEEDBACK_FRAC_LEVELS`] (¼ → ½ → ¾ → full page), starting at ½.
/// Fully deterministic: the feedback signal is the simulator's own
/// `RfoOrigin::SpbBurst` counters.
#[derive(Debug, Clone)]
struct Ladder {
    level: usize,
    last_issued: u64,
    last_useful: u64,
}

impl Ladder {
    fn new() -> Self {
        Self {
            level: 1,
            last_issued: 0,
            last_useful: 0,
        }
    }

    fn adapt(&mut self, mem: &MemorySystem) {
        let s = mem.stats();
        let i = RfoOrigin::SpbBurst.index();
        let issued = s.prefetch_requests[i];
        if issued - self.last_issued < FEEDBACK_WINDOW {
            return;
        }
        let useful = s.prefetch_successful[i];
        let d_issued = issued - self.last_issued;
        let d_useful = useful - self.last_useful;
        // FDP thresholds: ≥3/4 accurate → more aggressive, ≤2/5 → less.
        if d_useful * 4 >= d_issued * 3 {
            self.level = (self.level + 1).min(FEEDBACK_FRAC_LEVELS.len() - 1);
        } else if d_useful * 5 <= d_issued * 2 {
            self.level = self.level.saturating_sub(1);
        }
        self.last_issued = issued;
        self.last_useful = useful;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_cpu::{config::CoreConfig, core::Core, policy::AtCommitPolicy};
    use spb_mem::MemoryConfig;
    use spb_obs::{Collector, EventKind};
    use spb_trace::generators::MemsetGen;
    use spb_trace::CodeRegion;

    #[test]
    fn spb_enqueues_bursts_on_contiguous_commits() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut spb = SpbPolicy::new(SpbParams::base(8, true));
        for i in 0..64u64 {
            spb.on_store_commit(&mut mem, 0, i * 8, 8, 0x400, i);
        }
        assert!(spb.detector().triggers() >= 1);
        assert!(
            mem.stats().prefetch_requests[RfoOrigin::AtCommit.index()] == 64,
            "at-commit RFOs continue under SPB"
        );
    }

    #[test]
    fn spb_stays_silent_on_random_stores() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut spb = SpbPolicy::default();
        let mut x = 7u64;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            spb.on_store_commit(&mut mem, 0, (x % (1 << 28)) & !7, 8, 0x400, i);
        }
        assert_eq!(spb.detector().triggers(), 0);
        // No burst-origin traffic at all (the L1 queue may hold ordinary
        // at-commit RFOs waiting on MSHRs; that is not SPB activity).
        assert_eq!(
            mem.stats().prefetch_requests[RfoOrigin::SpbBurst.index()],
            0
        );
    }

    /// Commits 50k µops of a 512 KiB memset on one core with an
    /// `sb`-entry SB; returns the cycles taken and the memory system.
    fn memset_run(policy: Box<dyn StorePrefetchPolicy + Send>, sb: usize) -> (u64, MemorySystem) {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let trace = Box::new(MemsetGen::new(
            0x100_0000,
            512 * 1024,
            CodeRegion::Memset,
            3,
        ));
        let cfg = CoreConfig::skylake().with_sb_entries(sb);
        let cycles = Core::new(0, cfg, trace, policy).run_until_committed(&mut mem, 50_000);
        (cycles, mem)
    }

    /// The headline mechanism end-to-end: on a DRAM-missing store burst
    /// with a small SB, SPB beats plain at-commit because its page
    /// bursts run far ahead of the SB window.
    #[test]
    fn spb_outruns_at_commit_on_store_bursts() {
        let (cycles_commit, _) = memset_run(Box::<AtCommitPolicy>::default(), 14);
        let (cycles_spb, _) = memset_run(Box::<SpbPolicy>::default(), 14);
        assert!(
            (cycles_spb as f64) < 0.8 * cycles_commit as f64,
            "SPB must clearly beat at-commit on a burst: {cycles_spb} vs {cycles_commit}"
        );
    }

    #[test]
    fn spb_success_rate_exceeds_at_commit_on_bursts() {
        let run = |policy: Box<dyn StorePrefetchPolicy + Send>, origin: RfoOrigin| {
            let (_, mut mem) = memset_run(policy, 56);
            mem.finalize_stats();
            let s = mem.stats();
            (
                s.prefetch_successful[origin.index()],
                s.prefetch_late[origin.index()],
            )
        };
        let (ok_commit, late_commit) = run(Box::<AtCommitPolicy>::default(), RfoOrigin::AtCommit);
        let (ok_spb, late_spb) = run(Box::<SpbPolicy>::default(), RfoOrigin::SpbBurst);
        // At-commit: mostly late prefetches (issued at the end of the
        // store's life). SPB: mostly successful (issued a page ahead).
        assert!(
            late_commit > ok_commit,
            "at-commit is dominated by late prefetches"
        );
        assert!(ok_spb > late_spb, "SPB bursts arrive in time");
    }

    #[test]
    fn dynamic_policy_works_end_to_end() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut p = SpbPolicy::dynamic(16);
        for i in 0..256u64 {
            p.on_store_commit(&mut mem, 0, 0x20_0000 + i * 8, 8, 0x400, i);
        }
        assert!(p.detector().triggers() >= 1);
    }

    #[test]
    fn dynamic_variant_adapts_to_4_byte_stores() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut p = SpbPolicy::dynamic(16);
        // 4-byte stores: 16 per block. Feed several windows so the size
        // adapts, then verify it still triggers on contiguity.
        for i in 0..8_192u64 {
            p.on_store_commit(&mut mem, 0, i * 4, 4, 0x400, i);
        }
        assert!(matches!(&p.sizing, Sizing::Dynamic(s) if s.current == 4));
        assert!(
            p.detector().triggers() > 0,
            "4-byte bursts must be detected once adapted"
        );
    }

    #[test]
    fn dynamic_variant_hysteresis_delays_adaptation() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut p = SpbPolicy::dynamic(8);
        // One window of 4-byte stores is not enough to adapt.
        for i in 0..8u64 {
            p.on_store_commit(&mut mem, 0, i * 4, 4, 0x400, i);
        }
        assert!(
            matches!(&p.sizing, Sizing::Dynamic(s) if s.current == 8),
            "hysteresis holds the old size"
        );
    }

    #[test]
    fn policy_names() {
        assert_eq!(SpbPolicy::default().name(), "spb");
        assert_eq!(SpbPolicy::dynamic(48).name(), "spb-dynamic");
        assert_eq!(SpbPolicy::feedback(48).name(), "spb-feedback");
    }

    #[test]
    fn wrong_path_run_reaching_window_fires_speculative_burst() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut spb = SpbPolicy::new(SpbParams::base(8, true));
        // A contiguous 16-block wrong-path run on one page: the window
        // (8) closes mid-run and the rest of the page goes out as a
        // speculative burst.
        for i in 0..16u64 {
            spb.on_wrong_path_store(&mut mem, 0, 0x40_0000 + i * 64, 8, 0xDEAD, i);
        }
        assert!(mem.burst_queue_len(0) > 0, "speculative burst enqueued");
        // Drain the queue, then squash: everything it bought is waste.
        let mut now = 16;
        while mem.burst_queue_len(0) > 0 {
            mem.tick(now);
            now += 1;
        }
        spb.on_wrong_path_squash(&mut mem, 0, now);
        mem.attribute_squash(0, now);
        assert!(mem.stats().spec_wasted_rfos > 0);
        assert!(mem.stats().spec_leaked_m_blocks > 0);
        assert_eq!(
            mem.stats().prefetch_requests[RfoOrigin::SpbBurst.index()] as usize,
            mem.stats().spec_rfos_issued as usize,
            "every burst RFO on the wrong path is a speculative one"
        );
    }

    #[test]
    fn wrong_path_runs_shorter_than_window_stay_silent() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut spb = SpbPolicy::default(); // n = 48
        for episode in 0..8u64 {
            for i in 0..16u64 {
                let addr = 0x80_0000 + episode * 4096 + i * 64;
                spb.on_wrong_path_store(&mut mem, 0, addr, 8, 0xDEAD, i);
            }
            spb.on_wrong_path_squash(&mut mem, 0, episode * 100);
            mem.attribute_squash(0, episode * 100);
        }
        assert_eq!(mem.burst_queue_len(0), 0);
        assert_eq!(mem.stats().spec_rfos_issued, 0);
        assert_eq!(mem.stats().spec_leaked_m_blocks, 0);
    }

    #[test]
    fn squash_resets_the_wrong_path_window_across_paths() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut spb = SpbPolicy::new(SpbParams::base(8, true));
        // Two runs of 5 on the same page, split by a squash: neither
        // reaches the window alone, and the reset forbids stitching.
        for i in 0..5u64 {
            spb.on_wrong_path_store(&mut mem, 0, 0xC0_0000 + i * 64, 8, 0xDEAD, i);
        }
        spb.on_wrong_path_squash(&mut mem, 0, 10);
        mem.attribute_squash(0, 10);
        for i in 5..10u64 {
            spb.on_wrong_path_store(&mut mem, 0, 0xC0_0000 + i * 64, 8, 0xDEAD, i);
        }
        assert_eq!(mem.burst_queue_len(0), 0, "reset must split the run");
    }

    /// A ret2spec-style descending run bursts the blocks below it,
    /// issued downward from the run, and the feedback ladder keeps the
    /// blocks nearest the run, as it does for every other burst.
    #[test]
    fn descending_wrong_path_run_bursts_toward_page_start() {
        let cases = [
            (SpbPolicy::new(SpbParams::base(8, true)), 56),
            (SpbPolicy::feedback(8), 28),
        ];
        for (mut spb, kept) in cases {
            let mut mem = MemorySystem::new(MemoryConfig::default());
            let collector = Collector::new();
            mem.set_observer(collector.observer());
            // ret2spec-style run down from the last block of a page.
            let top = 0x100_0000 / 64 + 63;
            for i in 0..8u64 {
                spb.on_wrong_path_store(&mut mem, 0, (top - i) * 64, 8, 0xDEAD, i);
            }
            let mut now = 8;
            while mem.burst_queue_len(0) > 0 {
                mem.tick(now);
                now += 1;
            }
            let issued: Vec<u64> = collector
                .take()
                .into_iter()
                .filter_map(|e| match e.kind {
                    EventKind::BurstIssued { block } => Some(block),
                    _ => None,
                })
                .collect();
            let current = top - 7;
            let nearest_first: Vec<u64> = (current - kept..current).rev().collect();
            assert_eq!(issued, nearest_first, "{}", spb.name());
        }
    }
}
