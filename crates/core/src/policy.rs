//! SPB as a drop-in store-prefetch policy.

use crate::detector::{SpbConfig, SpbDetector, SpbDynamicDetector};
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

    /// Observes one wrong-path store; returns the block range to burst
    /// when the window closes over a contiguous run on a new page.
    fn observe(&mut self, addr: u64) -> Option<std::ops::Range<u64>> {
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
            // Burst the untouched remainder of the page, in run order.
            return Some(if self.descending {
                lo..block
            } else {
                (block + 1).min(hi)..hi
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

/// The full SPB policy: at-commit RFOs for every store (the hardware
/// baseline keeps running underneath, as in the paper's Figure 4, where
/// per-store `WritePF` requests continue and are discarded when the
/// burst already owns the block) plus page bursts when the detector
/// fires.
///
/// # Examples
///
/// ```
/// use spb_core::{SpbConfig, SpbPolicy};
/// use spb_cpu::StorePrefetchPolicy;
/// use spb_mem::{MemoryConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(MemoryConfig::default());
/// let mut spb = SpbPolicy::new(SpbConfig { n: 8, ..Default::default() });
/// for i in 0..16u64 {
///     spb.on_store_commit(&mut mem, 0, 0x8000 + i * 8, 8, 0x400, i);
/// }
/// assert!(mem.burst_queue_len(0) > 0, "the burst reached the L1 controller");
/// ```
#[derive(Debug, Clone)]
pub struct SpbPolicy {
    detector: SpbDetector,
    wrong_path: WrongPathWindow,
}

impl SpbPolicy {
    /// Creates the policy with the given detector configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.n` is zero.
    pub fn new(config: SpbConfig) -> Self {
        Self::with_params(SpbParams::base(config.n, config.dedupe))
    }

    /// Creates the policy over the full parameter space (extension
    /// knobs included).
    ///
    /// # Panics
    ///
    /// Panics if `params.n` is zero.
    pub fn with_params(params: SpbParams) -> Self {
        Self {
            detector: SpbDetector::with_params(params),
            wrong_path: WrongPathWindow::new(params.n),
        }
    }

    /// Creates the policy with the paper's preferred parameters (N=48).
    pub fn with_paper_defaults() -> Self {
        Self::new(SpbConfig::default())
    }

    /// The underlying detector (for instrumentation).
    pub fn detector(&self) -> &SpbDetector {
        &self.detector
    }
}

impl Default for SpbPolicy {
    fn default() -> Self {
        Self::with_paper_defaults()
    }
}

impl StorePrefetchPolicy for SpbPolicy {
    fn on_store_commit(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        addr: u64,
        _size: u8,
        pc: u64,
        now: u64,
    ) {
        // The default at-commit prefetch continues to be sent every
        // cycle (discarded as PopReq when the burst already brought the
        // block — Figure 4, T1..T7).
        let _ = mem.store_prefetch(core, addr, pc, now, RfoOrigin::AtCommit);
        if let Some(burst) = self.detector.observe_store(addr) {
            mem.enqueue_burst(core, burst.blocks(), now);
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
        if let Some(range) = self.wrong_path.observe(addr) {
            mem.enqueue_burst_spec(core, range, now);
        }
    }

    fn on_wrong_path_squash(&mut self, _mem: &mut MemorySystem, _core: usize, _now: u64) {
        self.wrong_path.reset();
    }

    fn name(&self) -> &'static str {
        "spb"
    }
}

/// The §IV-C dynamic-size variant (kept for the ablation; the paper
/// found it performs worse than plain SPB).
#[derive(Debug, Clone)]
pub struct SpbDynamicPolicy {
    detector: SpbDynamicDetector,
    wrong_path: WrongPathWindow,
}

impl SpbDynamicPolicy {
    /// Creates the dynamic policy.
    ///
    /// # Panics
    ///
    /// Panics if `config.n` is zero.
    pub fn new(config: SpbConfig) -> Self {
        Self {
            detector: SpbDynamicDetector::new(config),
            wrong_path: WrongPathWindow::new(config.n),
        }
    }

    /// The underlying detector (for instrumentation).
    pub fn detector(&self) -> &SpbDynamicDetector {
        &self.detector
    }
}

impl Default for SpbDynamicPolicy {
    fn default() -> Self {
        Self::new(SpbConfig::default())
    }
}

impl StorePrefetchPolicy for SpbDynamicPolicy {
    fn on_store_commit(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        addr: u64,
        size: u8,
        pc: u64,
        now: u64,
    ) {
        let _ = mem.store_prefetch(core, addr, pc, now, RfoOrigin::AtCommit);
        if let Some(burst) = self.detector.observe_store(addr, size) {
            mem.enqueue_burst(core, burst.blocks(), now);
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
        if let Some(range) = self.wrong_path.observe(addr) {
            mem.enqueue_burst_spec(core, range, now);
        }
    }

    fn on_wrong_path_squash(&mut self, _mem: &mut MemorySystem, _core: usize, _now: u64) {
        self.wrong_path.reset();
    }

    fn name(&self) -> &'static str {
        "spb-dynamic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_cpu::{config::CoreConfig, core::Core, policy::AtCommitPolicy};
    use spb_mem::MemoryConfig;
    use spb_trace::generators::MemsetGen;
    use spb_trace::CodeRegion;

    #[test]
    fn spb_enqueues_bursts_on_contiguous_commits() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut spb = SpbPolicy::new(SpbConfig { n: 8, dedupe: true });
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
        let mut spb = SpbPolicy::with_paper_defaults();
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

    /// The headline mechanism end-to-end: on a DRAM-missing store burst
    /// with a small SB, SPB beats plain at-commit because its page
    /// bursts run far ahead of the SB window.
    #[test]
    fn spb_outruns_at_commit_on_store_bursts() {
        let run = |policy: Box<dyn StorePrefetchPolicy + Send>| {
            let mut mem = MemorySystem::new(MemoryConfig::default());
            let trace = Box::new(MemsetGen::new(
                0x100_0000,
                512 * 1024,
                CodeRegion::Memset,
                3,
            ));
            let cfg = CoreConfig::skylake().with_sb_entries(14);
            let mut core = Core::new(0, cfg, trace, policy);
            core.run_until_committed(&mut mem, 50_000)
        };
        let cycles_commit = run(Box::<AtCommitPolicy>::default());
        let cycles_spb = run(Box::<SpbPolicy>::default());
        assert!(
            (cycles_spb as f64) < 0.8 * cycles_commit as f64,
            "SPB must clearly beat at-commit on a burst: {cycles_spb} vs {cycles_commit}"
        );
    }

    #[test]
    fn spb_success_rate_exceeds_at_commit_on_bursts() {
        let run = |policy: Box<dyn StorePrefetchPolicy + Send>, origin: RfoOrigin| {
            let mut mem = MemorySystem::new(MemoryConfig::default());
            let trace = Box::new(MemsetGen::new(
                0x100_0000,
                512 * 1024,
                CodeRegion::Memset,
                3,
            ));
            let mut core = Core::new(0, CoreConfig::skylake(), trace, policy);
            let _ = core.run_until_committed(&mut mem, 50_000);
            mem.finalize_stats();
            let s = mem.stats();
            let i = origin.index();
            (s.prefetch_successful[i], s.prefetch_late[i])
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
        let mut p = SpbDynamicPolicy::new(SpbConfig {
            n: 16,
            dedupe: true,
        });
        for i in 0..256u64 {
            p.on_store_commit(&mut mem, 0, 0x20_0000 + i * 8, 8, 0x400, i);
        }
        assert!(p.detector().triggers() >= 1);
    }

    #[test]
    fn policy_names() {
        assert_eq!(SpbPolicy::with_paper_defaults().name(), "spb");
        assert_eq!(SpbDynamicPolicy::default().name(), "spb-dynamic");
    }

    #[test]
    fn wrong_path_run_reaching_window_fires_speculative_burst() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut spb = SpbPolicy::new(SpbConfig { n: 8, dedupe: true });
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
        let mut spb = SpbPolicy::with_paper_defaults(); // n = 48
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
        let mut spb = SpbPolicy::new(SpbConfig { n: 8, dedupe: true });
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

    #[test]
    fn descending_wrong_path_run_bursts_toward_page_start() {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut spb = SpbPolicy::new(SpbConfig { n: 8, dedupe: true });
        // ret2spec-style descending run from the top of a page.
        for i in 0..8u64 {
            let addr = 0x100_0000 + 4096 - 64 - i * 64;
            spb.on_wrong_path_store(&mut mem, 0, addr, 8, 0xDEAD, i);
        }
        let queued = mem.burst_queue_len(0);
        assert!(queued > 0, "descending run must fire too");
        // The burst covers only blocks below the run's current position.
        let page_lo = 0x100_0000 / 64;
        let current = (0x100_0000 + 4096 - 64 * 8) / 64;
        assert_eq!(queued as u64, current - page_lo);
    }
}

/// Feedback-directed SPB (Srinath-style FDP applied to bursts): the
/// base detector decides *when* to burst, and measured burst-prefetch
/// accuracy decides *how much* of the remaining page to request.
///
/// Mirrors the `spb_mem::prefetch` FDP ladder: every
/// [`FEEDBACK_WINDOW`] burst blocks issued, accuracy ≥ 75% steps the
/// page fraction up one level and accuracy ≤ 40% steps it down, over
/// the ladder ¼ → ½ → ¾ → full page. Fully deterministic: the feedback
/// signal is the simulator's own `RfoOrigin::SpbBurst` counters.
#[derive(Debug, Clone)]
pub struct FeedbackSpbPolicy {
    detector: SpbDetector,
    wrong_path: WrongPathWindow,
    level: usize,
    last_issued: u64,
    last_useful: u64,
}

/// The page-fraction ladder, in thousandths of the remaining page.
pub const FEEDBACK_FRAC_LEVELS: [u64; 4] = [250, 500, 750, 1000];
/// Burst blocks issued between feedback evaluations.
pub const FEEDBACK_WINDOW: u64 = 256;

impl FeedbackSpbPolicy {
    /// Creates the feedback policy, starting mid-ladder (half page).
    ///
    /// # Panics
    ///
    /// Panics if `config.n` is zero.
    pub fn new(config: SpbConfig) -> Self {
        Self {
            detector: SpbDetector::new(config),
            wrong_path: WrongPathWindow::new(config.n),
            level: 1,
            last_issued: 0,
            last_useful: 0,
        }
    }

    /// The underlying detector (for instrumentation).
    pub fn detector(&self) -> &SpbDetector {
        &self.detector
    }

    /// The current ladder position (0..=3).
    pub fn level(&self) -> usize {
        self.level
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

impl StorePrefetchPolicy for FeedbackSpbPolicy {
    fn on_store_commit(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        addr: u64,
        _size: u8,
        pc: u64,
        now: u64,
    ) {
        let _ = mem.store_prefetch(core, addr, pc, now, RfoOrigin::AtCommit);
        if let Some(burst) = self.detector.observe_store(addr) {
            self.adapt(mem);
            let frac = FEEDBACK_FRAC_LEVELS[self.level];
            let keep = (burst.len() * frac).div_ceil(1000).max(1);
            mem.enqueue_burst(core, burst.start..burst.start + keep, now);
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
        if let Some(range) = self.wrong_path.observe(addr) {
            let len = range.end - range.start;
            if len == 0 {
                return;
            }
            // The ladder throttles speculative bursts exactly like
            // committed ones: same fraction of the remaining page.
            let frac = FEEDBACK_FRAC_LEVELS[self.level];
            let keep = (len * frac).div_ceil(1000).clamp(1, len);
            mem.enqueue_burst_spec(core, range.start..range.start + keep, now);
        }
    }

    fn on_wrong_path_squash(&mut self, _mem: &mut MemorySystem, _core: usize, _now: u64) {
        self.wrong_path.reset();
    }

    fn name(&self) -> &'static str {
        "spb-feedback"
    }
}
