//! Issue-stall attribution in the style of Intel's Top-Down model.
//!
//! The paper classifies pipeline issue stalls by the resource that caused
//! them — the store buffer ("SB-induced stalls", the subject of the whole
//! paper) versus everything else (ROB, issue queue, load queue, physical
//! registers, front end) — and additionally tracks *execution stalls
//! while an L1D miss is pending*, the metric behind Figures 14 and 15.
//! [`TopDown`] accumulates all of these per cycle.

use std::fmt;

/// The resource that blocked dispatch on a stalled cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// The store buffer / store queue was full — the paper's
    /// "SB-induced stall".
    StoreBuffer,
    /// The reorder buffer was full.
    Rob,
    /// The issue queue (reservation stations) was full.
    IssueQueue,
    /// The load queue was full.
    LoadQueue,
    /// No free physical register.
    Registers,
    /// The front end delivered no µops (fetch bubble / squash redirect).
    FrontEnd,
}

impl StallCause {
    /// All causes, in reporting order.
    pub const ALL: [StallCause; 6] = [
        StallCause::StoreBuffer,
        StallCause::Rob,
        StallCause::IssueQueue,
        StallCause::LoadQueue,
        StallCause::Registers,
        StallCause::FrontEnd,
    ];

    /// Whether this cause is lumped into "Other" (i.e. not the SB) in the
    /// paper's Figure 10 breakdown.
    pub(crate) fn is_other(self) -> bool {
        !matches!(self, StallCause::StoreBuffer)
    }

    fn index(self) -> usize {
        match self {
            StallCause::StoreBuffer => 0,
            StallCause::Rob => 1,
            StallCause::IssueQueue => 2,
            StallCause::LoadQueue => 3,
            StallCause::Registers => 4,
            StallCause::FrontEnd => 5,
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallCause::StoreBuffer => "store-buffer",
            StallCause::Rob => "rob",
            StallCause::IssueQueue => "issue-queue",
            StallCause::LoadQueue => "load-queue",
            StallCause::Registers => "registers",
            StallCause::FrontEnd => "front-end",
        };
        f.write_str(s)
    }
}

/// Per-core cycle accounting: total cycles, stall cycles by cause, and
/// execution stalls with an L1D miss pending.
///
/// # Examples
///
/// ```
/// use spb_stats::{StallCause, TopDown};
///
/// let mut td = TopDown::new();
/// td.tick(); // a productive cycle
/// td.tick();
/// td.record_stall(StallCause::StoreBuffer);
/// assert_eq!(td.cycles(), 2);
/// assert_eq!(td.stall_cycles(StallCause::StoreBuffer), 1);
/// assert!((td.sb_stall_ratio() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopDown {
    cycles: u64,
    stalls: [u64; 6],
    l1d_miss_pending_stalls: u64,
    committed_uops: u64,
}

impl TopDown {
    /// Creates an empty accounting record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances time by one cycle.
    #[inline]
    pub fn tick(&mut self) {
        self.cycles += 1;
    }

    /// Advances time by `n` cycles at once.
    ///
    /// Equivalent to calling [`TopDown::tick`] `n` times; used by the
    /// skip-ahead kernel to account for a whole quiescent span in one
    /// step.
    #[inline]
    pub fn tick_n(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Records that dispatch was blocked by `cause` this cycle.
    ///
    /// Call at most once per cycle with the *oldest* blocking resource,
    /// mirroring how performance counters attribute a stalled slot to a
    /// single cause.
    #[inline]
    pub fn record_stall(&mut self, cause: StallCause) {
        self.stalls[cause.index()] += 1;
    }

    /// Records `n` consecutive cycles blocked by the same `cause`.
    ///
    /// Equivalent to calling [`TopDown::record_stall`] once per cycle;
    /// valid only when the blocking resource provably cannot change
    /// over the span (the skip-ahead kernel's quiescent-span contract).
    #[inline]
    pub fn record_stall_n(&mut self, cause: StallCause, n: u64) {
        self.stalls[cause.index()] += n;
    }

    /// Records one cycle in which execution was stalled while at least
    /// one L1D miss was outstanding (Figures 14/15).
    #[inline]
    pub fn record_l1d_miss_pending_stall(&mut self) {
        self.l1d_miss_pending_stalls += 1;
    }

    /// Records `n` execution-stall cycles with an L1D miss pending.
    #[inline]
    pub fn record_l1d_miss_pending_stall_n(&mut self, n: u64) {
        self.l1d_miss_pending_stalls += n;
    }

    /// Records `n` committed µops (used for IPC).
    #[inline]
    pub fn record_commit(&mut self, n: u64) {
        self.committed_uops += n;
    }

    /// Total elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Committed µops.
    pub fn committed_uops(&self) -> u64 {
        self.committed_uops
    }

    /// Instructions per cycle; 0.0 before any cycle elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_uops as f64 / self.cycles as f64
        }
    }

    /// Stall cycles attributed to `cause`.
    pub fn stall_cycles(&self, cause: StallCause) -> u64 {
        self.stalls[cause.index()]
    }

    /// Total stall cycles across all causes.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Stall cycles from every cause other than the store buffer
    /// ("Other" in Figure 10).
    pub fn other_stall_cycles(&self) -> u64 {
        StallCause::ALL
            .iter()
            .filter(|c| c.is_other())
            .map(|&c| self.stall_cycles(c))
            .sum()
    }

    /// Fraction of all cycles stalled on a full store buffer — the
    /// quantity plotted in Figure 1.
    pub fn sb_stall_ratio(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall_cycles(StallCause::StoreBuffer) as f64 / self.cycles as f64
        }
    }

    /// Cycles stalled while an L1D miss was pending.
    pub fn l1d_miss_pending_stalls(&self) -> u64 {
        self.l1d_miss_pending_stalls
    }

    /// Merges another record into this one (used to aggregate cores).
    pub fn merge(&mut self, other: &TopDown) {
        self.cycles += other.cycles;
        for i in 0..self.stalls.len() {
            self.stalls[i] += other.stalls[i];
        }
        self.l1d_miss_pending_stalls += other.l1d_miss_pending_stalls;
        self.committed_uops += other.committed_uops;
    }

    /// Clears everything (end of warm-up).
    pub fn reset(&mut self) {
        *self = TopDown::default();
    }
}

impl fmt::Display for TopDown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} ipc={:.3} sb-stall={:.2}%",
            self.cycles,
            self.ipc(),
            self.sb_stall_ratio() * 100.0
        )?;
        for cause in StallCause::ALL {
            writeln!(f, "  {cause}: {}", self.stall_cycles(cause))?;
        }
        writeln!(f, "  l1d-miss-pending: {}", self.l1d_miss_pending_stalls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_record_is_all_zero() {
        let td = TopDown::new();
        assert_eq!(td.cycles(), 0);
        assert_eq!(td.total_stall_cycles(), 0);
        assert_eq!(td.ipc(), 0.0);
        assert_eq!(td.sb_stall_ratio(), 0.0);
    }

    #[test]
    fn stall_attribution_goes_to_single_cause() {
        let mut td = TopDown::new();
        td.tick();
        td.record_stall(StallCause::Rob);
        assert_eq!(td.stall_cycles(StallCause::Rob), 1);
        assert_eq!(td.stall_cycles(StallCause::StoreBuffer), 0);
        assert_eq!(td.other_stall_cycles(), 1);
    }

    #[test]
    fn sb_is_not_other() {
        assert!(!StallCause::StoreBuffer.is_other());
        assert!(StallCause::Rob.is_other());
        assert!(StallCause::FrontEnd.is_other());
    }

    #[test]
    fn ipc_counts_committed_uops_per_cycle() {
        let mut td = TopDown::new();
        for _ in 0..10 {
            td.tick();
            td.record_commit(2);
        }
        assert!((td.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = TopDown::new();
        a.tick();
        a.record_stall(StallCause::StoreBuffer);
        a.record_l1d_miss_pending_stall();
        let mut b = TopDown::new();
        b.tick();
        b.tick();
        b.record_stall(StallCause::StoreBuffer);
        a.merge(&b);
        assert_eq!(a.cycles(), 3);
        assert_eq!(a.stall_cycles(StallCause::StoreBuffer), 2);
        assert_eq!(a.l1d_miss_pending_stalls(), 1);
    }

    #[test]
    fn bulk_accounting_matches_per_cycle_accounting() {
        let mut per_cycle = TopDown::new();
        for _ in 0..37 {
            per_cycle.tick();
            per_cycle.record_stall(StallCause::StoreBuffer);
            per_cycle.record_l1d_miss_pending_stall();
        }
        let mut bulk = TopDown::new();
        bulk.tick_n(37);
        bulk.record_stall_n(StallCause::StoreBuffer, 37);
        bulk.record_l1d_miss_pending_stall_n(37);
        assert_eq!(per_cycle, bulk);
    }

    #[test]
    fn all_causes_round_trip_through_index() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn display_mentions_every_cause() {
        let shown = format!("{}", TopDown::new());
        for cause in StallCause::ALL {
            assert!(shown.contains(&cause.to_string()));
        }
    }
}
