//! Fixed-capacity rings for the two FIFO structures on the commit
//! path — the reorder buffer and the post-commit store buffer — plus
//! the issue queue's occupancy set.
//!
//! The rings are bounded by configuration (dispatch gates on ROB
//! occupancy; a store cannot commit into the SB without holding one of
//! the `sb_entries` slots it acquired at dispatch), so each ring is
//! fixed-capacity storage indexed by `(head + i) mod cap`. The
//! capacities are configuration values (224 ROB entries, 14–56 SB
//! entries), rarely powers of two, so the index wraps by
//! compare-and-subtract ([`wrap`]) rather than a hardware divide.
//!
//! The ROB keeps whole [`RobEntry`] values in one array. Every entry is
//! written once at dispatch and read once at commit, both in full, and
//! a 32-byte entry is half a host cache line, so the "hot loops touch
//! one lane each" case for struct-of-arrays does not hold here: five
//! lanes plus packed kind bits made each push five scattered stores and
//! each pop a re-assembly. Against those lanes the whole-entry ring ran
//! the SB-bound SPEC cells (perfbench `spec_sb`) at 1.10× the µops per
//! second, 8 of 8 `scripts/ab.sh` pairs. The SB keeps its lanes:
//! coalescing polls only the tail address and the Figure 3 charge only
//! the head PC.

/// One in-flight µop as the commit stage sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RobEntry {
    pub complete_at: u64,
    pub addr: u64,
    pub pc: u64,
    pub size: u8,
    pub is_store: bool,
    pub is_load: bool,
    pub is_branch: bool,
}

/// `i mod cap` for `i < 2 * cap`: every ring index is a head (`< cap`)
/// plus an offset of at most `cap`.
#[inline]
fn wrap(i: usize, cap: usize) -> usize {
    debug_assert!(i < 2 * cap);
    if i >= cap {
        i - cap
    } else {
        i
    }
}

/// The reorder buffer: a fixed-capacity FIFO of whole entries.
#[derive(Debug)]
pub(crate) struct RobRing {
    head: usize,
    len: usize,
    entries: Box<[RobEntry]>,
}

impl RobRing {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ROB needs at least one entry");
        Self {
            head: 0,
            len: 0,
            entries: vec![RobEntry::default(); cap].into_boxed_slice(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The completion cycle of the oldest entry — the only field the
    /// commit gate and the idle probe read.
    #[inline]
    pub(crate) fn head_complete_at(&self) -> Option<u64> {
        (self.len > 0).then(|| self.entries[self.head].complete_at)
    }

    #[inline]
    pub fn push_back(&mut self, e: RobEntry) {
        let cap = self.entries.len();
        assert!(self.len < cap, "ROB overflow: dispatch gate broken");
        self.entries[wrap(self.head + self.len, cap)] = e;
        self.len += 1;
    }

    #[inline]
    pub fn pop_front(&mut self) -> Option<RobEntry> {
        if self.len == 0 {
            return None;
        }
        let e = self.entries[self.head];
        self.head = wrap(self.head + 1, self.entries.len());
        self.len -= 1;
        Some(e)
    }
}

/// The post-commit store buffer: `(addr, pc, commit cycle)` triples in
/// a fixed-capacity FIFO over SoA lanes. Drain reads the head triple,
/// coalescing peeks only the tail address, and the Figure 3 region
/// charge peeks only the head PC.
#[derive(Debug)]
pub(crate) struct SbRing {
    cap: usize,
    head: usize,
    len: usize,
    addr: Vec<u64>,
    pc: Vec<u64>,
    committed_at: Vec<u64>,
}

impl SbRing {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "SB needs at least one entry");
        Self {
            cap,
            head: 0,
            len: 0,
            addr: vec![0; cap],
            pc: vec![0; cap],
            committed_at: vec![0; cap],
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(addr, pc, committed_at)` of the drain candidate.
    #[inline]
    pub fn front(&self) -> Option<(u64, u64, u64)> {
        (self.len > 0).then(|| {
            (
                self.addr[self.head],
                self.pc[self.head],
                self.committed_at[self.head],
            )
        })
    }

    /// PC of the store blocking the SB head (Figure 3 region charge).
    #[inline]
    pub(crate) fn front_pc(&self) -> Option<u64> {
        (self.len > 0).then(|| self.pc[self.head])
    }

    /// Address of the youngest SB entry (coalescing candidate).
    #[inline]
    pub(crate) fn back_addr(&self) -> Option<u64> {
        (self.len > 0).then(|| self.addr[wrap(self.head + self.len - 1, self.cap)])
    }

    pub fn push_back(&mut self, addr: u64, pc: u64, committed_at: u64) {
        assert!(self.len < self.cap, "SB overflow: dispatch gate broken");
        let i = wrap(self.head + self.len, self.cap);
        self.addr[i] = addr;
        self.pc[i] = pc;
        self.committed_at[i] = committed_at;
        self.len += 1;
    }

    pub fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = wrap(self.head + 1, self.cap);
        self.len -= 1;
    }
}

/// The issue queue's occupancy: the issue cycles of dispatched µops
/// that issue later than the next cycle, as an unordered set with a
/// cached minimum. An entry occupies the queue while its issue cycle is
/// in the future, so the occupancy at `now` is the count of entries
/// `> now`.
///
/// Entries that have issued are reclaimed lazily: only a queue holding
/// `cap` entries, the earliest of which has issued, is filtered. Below
/// capacity, stale entries cannot make the queue look full, so the
/// common case is two compares.
#[derive(Debug)]
pub(crate) struct IssueQueue {
    cap: usize,
    issue_at: Vec<u64>,
    /// Minimum of `issue_at` (`u64::MAX` when empty).
    min: u64,
}

impl IssueQueue {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "IQ needs at least one entry");
        Self {
            cap,
            issue_at: Vec::with_capacity(cap),
            min: u64::MAX,
        }
    }

    pub fn push(&mut self, issue_at: u64) {
        assert!(
            self.issue_at.len() < self.cap,
            "IQ overflow: dispatch gate broken"
        );
        self.issue_at.push(issue_at);
        self.min = self.min.min(issue_at);
    }

    /// Whether `cap` entries are still waiting to issue at `now`.
    /// `now` must not decrease between calls.
    #[inline]
    pub(crate) fn is_full(&mut self, now: u64) -> bool {
        if self.issue_at.len() < self.cap {
            return false;
        }
        if self.min <= now {
            self.issue_at.retain(|&t| t > now);
            self.min = self.issue_at.iter().copied().min().unwrap_or(u64::MAX);
        }
        self.issue_at.len() >= self.cap
    }

    /// The earliest pending issue cycle. Once [`IssueQueue::is_full`]
    /// has returned `true` at `now`, this is the cycle at which the
    /// first slot frees up (always `> now`).
    pub fn earliest(&self) -> Option<u64> {
        (self.min != u64::MAX).then_some(self.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STORE: u8 = 1;
    const LOAD: u8 = 2;
    const BRANCH: u8 = 4;

    fn entry(complete_at: u64, kind: u8) -> RobEntry {
        RobEntry {
            complete_at,
            addr: complete_at * 8,
            pc: complete_at + 0x400000,
            size: 8,
            is_store: kind & STORE != 0,
            is_load: kind & LOAD != 0,
            is_branch: kind & BRANCH != 0,
        }
    }

    #[test]
    fn rob_ring_is_fifo_and_reassembles_entries() {
        let mut r = RobRing::new(4);
        assert!(r.is_empty());
        assert_eq!(r.head_complete_at(), None);
        for (t, k) in [(5, STORE), (6, LOAD), (7, BRANCH), (8, 0)] {
            r.push_back(entry(t, k));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.head_complete_at(), Some(5));
        for (t, k) in [(5, STORE), (6, LOAD), (7, BRANCH), (8, 0)] {
            assert_eq!(r.pop_front(), Some(entry(t, k)));
        }
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn rob_ring_wraps_across_capacity() {
        let mut r = RobRing::new(3);
        for round in 0..10u64 {
            r.push_back(entry(round, LOAD));
            assert_eq!(r.pop_front(), Some(entry(round, LOAD)));
        }
        assert!(r.is_empty());
        // A non-power-of-two capacity, wrapped many times at every
        // occupancy from empty to full against a FIFO model.
        let cap = 7;
        let mut r = RobRing::new(cap);
        let mut model = std::collections::VecDeque::new();
        let mut t = 0u64;
        for occupancy in (0..=cap).chain((0..cap).rev()) {
            for _ in 0..5 * cap {
                while model.len() < occupancy {
                    let e = entry(t, [STORE, LOAD, BRANCH, 0][t as usize % 4]);
                    r.push_back(e);
                    model.push_back(e);
                    t += 1;
                }
                assert_eq!(r.len(), model.len());
                assert_eq!(r.head_complete_at(), model.front().map(|e| e.complete_at));
                assert_eq!(r.pop_front(), model.pop_front());
            }
        }
        assert!(t > 10 * cap as u64, "the ring wrapped only {t} pushes");
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn rob_ring_rejects_overflow() {
        let mut r = RobRing::new(2);
        for t in 0..3 {
            r.push_back(entry(t, 0));
        }
    }

    #[test]
    fn sb_ring_tracks_head_and_tail_lanes() {
        let mut s = SbRing::new(3);
        assert_eq!(s.front(), None);
        assert_eq!(s.back_addr(), None);
        s.push_back(64, 0x400, 10);
        s.push_back(128, 0x404, 11);
        assert_eq!(s.front(), Some((64, 0x400, 10)));
        assert_eq!(s.front_pc(), Some(0x400));
        assert_eq!(s.back_addr(), Some(128));
        s.pop_front();
        assert_eq!(s.front(), Some((128, 0x404, 11)));
        // Wrap around the 3-entry ring.
        s.push_back(192, 0x408, 12);
        s.push_back(256, 0x40c, 13);
        assert_eq!(s.len(), 3);
        assert_eq!(s.back_addr(), Some(256));
        s.pop_front();
        s.pop_front();
        assert_eq!(s.front(), Some((256, 0x40c, 13)));
        // The SB sizes the paper sweeps are not powers of two: wrap a
        // 14-entry ring many times at every occupancy against a model.
        let cap = 14;
        let mut s = SbRing::new(cap);
        let mut model = std::collections::VecDeque::new();
        let mut t = 0u64;
        for occupancy in (1..=cap).chain((1..cap).rev()) {
            for _ in 0..3 * cap {
                while model.len() < occupancy {
                    s.push_back(t * 64, 0x400 + t, t);
                    model.push_back((t * 64, 0x400 + t, t));
                    t += 1;
                }
                assert_eq!(s.len(), model.len());
                assert_eq!(s.front(), model.front().copied());
                assert_eq!(s.front_pc(), model.front().map(|e| e.1));
                assert_eq!(s.back_addr(), model.back().map(|e| e.0));
                s.pop_front();
                model.pop_front();
            }
        }
        assert!(t > 10 * cap as u64, "the ring wrapped only {t} pushes");
    }

    #[test]
    fn issue_queue_matches_naive_model() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for cap in [1usize, 2, 8, 15, 97] {
            let mut iq = IssueQueue::new(cap);
            // The naive model reclaims eagerly: it holds exactly the
            // entries still waiting to issue.
            let mut live: Vec<u64> = Vec::new();
            let mut now = 0u64;
            for _ in 0..20_000 {
                now += rand(3);
                live.retain(|&t| t > now);
                let full = iq.is_full(now);
                assert_eq!(full, live.len() >= cap, "cap {cap} now {now}");
                if full {
                    let min = live.iter().copied().min();
                    assert_eq!(iq.earliest(), min, "cap {cap} now {now}");
                    assert!(iq.earliest().unwrap() > now);
                } else if rand(4) != 0 {
                    // Dispatch pushes only µops that issue after the
                    // next cycle; DRAM-dependent ones issue far out.
                    let lead = if rand(8) == 0 {
                        200 + rand(400)
                    } else {
                        2 + rand(12)
                    };
                    iq.push(now + lead);
                    live.push(now + lead);
                }
            }
        }
    }

    #[test]
    fn issue_queue_reclaims_only_when_full_and_then_exactly() {
        let mut iq = IssueQueue::new(4);
        for t in 10..13 {
            iq.push(t);
        }
        // Three of four slots hold entries that issued long ago: stale
        // entries never make a queue below capacity look full.
        assert!(!iq.is_full(100));
        iq.push(200);
        // At capacity the reclaim yields the exact count: one live entry.
        assert!(!iq.is_full(100));
        assert_eq!(iq.earliest(), Some(200));
        // A queue full of far-future entries stays full, no reclaim.
        for t in 1..4 {
            iq.push(1_000_000 + t);
        }
        for now in 100..200 {
            assert!(iq.is_full(now));
        }
        assert_eq!(iq.earliest(), Some(200));
        // The earliest entry issues: exactly one slot frees up.
        assert!(!iq.is_full(200));
        assert_eq!(iq.earliest(), Some(1_000_001));
    }
}
