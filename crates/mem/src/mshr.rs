//! Miss-status holding registers.
//!
//! MSHRs bound the number of outstanding misses a cache level can track
//! (64 per cache in Table I). Requests to a block that already has an
//! entry *merge* into it; when the file is full, new misses must wait
//! for the earliest completing entry — this is what ultimately limits
//! how aggressive a prefetch burst can be.
//!
//! # Layout
//!
//! The file is stored struct-of-arrays: fixed `capacity`-sized lanes
//! (`block`, `ready`, `exclusive`, `prefetch`) indexed by slot, a dense
//! `occupied` list of live slots that drives every scan, and a `free`
//! list of reusable slots. The hot lanes (`block`, `ready`) are what
//! `lookup` and `retire_completed` walk, so a scan touches 16 bytes per
//! entry instead of a whole [`MshrEntry`]. A cached lower bound on the
//! earliest outstanding completion lets `retire_completed` — called
//! several times per core per memory-system tick — return with a single
//! compare when nothing can have completed yet.
//!
//! Mutation order is part of the simulator's bit-identity contract:
//! retirement drops slots from `occupied` in list order (so grouping
//! several cycles of lazy reclamation into one batched call, as the
//! skip-ahead kernel does, leaves the same list as per-cycle calls),
//! while explicit invalidation uses `swap_remove` exactly like the
//! historical `Vec<MshrEntry>` implementation did.

use crate::line::RfoOrigin;

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// The missing block.
    pub block: u64,
    /// Cycle at which the fill completes.
    pub ready: u64,
    /// Whether the request asked for ownership (RFO) rather than a read.
    pub exclusive: bool,
    /// Prefetch origin, if this miss was initiated by a prefetch.
    pub prefetch: Option<RfoOrigin>,
}

/// A bounded file of [`MshrEntry`]s in struct-of-arrays layout.
///
/// # Examples
///
/// ```
/// use spb_mem::mshr::MshrFile;
///
/// let mut mshrs = MshrFile::new(2);
/// assert!(mshrs.allocate(0x10, 100, true, None, 0).is_ok());
/// assert!(mshrs.lookup(0x10).is_some());
/// // Completed entries are reclaimed lazily.
/// mshrs.retire_completed(100);
/// assert!(mshrs.lookup(0x10).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// Hot lane: missing block address per slot.
    block: Vec<u64>,
    /// Hot lane: fill completion cycle per slot.
    ready: Vec<u64>,
    /// Cold lane: RFO flag per slot.
    exclusive: Vec<bool>,
    /// Cold lane: prefetch origin per slot.
    prefetch: Vec<Option<RfoOrigin>>,
    /// Live slots, in the order scans observe them.
    occupied: Vec<u16>,
    /// Reusable slots (free list).
    free: Vec<u16>,
    /// Lower bound on the earliest `ready` among live entries
    /// (`u64::MAX` when provably none can complete). Only ever stale in
    /// the safe direction: a too-small bound costs one wasted scan, so
    /// removals and deadline extensions never bother recomputing it.
    earliest_ready: u64,
    allocations: u64,
    merges: u64,
    full_events: u64,
}

impl MshrFile {
    /// Creates a file with room for `capacity` outstanding misses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an MSHR file needs at least one entry");
        assert!(capacity <= u16::MAX as usize, "slot indices are u16");
        Self {
            capacity,
            block: vec![0; capacity],
            ready: vec![0; capacity],
            exclusive: vec![false; capacity],
            prefetch: vec![None; capacity],
            occupied: Vec::with_capacity(capacity),
            free: (0..capacity as u16).rev().collect(),
            earliest_ready: u64::MAX,
            allocations: 0,
            merges: 0,
            full_events: 0,
        }
    }

    /// Maximum number of outstanding entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of outstanding entries.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Total allocations (for stats).
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// A sound wakeup bound for occupancy-gated work: the earliest
    /// cycle ≥ the caller's view of "now" at which retiring completed
    /// entries *could* have brought occupancy down to at most `limit`.
    /// Returns `now` when occupancy already fits, otherwise the cached
    /// earliest in-flight completion. The bound may fire early (the
    /// caller re-checks and finds the file still too full — a no-op),
    /// never late: occupancy cannot drop before the first completion.
    pub(crate) fn drained_to_at(&self, limit: usize, now: u64) -> u64 {
        if self.occupied.len() <= limit {
            now
        } else {
            self.earliest_ready
        }
    }

    /// The live slot holding `block`, if any.
    #[inline]
    fn find(&self, block: u64) -> Option<u16> {
        self.occupied
            .iter()
            .copied()
            .find(|&s| self.block[s as usize] == block)
    }

    /// Assembles the exchange-type view of one slot.
    #[inline]
    fn entry(&self, slot: u16) -> MshrEntry {
        let s = slot as usize;
        MshrEntry {
            block: self.block[s],
            ready: self.ready[s],
            exclusive: self.exclusive[s],
            prefetch: self.prefetch[s],
        }
    }

    /// Drops entries whose fills have completed by `now`.
    pub fn retire_completed(&mut self, now: u64) {
        if self.earliest_ready > now {
            return; // nothing can have completed yet
        }
        let mut earliest = u64::MAX;
        let (ready, free) = (&self.ready, &mut self.free);
        self.occupied.retain(|&s| {
            let r = ready[s as usize];
            if r > now {
                earliest = earliest.min(r);
                true
            } else {
                free.push(s);
                false
            }
        });
        self.earliest_ready = earliest;
    }

    /// Finds the outstanding entry for `block`, if any.
    pub fn lookup(&self, block: u64) -> Option<MshrEntry> {
        self.find(block).map(|s| self.entry(s))
    }

    /// All outstanding entries, in scan order (for invariant checking).
    pub fn iter(&self) -> impl Iterator<Item = MshrEntry> + '_ {
        self.occupied.iter().map(|&s| self.entry(s))
    }

    /// Removes the outstanding entry for `block`, returning it if it was
    /// present. Used when a remote invalidation kills an in-flight fill:
    /// letting the entry live would later merge a store into a line the
    /// directory no longer grants — a stale writable copy.
    pub(crate) fn invalidate_entry(&mut self, block: u64) -> Option<MshrEntry> {
        let i = self.occupied.iter().position(|&s| self.block[s as usize] == block)?;
        let slot = self.occupied.swap_remove(i);
        self.free.push(slot);
        Some(self.entry(slot))
    }

    /// Strips write permission from an in-flight entry for `block` (a
    /// remote read downgraded the grant). Returns whether an exclusive
    /// entry was actually downgraded.
    pub(crate) fn downgrade_entry(&mut self, block: u64) -> bool {
        match self.find(block) {
            Some(s) if self.exclusive[s as usize] => {
                self.exclusive[s as usize] = false;
                true
            }
            _ => false,
        }
    }

    /// Upgrades an in-flight read entry to exclusive (a store merged into
    /// a load miss); returns the entry's ready time if present.
    pub(crate) fn upgrade_to_exclusive(&mut self, block: u64) -> Option<u64> {
        let s = self.find(block)? as usize;
        self.exclusive[s] = true;
        Some(self.ready[s])
    }

    /// Folds an upgrade request into an existing in-flight entry: marks
    /// it exclusive and extends its completion to at least `ready`.
    /// Returns `false` when no entry for `block` exists (the caller
    /// allocates a fresh one). One entry per block is what the MSHR-leak
    /// invariant demands; a blind second `allocate` would duplicate.
    pub(crate) fn merge_exclusive(&mut self, block: u64, ready: u64) -> bool {
        match self.find(block) {
            Some(s) => {
                let s = s as usize;
                self.exclusive[s] = true;
                // Raising a deadline can only move the true minimum up,
                // so the cached lower bound stays valid as-is.
                self.ready[s] = self.ready[s].max(ready);
                self.merges += 1;
                true
            }
            None => false,
        }
    }

    /// Records a merged (secondary) request against an existing entry.
    pub(crate) fn record_merge(&mut self) {
        self.merges += 1;
    }

    /// Allocates an entry for `block` completing at `ready`.
    ///
    /// # Errors
    ///
    /// Returns `Err(earliest_ready)` when the file is full, where
    /// `earliest_ready` is the soonest cycle at which an entry frees up
    /// (callers retry then). Completed entries are reclaimed first.
    pub fn allocate(
        &mut self,
        block: u64,
        ready: u64,
        exclusive: bool,
        prefetch: Option<RfoOrigin>,
        now: u64,
    ) -> Result<(), u64> {
        self.retire_completed(now);
        debug_assert!(
            self.lookup(block).is_none(),
            "duplicate MSHR for block {block:#x}"
        );
        if self.occupied.len() >= self.capacity {
            self.full_events += 1;
            let earliest = self
                .occupied
                .iter()
                .map(|&s| self.ready[s as usize])
                .min()
                .expect("full file is non-empty");
            return Err(earliest);
        }
        let slot = self.free.pop().expect("free list tracks every vacancy");
        let s = slot as usize;
        self.block[s] = block;
        self.ready[s] = ready;
        self.exclusive[s] = exclusive;
        self.prefetch[s] = prefetch;
        self.occupied.push(slot);
        self.earliest_ready = self.earliest_ready.min(ready);
        self.allocations += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_lookup() {
        let mut m = MshrFile::new(4);
        m.allocate(1, 50, true, None, 0).unwrap();
        let e = m.lookup(1).unwrap();
        assert_eq!(e.ready, 50);
        assert!(e.exclusive);
        assert_eq!(m.allocations(), 1);
    }

    #[test]
    fn full_file_reports_earliest_completion() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 100, false, None, 0).unwrap();
        m.allocate(2, 60, false, None, 0).unwrap();
        let err = m.allocate(3, 120, false, None, 10).unwrap_err();
        assert_eq!(err, 60);
        assert_eq!(m.full_events, 1);
    }

    #[test]
    fn completed_entries_are_reclaimed_on_allocate() {
        let mut m = MshrFile::new(1);
        m.allocate(1, 10, false, None, 0).unwrap();
        // At cycle 11 the old entry has completed, so this succeeds.
        m.allocate(2, 50, false, None, 11).unwrap();
        assert_eq!(m.len(), 1);
        assert!(m.lookup(1).is_none());
    }

    #[test]
    fn upgrade_marks_exclusive_and_returns_ready() {
        let mut m = MshrFile::new(2);
        m.allocate(7, 42, false, None, 0).unwrap();
        assert_eq!(m.upgrade_to_exclusive(7), Some(42));
        assert!(m.lookup(7).unwrap().exclusive);
        assert_eq!(m.upgrade_to_exclusive(9), None);
    }

    #[test]
    fn retire_is_strict_about_boundary() {
        let mut m = MshrFile::new(2);
        m.allocate(7, 42, false, None, 0).unwrap();
        m.retire_completed(41);
        assert_eq!(m.len(), 1, "not complete before its ready cycle");
        m.retire_completed(42);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn downgrade_entry_strips_write_permission() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 50, true, None, 0).unwrap();
        assert!(m.downgrade_entry(1));
        assert!(!m.lookup(1).unwrap().exclusive);
        assert!(!m.downgrade_entry(1), "already shared");
        assert!(!m.downgrade_entry(9), "absent block");
    }

    #[test]
    fn invalidate_entry_removes_only_the_target() {
        let mut m = MshrFile::new(4);
        m.allocate(1, 50, true, None, 0).unwrap();
        m.allocate(2, 60, false, None, 0).unwrap();
        let e = m.invalidate_entry(1).unwrap();
        assert_eq!(e.block, 1);
        assert!(m.lookup(1).is_none());
        assert!(m.lookup(2).is_some());
        assert!(m.invalidate_entry(3).is_none());
    }

    #[test]
    fn batched_retirement_matches_per_cycle_retirement() {
        // The skip-ahead kernel batches several cycles of lazy
        // reclamation into one call; the surviving scan order and the
        // free-slot reuse behaviour must match per-cycle calls.
        let build = || {
            let mut m = MshrFile::new(8);
            for (b, r) in [(1u64, 10u64), (2, 30), (3, 20), (4, 40)] {
                m.allocate(b, r, false, None, 0).unwrap();
            }
            m
        };
        let mut per_cycle = build();
        for now in 0..=35 {
            per_cycle.retire_completed(now);
        }
        let mut batched = build();
        batched.retire_completed(35);
        assert_eq!(
            per_cycle.iter().collect::<Vec<_>>(),
            batched.iter().collect::<Vec<_>>()
        );
        assert_eq!(per_cycle.len(), 1);
        // Both files now admit new entries into identical scan positions.
        per_cycle.allocate(9, 99, false, None, 36).unwrap();
        batched.allocate(9, 99, false, None, 36).unwrap();
        assert_eq!(
            per_cycle.iter().collect::<Vec<_>>(),
            batched.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn earliest_ready_cache_survives_merges_and_invalidations() {
        let mut m = MshrFile::new(4);
        m.allocate(1, 50, false, None, 0).unwrap();
        m.allocate(2, 20, false, None, 0).unwrap();
        // Extending entry 2's deadline leaves the cached bound stale in
        // the safe (too-small) direction; retirement must still be exact.
        assert!(m.merge_exclusive(2, 80));
        m.retire_completed(50);
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(2).unwrap().ready, 80);
        m.invalidate_entry(2).unwrap();
        assert!(m.is_empty());
        m.retire_completed(u64::MAX - 1);
        assert!(m.is_empty());
    }
}
