//! Full-map MESI directory for multi-core coherence.
//!
//! The home node (at the shared L3) tracks, for every block with cached
//! copies, either a single **owner** (M/E in some core's private caches)
//! or a set of **sharers** (S copies). The directory enforces the
//! single-writer / multiple-reader invariant; the memory system uses it
//! to decide which invalidations/downgrades a request must pay for.
//!
//! Simplification versus a real design (documented in DESIGN.md): the
//! directory is a map keyed by block, not embedded in L3 tags, so L3
//! evictions do not force recalls. This removes an interaction that is
//! orthogonal to store prefetching.

use crate::blockmap::BlockMap;
use std::fmt;
use std::ops::Deref;

/// Maximum number of cores the sharer bitmask supports.
pub(crate) const MAX_CORES: usize = 16;

/// A block's directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirEntry {
    /// One core holds the block in M or E.
    Owned {
        /// The owning core.
        owner: u8,
    },
    /// One or more cores hold read-only copies.
    Shared {
        /// Bitmask of sharing cores.
        sharers: u16,
    },
}

impl Default for DirEntry {
    /// Slot filler for the backing [`BlockMap`]; never observable
    /// through the map API.
    fn default() -> Self {
        DirEntry::Owned { owner: 0 }
    }
}

/// An inline set of core ids to invalidate.
///
/// Exclusive requests used to heap-allocate a `Vec<u8>` per remote
/// invalidation; the sharer mask bounds the set by 16 cores, so it
/// fits in a fixed array on the stack. Derefs to a slice for iteration
/// and comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalSet {
    cores: [u8; MAX_CORES],
    len: u8,
}

impl InvalSet {
    /// The empty set.
    pub fn new() -> Self {
        Self {
            cores: [0; MAX_CORES],
            len: 0,
        }
    }

    /// Adds a core id.
    pub fn push(&mut self, core: u8) {
        self.cores[self.len as usize] = core;
        self.len += 1;
    }
}

impl Default for InvalSet {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for InvalSet {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.cores[..self.len as usize]
    }
}

/// What a requester must do before its access can proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceActions {
    /// Cores whose copies must be invalidated (exclusive requests).
    pub invalidate: InvalSet,
    /// Core whose M/E copy must be downgraded to S (read requests).
    pub downgrade: Option<u8>,
}

impl CoherenceActions {
    /// No remote action needed.
    pub fn none() -> Self {
        Self {
            invalidate: InvalSet::new(),
            downgrade: None,
        }
    }

    /// Whether any remote cache must be touched.
    pub fn is_remote(&self) -> bool {
        !self.invalidate.is_empty() || self.downgrade.is_some()
    }
}

/// The directory itself.
///
/// # Examples
///
/// ```
/// use spb_mem::directory::Directory;
///
/// let mut dir = Directory::new(2);
/// // Core 0 takes ownership; core 1's read must downgrade it.
/// let a0 = dir.request_exclusive(0, 100);
/// assert!(!a0.is_remote());
/// let a1 = dir.request_shared(1, 100);
/// assert_eq!(a1.downgrade, Some(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Directory {
    cores: usize,
    entries: BlockMap<DirEntry>,
    /// Blocks whose current entry is malformed, in write order. Every
    /// entry write funnels through [`Directory::set`], which validates
    /// it, so this list is the whole answer to [`find_malformed`] —
    /// empty (the always case) makes the periodic invariant check O(1)
    /// instead of a full table sweep.
    ///
    /// [`find_malformed`]: Directory::find_malformed
    malformed: Vec<u64>,
    /// When enabled, blocks whose entry was written or removed since the
    /// log was last cleared, in write order (duplicates possible). The
    /// invariant checker re-verifies exactly these blocks instead of
    /// sweeping every cached line.
    mutated: Vec<u64>,
    log_mutations: bool,
    invalidations_sent: u64,
    downgrades_sent: u64,
}

impl Directory {
    /// Creates a directory for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds 16 (the sharer mask's
    /// width).
    pub fn new(cores: usize) -> Self {
        assert!(
            cores > 0 && cores <= MAX_CORES,
            "cores must be 1..={MAX_CORES}"
        );
        Self {
            cores,
            entries: BlockMap::new(),
            malformed: Vec::new(),
            mutated: Vec::new(),
            log_mutations: false,
            invalidations_sent: 0,
            downgrades_sent: 0,
        }
    }

    /// Starts recording every entry write/removal into the mutation log.
    /// Off by default so standalone directories pay nothing.
    pub(crate) fn enable_mutation_log(&mut self) {
        self.log_mutations = true;
    }

    /// Blocks whose entry changed since the last
    /// [`Directory::clear_mutation_log`], in write order.
    pub(crate) fn mutation_log(&self) -> &[u64] {
        &self.mutated
    }

    /// Forgets the recorded mutations (the checker consumed them).
    pub(crate) fn clear_mutation_log(&mut self) {
        self.mutated.clear();
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Current entry for `block`, if any core caches it.
    pub fn entry(&self, block: u64) -> Option<DirEntry> {
        self.entries.get(block).copied()
    }

    /// Why `e` is malformed for a `cores`-core directory, if it is.
    fn malformed_why(e: &DirEntry, cores: usize) -> Option<String> {
        match e {
            DirEntry::Owned { owner } if (*owner as usize) >= cores => {
                Some(format!("owner {owner} out of range (cores={cores})"))
            }
            DirEntry::Shared { sharers } if *sharers == 0 => {
                Some("shared entry with empty sharer mask".into())
            }
            DirEntry::Shared { sharers } if (*sharers >> cores) != 0 => {
                Some(format!("sharer mask {sharers:#b} names out-of-range cores"))
            }
            _ => None,
        }
    }

    /// Writes `block`'s entry, keeping the malformed-block list exact.
    fn set(&mut self, block: u64, e: DirEntry) {
        if self.log_mutations {
            self.mutated.push(block);
        }
        match Self::malformed_why(&e, self.cores) {
            Some(_) => {
                if !self.malformed.contains(&block) {
                    self.malformed.push(block);
                }
            }
            None => {
                if !self.malformed.is_empty() {
                    self.malformed.retain(|&b| b != block);
                }
            }
        }
        self.entries.insert(block, e);
    }

    /// Removes `block`'s entry, keeping the malformed-block list exact.
    fn unset(&mut self, block: u64) {
        if self.log_mutations {
            self.mutated.push(block);
        }
        if !self.malformed.is_empty() {
            self.malformed.retain(|&b| b != block);
        }
        self.entries.remove(block);
    }

    /// Core `core` requests ownership of `block` (store / RFO).
    ///
    /// Returns the remote actions the memory system must model, and
    /// records `core` as the owner.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn request_exclusive(&mut self, core: u8, block: u64) -> CoherenceActions {
        assert!((core as usize) < self.cores, "core id out of range");
        let mut actions = CoherenceActions::none();
        match self.entries.get(block).copied() {
            None => {}
            Some(DirEntry::Owned { owner }) if owner == core => {}
            Some(DirEntry::Owned { owner }) => {
                actions.invalidate.push(owner);
            }
            Some(DirEntry::Shared { sharers }) => {
                for c in 0..self.cores as u8 {
                    if c != core && sharers & (1 << c) != 0 {
                        actions.invalidate.push(c);
                    }
                }
            }
        }
        self.invalidations_sent += actions.invalidate.len() as u64;
        self.set(block, DirEntry::Owned { owner: core });
        actions
    }

    /// Core `core` requests a readable copy of `block` (load).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn request_shared(&mut self, core: u8, block: u64) -> CoherenceActions {
        assert!((core as usize) < self.cores, "core id out of range");
        let mut actions = CoherenceActions::none();
        match self.entries.get(block).copied() {
            None => {
                // First copy: grant E (recorded as Owned so a later store
                // by the same core upgrades silently).
                self.set(block, DirEntry::Owned { owner: core });
            }
            Some(DirEntry::Owned { owner }) if owner == core => {}
            Some(DirEntry::Owned { owner }) => {
                actions.downgrade = Some(owner);
                self.downgrades_sent += 1;
                let sharers = (1u16 << owner) | (1u16 << core);
                self.set(block, DirEntry::Shared { sharers });
            }
            Some(DirEntry::Shared { sharers }) => {
                self.set(
                    block,
                    DirEntry::Shared {
                        sharers: sharers | (1 << core),
                    },
                );
            }
        }
        actions
    }

    /// Re-registers `core` as the owner of `block` **iff the directory
    /// has no entry for it** — the case where a private line was evicted
    /// while its fill was still in flight (the directory forgot the
    /// block) and the core later reinstates it from the MSHR entry.
    ///
    /// Without this, the reinstated copy would be invisible to the
    /// directory: a later exclusive request by another core would not
    /// invalidate it and the single-writer invariant could break. The
    /// call sends no messages and touches no counters, so it cannot
    /// perturb timing on its own.
    pub(crate) fn reinstate_owner(&mut self, core: u8, block: u64) {
        assert!((core as usize) < self.cores, "core id out of range");
        if !self.entries.contains(block) {
            self.set(block, DirEntry::Owned { owner: core });
        }
    }

    /// Core `core` evicted its copy of `block`; the directory forgets it.
    pub fn evicted(&mut self, core: u8, block: u64) {
        match self.entries.get(block).copied() {
            Some(DirEntry::Owned { owner }) if owner == core => {
                self.unset(block);
            }
            Some(DirEntry::Shared { sharers }) => {
                let s = sharers & !(1 << core);
                if s == 0 {
                    self.unset(block);
                } else {
                    self.set(block, DirEntry::Shared { sharers: s });
                }
            }
            _ => {}
        }
    }

    /// Verifies the single-writer invariant for a block (test helper):
    /// an `Owned` entry never coexists with sharers by construction, so
    /// this checks internal consistency of the sharer mask.
    pub fn check_invariants(&self) -> bool {
        self.find_malformed().is_none()
    }

    /// Finds the first malformed entry (owner out of range, empty or
    /// out-of-range sharer mask), if any, with a description.
    ///
    /// O(1) in the healthy case: every write validates its entry and
    /// maintains the malformed-block list, so this only has work to do
    /// when a directory bug already happened.
    pub(crate) fn find_malformed(&self) -> Option<(u64, String)> {
        let &block = self.malformed.first()?;
        let e = self.entries.get(block)?;
        Self::malformed_why(e, self.cores).map(|why| (block, why))
    }

    /// Warms the host cache for `block`'s entry slot (see
    /// [`crate::blockmap::BlockMap::warm`]). Semantically a no-op.
    #[inline]
    pub fn warm(&self, block: u64) {
        self.entries.warm(block);
    }

    /// Whether the directory believes `core` holds a copy of `block`.
    pub fn tracks(&self, core: u8, block: u64) -> bool {
        match self.entries.get(block) {
            Some(DirEntry::Owned { owner }) => *owner == core,
            Some(DirEntry::Shared { sharers }) => sharers & (1 << core) != 0,
            None => false,
        }
    }

    /// Iterates over all tracked blocks and their entries.
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = (u64, DirEntry)> + '_ {
        self.entries.iter().map(|(b, &e)| (b, e))
    }
}

impl fmt::Display for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "directory: {} tracked blocks, {} invals, {} downgrades",
            self.entries.len(),
            self.invalidations_sent,
            self.downgrades_sent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reader_gets_exclusive() {
        let mut d = Directory::new(4);
        let a = d.request_shared(2, 7);
        assert!(!a.is_remote());
        assert_eq!(d.entry(7), Some(DirEntry::Owned { owner: 2 }));
    }

    #[test]
    fn second_reader_downgrades_owner() {
        let mut d = Directory::new(4);
        d.request_exclusive(0, 7);
        let a = d.request_shared(1, 7);
        assert_eq!(a.downgrade, Some(0));
        assert_eq!(d.entry(7), Some(DirEntry::Shared { sharers: 0b11 }));
        assert_eq!(d.downgrades_sent, 1);
    }

    #[test]
    fn writer_invalidates_all_sharers() {
        let mut d = Directory::new(4);
        d.request_shared(0, 9);
        d.request_shared(1, 9);
        d.request_shared(2, 9);
        let a = d.request_exclusive(3, 9);
        let mut inv = a.invalidate.to_vec();
        inv.sort_unstable();
        assert_eq!(inv, vec![0, 1, 2]);
        assert_eq!(d.entry(9), Some(DirEntry::Owned { owner: 3 }));
    }

    #[test]
    fn writer_steals_ownership() {
        let mut d = Directory::new(2);
        d.request_exclusive(0, 9);
        let a = d.request_exclusive(1, 9);
        assert_eq!(&a.invalidate[..], [0]);
        assert_eq!(d.entry(9), Some(DirEntry::Owned { owner: 1 }));
    }

    #[test]
    fn re_request_by_owner_is_silent() {
        let mut d = Directory::new(2);
        d.request_exclusive(0, 9);
        let a = d.request_exclusive(0, 9);
        assert!(!a.is_remote());
        let b = d.request_shared(0, 9);
        assert!(!b.is_remote());
    }

    #[test]
    fn eviction_forgets_copies() {
        let mut d = Directory::new(3);
        d.request_shared(0, 5);
        d.request_shared(1, 5);
        d.evicted(0, 5);
        assert_eq!(d.entry(5), Some(DirEntry::Shared { sharers: 0b10 }));
        d.evicted(1, 5);
        assert_eq!(d.entry(5), None);
    }

    #[test]
    fn eviction_of_owned_block() {
        let mut d = Directory::new(2);
        d.request_exclusive(1, 5);
        d.evicted(1, 5);
        assert_eq!(d.entry(5), None);
        // Eviction by a non-owner is a no-op.
        d.request_exclusive(0, 6);
        d.evicted(1, 6);
        assert_eq!(d.entry(6), Some(DirEntry::Owned { owner: 0 }));
    }

    #[test]
    fn invariants_hold_after_random_traffic() {
        let mut d = Directory::new(4);
        let mut x = 123456789u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let core = (x % 4) as u8;
            let block = (x >> 8) % 32;
            match (x >> 16) % 3 {
                0 => {
                    let _ = d.request_shared(core, block);
                }
                1 => {
                    let _ = d.request_exclusive(core, block);
                }
                _ => d.evicted(core, block),
            }
            assert!(d.check_invariants());
        }
    }

    #[test]
    #[should_panic(expected = "core id out of range")]
    fn out_of_range_core_panics() {
        let mut d = Directory::new(2);
        let _ = d.request_shared(5, 0);
    }

    #[test]
    fn reinstate_fills_only_forgotten_entries() {
        let mut d = Directory::new(2);
        // Forgotten block: reinstate re-registers ownership.
        d.reinstate_owner(1, 9);
        assert_eq!(d.entry(9), Some(DirEntry::Owned { owner: 1 }));
        // Tracked block: reinstate must not clobber the real state.
        d.request_exclusive(0, 10);
        d.reinstate_owner(1, 10);
        assert_eq!(d.entry(10), Some(DirEntry::Owned { owner: 0 }));
    }

    #[test]
    fn tracks_reflects_owner_and_sharers() {
        let mut d = Directory::new(3);
        d.request_shared(0, 4);
        d.request_shared(1, 4);
        assert!(d.tracks(0, 4));
        assert!(d.tracks(1, 4));
        assert!(!d.tracks(2, 4));
        assert!(!d.tracks(0, 5));
    }
}
