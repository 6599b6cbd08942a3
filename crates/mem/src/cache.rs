//! Set-associative cache arrays with LRU replacement.
//!
//! # Layout
//!
//! The array is struct-of-arrays: parallel lanes (`tag`, `state`,
//! `ready`, `dirty`, `used`, `prefetch`, `lru`) indexed by
//! `set * ways + way`. A tag match scans 8 bytes per way instead of a
//! whole [`CacheLine`], and the periodic invariant checker's sweep over
//! every line touches only the lanes it reads. The tag lane holds each
//! block number complemented (`!block`), so `0` marks an invalid way (no
//! real block number is `u64::MAX`) and a new array's tag lane is a
//! zeroed allocation the OS maps lazily instead of a 2 MB fill for the
//! L3. The state lane is kept in sync ([`CoherenceState::Invalid`] ⟺
//! empty tag).
//!
//! [`CacheLine`] remains the exchange type: [`CacheArray::peek`],
//! [`CacheArray::invalidate`] and [`CacheArray::iter_valid`] hand out
//! assembled copies, while [`CacheArray::lookup`] returns a [`LineMut`]
//! proxy whose setters write the lanes in place.

use crate::line::{CacheLine, CoherenceState, RfoOrigin};

/// Tag-lane value of an invalid way; a valid way holds `!block`.
const NO_TAG: u64 = 0;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Block size in bytes (64 throughout the paper).
    pub block_bytes: u64,
}

impl CacheGeometry {
    /// Creates a geometry, validating divisibility.
    ///
    /// # Panics
    ///
    /// Panics if the size is not an exact multiple of `ways * block_bytes`,
    /// or if the resulting set count is not a power of two (the set index
    /// is a mask of the block's low bits).
    pub fn new(size_bytes: u64, ways: usize) -> Self {
        let g = Self {
            size_bytes,
            ways,
            block_bytes: 64,
        };
        assert!(
            g.sets() > 0 && size_bytes.is_multiple_of(ways as u64 * g.block_bytes),
            "cache size must be a multiple of ways * block size"
        );
        assert!(
            g.sets().is_power_of_two(),
            "cache set count must be a power of two"
        );
        g
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * self.block_bytes)) as usize
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.sets() * self.ways
    }

    /// The mask selecting a block's set bits (`sets() - 1`; the set
    /// count is a power of two).
    fn set_mask(&self) -> u64 {
        self.sets() as u64 - 1
    }
}

/// What `insert` evicted, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The block that was evicted.
    pub block: u64,
    /// Whether it held dirty data (needs write-back).
    pub dirty: bool,
    /// The prefetch origin if the victim was prefetched and never used.
    pub unused_prefetch: Option<RfoOrigin>,
}

/// One set-associative cache array (tags + metadata only; the simulator
/// does not model data values).
///
/// # Examples
///
/// ```
/// use spb_mem::cache::{CacheArray, CacheGeometry};
/// use spb_mem::line::CoherenceState;
///
/// let mut l1 = CacheArray::new(CacheGeometry::new(32 * 1024, 8));
/// assert!(l1.lookup(42).is_none());
/// l1.insert(42, CoherenceState::Exclusive, 10, None);
/// assert!(l1.lookup(42).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    geometry: CacheGeometry,
    /// `geometry.sets() - 1`, cached: every tag probe needs the set and
    /// recomputing the set count costs a hardware divide.
    set_mask: u64,
    tag: Vec<u64>,
    state: Vec<CoherenceState>,
    ready: Vec<u64>,
    dirty: Vec<bool>,
    used: Vec<bool>,
    prefetch: Vec<Option<RfoOrigin>>,
    lru: Vec<u64>,
    lru_clock: u64,
    tag_checks: u64,
    /// When enabled, blocks whose checker-visible lanes (`tag`, `state`,
    /// `ready`) changed since the log was last cleared, in write order.
    /// The invariant checker re-verifies exactly these blocks instead of
    /// sweeping every line (see `MemorySystem::check_invariants`).
    mutated: Vec<u64>,
    log_mutations: bool,
}

/// A mutable handle to one valid line, writing the SoA lanes in place.
#[derive(Debug)]
pub struct LineMut<'a> {
    arr: &'a mut CacheArray,
    idx: usize,
}

impl LineMut<'_> {
    /// The block held by this line.
    pub fn block(&self) -> u64 {
        !self.arr.tag[self.idx]
    }

    /// The line's coherence state.
    pub fn state(&self) -> CoherenceState {
        self.arr.state[self.idx]
    }

    /// Rewrites the coherence state (e.g. an in-place upgrade to M).
    pub(crate) fn set_state(&mut self, state: CoherenceState) {
        debug_assert!(
            state != CoherenceState::Invalid,
            "invalidate lines via CacheArray::invalidate"
        );
        if self.arr.state[self.idx] != state {
            self.arr.state[self.idx] = state;
            let block = self.block();
            self.arr.log_mutation(block);
        }
    }

    /// The cycle the line's fill completes.
    pub fn ready(&self) -> u64 {
        self.arr.ready[self.idx]
    }

    /// Moves the fill-completion cycle (upgrade in flight).
    pub(crate) fn set_ready(&mut self, ready: u64) {
        if self.arr.ready[self.idx] != ready {
            self.arr.ready[self.idx] = ready;
            let block = self.block();
            self.arr.log_mutation(block);
        }
    }

    /// Whether the line holds dirty data.
    pub fn dirty(&self) -> bool {
        self.arr.dirty[self.idx]
    }

    /// Marks the line dirty (or clean).
    pub(crate) fn set_dirty(&mut self, dirty: bool) {
        self.arr.dirty[self.idx] = dirty;
    }

    /// The line's prefetch origin, if it was filled by a prefetch.
    pub fn prefetch(&self) -> Option<RfoOrigin> {
        self.arr.prefetch[self.idx]
    }

    /// Whether a demand access has touched the line since its fill.
    pub fn used(&self) -> bool {
        self.arr.used[self.idx]
    }

    /// Marks this line most recently used and demanded — the same effect
    /// as [`CacheArray::touch`] without paying a second tag search.
    pub fn touch(&mut self) {
        self.arr.lru_clock += 1;
        self.arr.lru[self.idx] = self.arr.lru_clock;
        self.arr.used[self.idx] = true;
    }
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let n = geometry.lines();
        Self {
            geometry,
            set_mask: geometry.set_mask(),
            tag: vec![NO_TAG; n],
            state: vec![CoherenceState::Invalid; n],
            ready: vec![0; n],
            dirty: vec![false; n],
            used: vec![false; n],
            prefetch: vec![None; n],
            lru: vec![0; n],
            lru_clock: 0,
            tag_checks: 0,
            mutated: Vec::new(),
            log_mutations: false,
        }
    }

    /// Starts recording every block whose checker-visible lanes change
    /// into the mutation log. Off by default so arrays nobody audits
    /// (the shared L3, standalone tests) pay nothing.
    pub(crate) fn enable_mutation_log(&mut self) {
        self.log_mutations = true;
    }

    /// Blocks mutated since the last [`CacheArray::clear_mutation_log`],
    /// in write order (duplicates possible).
    pub(crate) fn mutation_log(&self) -> &[u64] {
        &self.mutated
    }

    /// Forgets the recorded mutations (the checker consumed them).
    pub(crate) fn clear_mutation_log(&mut self) {
        self.mutated.clear();
    }

    #[inline]
    fn log_mutation(&mut self, block: u64) {
        if self.log_mutations {
            self.mutated.push(block);
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of tag-array checks performed so far (Figure 13's metric).
    pub(crate) fn tag_checks(&self) -> u64 {
        self.tag_checks
    }

    /// Resets the tag-check counter (end of warm-up).
    pub(crate) fn reset_tag_checks(&mut self) {
        self.tag_checks = 0;
    }

    /// The first lane of `block`'s set (the block's low `log2(sets)` bits).
    fn set_start(&self, block: u64) -> usize {
        (block & self.set_mask) as usize * self.geometry.ways
    }

    /// The lane index holding `block`, if present and valid.
    #[inline]
    fn find(&self, block: u64) -> Option<usize> {
        let start = self.set_start(block);
        self.tag[start..start + self.geometry.ways]
            .iter()
            .position(|&t| t == !block)
            .map(|w| start + w)
    }

    /// Assembles the exchange-type view of one valid way.
    fn line(&self, idx: usize) -> CacheLine {
        CacheLine {
            block: !self.tag[idx],
            state: self.state[idx],
            ready: self.ready[idx],
            dirty: self.dirty[idx],
            prefetch: self.prefetch[idx],
            used: self.used[idx],
            lru: self.lru[idx],
        }
    }

    /// Looks up `block`, counting one tag check. Does **not** update LRU;
    /// use [`CacheArray::touch`] on a demand access.
    pub fn lookup(&mut self, block: u64) -> Option<LineMut<'_>> {
        self.tag_checks += 1;
        let idx = self.find(block)?;
        Some(LineMut { arr: self, idx })
    }

    /// Pulls `block`'s set of the tag lane into the host cache without
    /// reading it (the 8-way × 8-byte tag row is exactly one host cache
    /// line). A batch of `warm` calls across cache levels turns the miss
    /// path's chain of dependent random probes into independent,
    /// overlapping loads. Semantically a no-op.
    #[inline]
    pub fn warm(&self, block: u64) {
        std::hint::black_box(self.tag[self.set_start(block)]);
    }

    /// Peeks at `block` without counting a tag check, returning a copy
    /// of the line's metadata.
    pub fn peek(&self, block: u64) -> Option<CacheLine> {
        self.find(block).map(|idx| self.line(idx))
    }

    /// Marks `block` as most recently used and demanded.
    pub fn touch(&mut self, block: u64) {
        self.lru_clock += 1;
        if let Some(idx) = self.find(block) {
            self.lru[idx] = self.lru_clock;
            self.used[idx] = true;
        }
    }

    /// Inserts `block` with `state`, ready at cycle `ready`, evicting the
    /// LRU way if the set is full. Prefetched fills carry their origin.
    ///
    /// Returns the eviction, if a valid line was displaced.
    ///
    /// # Panics
    ///
    /// Panics if the block is already present (callers must `lookup`
    /// first; double-insertion would duplicate a tag, which real
    /// hardware cannot represent).
    pub fn insert(
        &mut self,
        block: u64,
        state: CoherenceState,
        ready: u64,
        prefetch: Option<RfoOrigin>,
    ) -> Option<Eviction> {
        let start = self.set_start(block);
        let tags = &self.tag[start..start + self.geometry.ways];
        let stamps = &self.lru[start..start + self.geometry.ways];
        // One pass over the set refuses a duplicate tag and picks the
        // victim: the first invalid way, else the (first) LRU way.
        let (mut invalid, mut lru) = (None, (0, u64::MAX));
        for (w, (&tag, &stamp)) in tags.iter().zip(stamps).enumerate() {
            assert!(tag != !block, "block {block:#x} inserted twice");
            if tag == NO_TAG {
                invalid.get_or_insert(w);
            } else if stamp < lru.1 {
                lru = (w, stamp);
            }
        }
        let victim = start + invalid.unwrap_or(lru.0);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let eviction = (self.tag[victim] != NO_TAG).then(|| Eviction {
            block: !self.tag[victim],
            dirty: self.dirty[victim],
            unused_prefetch: self.prefetch[victim].filter(|_| !self.used[victim]),
        });
        if let Some(ev) = &eviction {
            let evicted = ev.block;
            self.log_mutation(evicted);
        }
        self.log_mutation(block);
        self.tag[victim] = !block;
        self.state[victim] = state;
        self.ready[victim] = ready;
        self.dirty[victim] = state == CoherenceState::Modified;
        self.prefetch[victim] = prefetch;
        self.used[victim] = false;
        self.lru[victim] = clock;
        eviction
    }

    /// Invalidates `block` (coherence invalidation or recall), returning
    /// the line it held.
    pub fn invalidate(&mut self, block: u64) -> Option<CacheLine> {
        let idx = self.find(block)?;
        self.log_mutation(block);
        let old = self.line(idx);
        self.tag[idx] = NO_TAG;
        self.state[idx] = CoherenceState::Invalid;
        self.ready[idx] = 0;
        self.dirty[idx] = false;
        self.used[idx] = false;
        self.prefetch[idx] = None;
        self.lru[idx] = 0;
        Some(old)
    }

    /// Downgrades `block` to `Shared` (remote read of an owned line),
    /// returning whether it was dirty.
    pub fn downgrade(&mut self, block: u64) -> Option<bool> {
        let idx = self.find(block)?;
        if self.state[idx] != CoherenceState::Shared {
            self.log_mutation(block);
        }
        let was_dirty = self.dirty[idx];
        self.state[idx] = CoherenceState::Shared;
        self.dirty[idx] = false;
        Some(was_dirty)
    }

    /// Number of valid lines (test/debug helper).
    pub fn valid_lines(&self) -> usize {
        self.tag.iter().filter(|&&t| t != NO_TAG).count()
    }

    /// Iterates over all valid lines as assembled [`CacheLine`] copies.
    pub fn iter_valid(&self) -> impl Iterator<Item = CacheLine> + '_ {
        (0..self.tag.len())
            .filter(|&i| self.tag[i] != NO_TAG)
            .map(|i| self.line(i))
    }

    /// Iterates `(block, state, ready)` of every valid line, touching
    /// only those three lanes — the invariant checker's periodic sweep.
    pub(crate) fn iter_valid_meta(&self) -> impl Iterator<Item = (u64, CoherenceState, u64)> + '_ {
        self.tag
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != NO_TAG)
            .map(|(i, &t)| (!t, self.state[i], self.ready[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets x 2 ways.
        CacheArray::new(CacheGeometry::new(256, 2))
    }

    #[test]
    fn geometry_derives_sets_and_lines() {
        let g = CacheGeometry::new(32 * 1024, 8);
        assert_eq!(g.sets(), 64);
        assert_eq!(g.lines(), 512);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_geometry_panics() {
        let _ = CacheGeometry::new(100, 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_set_count_panics() {
        let _ = CacheGeometry::new(3 * 2 * 64, 2); // 3 sets x 2 ways
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut c = tiny();
        c.insert(4, CoherenceState::Modified, 0, None);
        let l = c.lookup(4).unwrap();
        assert_eq!(l.state(), CoherenceState::Modified);
        assert!(l.dirty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (2 sets).
        c.insert(0, CoherenceState::Exclusive, 0, None);
        c.insert(2, CoherenceState::Exclusive, 0, None);
        c.touch(0); // 0 is now MRU; 2 is LRU
        let ev = c.insert(4, CoherenceState::Exclusive, 0, None).unwrap();
        assert_eq!(ev.block, 2);
        assert!(c.peek(0).is_some());
        assert!(c.peek(2).is_none());
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut c = tiny();
        c.insert(0, CoherenceState::Modified, 0, None);
        c.insert(2, CoherenceState::Exclusive, 0, None);
        c.insert(4, CoherenceState::Exclusive, 0, None);
        // LRU is block 0 (inserted first, never touched): dirty.
        let hit0 = c.peek(0);
        assert!(hit0.is_none());
    }

    #[test]
    fn eviction_flags_unused_prefetch() {
        let mut c = tiny();
        c.insert(0, CoherenceState::Modified, 0, Some(RfoOrigin::SpbBurst));
        c.insert(2, CoherenceState::Exclusive, 0, None);
        let ev = c.insert(4, CoherenceState::Exclusive, 0, None).unwrap();
        assert_eq!(ev.block, 0);
        assert_eq!(ev.unused_prefetch, Some(RfoOrigin::SpbBurst));
    }

    #[test]
    fn touched_prefetch_is_not_flagged_on_eviction() {
        let mut c = tiny();
        c.insert(0, CoherenceState::Modified, 0, Some(RfoOrigin::AtCommit));
        c.touch(0);
        c.insert(2, CoherenceState::Exclusive, 0, None);
        c.touch(2);
        let ev = c.insert(4, CoherenceState::Exclusive, 0, None).unwrap();
        assert_eq!(ev.block, 0);
        assert_eq!(ev.unused_prefetch, None);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(8, CoherenceState::Shared, 0, None);
        let old = c.invalidate(8).unwrap();
        assert_eq!(old.block, 8);
        assert!(c.peek(8).is_none());
        assert!(c.invalidate(8).is_none());
    }

    #[test]
    fn downgrade_clears_dirty_and_reports_it() {
        let mut c = tiny();
        c.insert(8, CoherenceState::Modified, 0, None);
        assert_eq!(c.downgrade(8), Some(true));
        let l = c.peek(8).unwrap();
        assert_eq!(l.state, CoherenceState::Shared);
        assert!(!l.dirty);
    }

    #[test]
    fn tag_checks_count_lookups() {
        let mut c = tiny();
        let _ = c.lookup(1);
        let _ = c.lookup(2);
        assert_eq!(c.tag_checks(), 2);
        c.reset_tag_checks();
        assert_eq!(c.tag_checks(), 0);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut c = tiny();
        c.insert(4, CoherenceState::Exclusive, 0, None);
        c.insert(4, CoherenceState::Exclusive, 0, None);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for b in 0..100u64 {
            let _ = c.insert(b, CoherenceState::Exclusive, 0, None);
        }
        assert!(c.valid_lines() <= c.geometry().lines());
    }

    #[test]
    fn line_mut_writes_are_visible_through_peek() {
        let mut c = tiny();
        c.insert(4, CoherenceState::Shared, 7, None);
        {
            let mut l = c.lookup(4).unwrap();
            l.set_state(CoherenceState::Modified);
            l.set_ready(99);
            l.set_dirty(true);
            assert_eq!(l.block(), 4);
        }
        let l = c.peek(4).unwrap();
        assert_eq!(l.state, CoherenceState::Modified);
        assert_eq!(l.ready, 99);
        assert!(l.dirty);
    }

    #[test]
    fn meta_walk_matches_iter_valid() {
        let mut c = tiny();
        c.insert(0, CoherenceState::Exclusive, 5, None);
        c.insert(3, CoherenceState::Shared, 9, None);
        let full: Vec<_> = c
            .iter_valid()
            .map(|l| (l.block, l.state, l.ready))
            .collect();
        let meta: Vec<_> = c.iter_valid_meta().collect();
        assert_eq!(full, meta);
    }
}
