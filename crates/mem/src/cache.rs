//! Set-associative cache arrays with LRU replacement.
//!
//! # Layout
//!
//! The array is set-major: each set's metadata is one contiguous run of
//! `u64` words, aligned to a 64-byte host cache line, so a lookup, fill
//! or eviction touches only its set's few host lines. A set of `W` ways
//! holds, in order:
//!
//! - `W` tag words, each the block number complemented (`!block`), so
//!   `0` marks an invalid way (no real block number is `u64::MAX`);
//! - `W` ready words, the cycle each way's fill completes;
//! - `W` 32-bit recency words, two to a `u64`: an LRU stamp in the high
//!   24 bits and the way's metadata byte (coherence state, dirty, used,
//!   prefetch origin) in the low 8;
//!
//! padded to a whole number of host lines. A 16-way set is 40 words,
//! exactly five host lines (20 bytes per simulated line), and the 8-way
//! L1 set three. A new array
//! is one zeroed allocation the OS maps lazily: all-zero words are an
//! empty set (tag 0, state [`CoherenceState::Invalid`], stamp 0). The
//! state is kept in sync with the tag ([`CoherenceState::Invalid`] ⟺
//! empty tag).
//!
//! Stamps come from a per-array clock that every insert and touch
//! advances; only their order within a set matters. When the clock
//! would pass 24 bits, every set's valid stamps are rewritten as their
//! ranks `1..=k` and the clock restarts above the largest rank — an
//! order-preserving rebase, so every later victim choice is the one an
//! unbounded clock would make.
//!
//! [`CacheLine`] remains the exchange type: [`CacheArray::peek`],
//! [`CacheArray::invalidate`] and [`CacheArray::iter_valid`] hand out
//! assembled copies, while [`CacheArray::lookup`] returns a [`LineMut`]
//! proxy whose setters write the set in place.

use crate::line::{CacheLine, CoherenceState, RfoOrigin};

/// `u64` words per 64-byte host cache line.
const HOST_LINE_WORDS: usize = 8;

/// Tag word of an invalid way; a valid way holds `!block`.
const NO_TAG: u64 = 0;

/// The largest LRU stamp a recency word holds (24 bits).
const STAMP_MAX: u32 = (1 << 24) - 1;

/// Metadata-byte fields: state in bits 0–1, then dirty, used, and the
/// prefetch origin (`0` none, else [`RfoOrigin::index`] + 1) in bits 4–6.
const META_STATE: u32 = 0b11;
const META_DIRTY: u32 = 1 << 2;
const META_USED: u32 = 1 << 3;
const META_PREFETCH_SHIFT: u32 = 4;
const META_BITS: u32 = 8;

/// States by their two-bit code, the enum's declaration order (so a
/// state's code is `state as u32`).
const STATES: [CoherenceState; 4] = [
    CoherenceState::Invalid,
    CoherenceState::Shared,
    CoherenceState::Exclusive,
    CoherenceState::Modified,
];

fn state_of(meta: u32) -> CoherenceState {
    STATES[(meta & META_STATE) as usize]
}

fn prefetch_of(meta: u32) -> Option<RfoOrigin> {
    match (meta >> META_PREFETCH_SHIFT) & 0b111 {
        0 => None,
        i => Some(RfoOrigin::ALL[i as usize - 1]),
    }
}

/// The metadata byte of a freshly filled way (not yet used).
fn fill_meta(state: CoherenceState, prefetch: Option<RfoOrigin>) -> u32 {
    let dirty = if state == CoherenceState::Modified {
        META_DIRTY
    } else {
        0
    };
    let origin = prefetch.map_or(0, |o| o.index() as u32 + 1);
    state as u32 | dirty | (origin << META_PREFETCH_SHIFT)
}

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
/// does not model data values). See the [module docs](self) for the
/// layout.
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
    ways: usize,
    /// Words per set, a multiple of [`HOST_LINE_WORDS`].
    stride: usize,
    /// The word where set 0 starts: the first 64-byte-aligned word of
    /// `words` (a clone may land elsewhere, which costs alignment only).
    base: usize,
    /// Every set's tag, ready and recency words, set after set.
    words: Vec<u64>,
    lru_clock: u32,
    tag_checks: u64,
    /// When enabled, blocks whose checker-visible fields (tag, state,
    /// ready) changed since the log was last cleared, in write order.
    /// The invariant checker re-verifies exactly these blocks instead of
    /// sweeping every line (see `MemorySystem::check_invariants`).
    mutated: Vec<u64>,
    log_mutations: bool,
}

/// A mutable handle to one valid line, writing its set in place.
#[derive(Debug)]
pub struct LineMut<'a> {
    arr: &'a mut CacheArray,
    set: usize,
    way: usize,
}

impl LineMut<'_> {
    /// The block held by this line.
    pub fn block(&self) -> u64 {
        !self.arr.words[self.set + self.way]
    }

    /// The line's coherence state.
    pub fn state(&self) -> CoherenceState {
        state_of(self.arr.recency(self.set, self.way))
    }

    /// Rewrites the coherence state (e.g. an in-place upgrade to M).
    pub(crate) fn set_state(&mut self, state: CoherenceState) {
        debug_assert!(
            state != CoherenceState::Invalid,
            "invalidate lines via CacheArray::invalidate"
        );
        let rec = self.arr.recency(self.set, self.way);
        if state_of(rec) != state {
            let rec = (rec & !META_STATE) | state as u32;
            self.arr.set_recency(self.set, self.way, rec);
            let block = self.block();
            self.arr.log_mutation(block);
        }
    }

    /// The cycle the line's fill completes.
    pub fn ready(&self) -> u64 {
        self.arr.words[self.set + self.arr.ways + self.way]
    }

    /// Moves the fill-completion cycle (upgrade in flight).
    pub(crate) fn set_ready(&mut self, ready: u64) {
        let i = self.set + self.arr.ways + self.way;
        if self.arr.words[i] != ready {
            self.arr.words[i] = ready;
            let block = self.block();
            self.arr.log_mutation(block);
        }
    }

    /// Whether the line holds dirty data.
    pub fn dirty(&self) -> bool {
        self.arr.recency(self.set, self.way) & META_DIRTY != 0
    }

    /// Marks the line dirty (or clean).
    pub(crate) fn set_dirty(&mut self, dirty: bool) {
        let rec = self.arr.recency(self.set, self.way) & !META_DIRTY;
        let flag = if dirty { META_DIRTY } else { 0 };
        self.arr.set_recency(self.set, self.way, rec | flag);
    }

    /// The line's prefetch origin, if it was filled by a prefetch.
    pub fn prefetch(&self) -> Option<RfoOrigin> {
        prefetch_of(self.arr.recency(self.set, self.way))
    }

    /// Whether a demand access has touched the line since its fill.
    pub fn used(&self) -> bool {
        self.arr.recency(self.set, self.way) & META_USED != 0
    }

    /// Marks this line most recently used and demanded — the same effect
    /// as [`CacheArray::touch`] without paying a second tag search.
    pub fn touch(&mut self) {
        let stamp = self.arr.next_stamp();
        self.arr.stamp_used(self.set, self.way, stamp);
    }
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let ways = geometry.ways;
        let stride = (2 * ways + ways.div_ceil(2)).next_multiple_of(HOST_LINE_WORDS);
        // One spare host line's worth of words lets set 0 start on a
        // 64-byte boundary whatever the allocator returned.
        let words = vec![0u64; geometry.sets() * stride + HOST_LINE_WORDS - 1];
        let skew = (words.as_ptr() as usize / 8) % HOST_LINE_WORDS;
        Self {
            geometry,
            set_mask: geometry.set_mask(),
            ways,
            stride,
            base: (HOST_LINE_WORDS - skew) % HOST_LINE_WORDS,
            words,
            lru_clock: 0,
            tag_checks: 0,
            mutated: Vec::new(),
            log_mutations: false,
        }
    }

    /// Starts recording every block whose checker-visible fields change
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

    /// The first word of `block`'s set (the block's low `log2(sets)` bits).
    #[inline]
    fn set_start(&self, block: u64) -> usize {
        self.base + (block & self.set_mask) as usize * self.stride
    }

    /// `(set start, way)` holding `block`, if present and valid.
    #[inline]
    fn find(&self, block: u64) -> Option<(usize, usize)> {
        let set = self.set_start(block);
        self.words[set..set + self.ways]
            .iter()
            .position(|&t| t == !block)
            .map(|way| (set, way))
    }

    /// The recency word (stamp and metadata byte) of one way.
    #[inline]
    fn recency(&self, set: usize, way: usize) -> u32 {
        let word = self.words[set + 2 * self.ways + way / 2];
        (word >> (32 * (way % 2))) as u32
    }

    #[inline]
    fn set_recency(&mut self, set: usize, way: usize, rec: u32) {
        let shift = 32 * (way % 2);
        let word = &mut self.words[set + 2 * self.ways + way / 2];
        *word = (*word & !(0xffff_ffff << shift)) | (u64::from(rec) << shift);
    }

    /// Gives one way the stamp `stamp` and marks it used.
    #[inline]
    fn stamp_used(&mut self, set: usize, way: usize, stamp: u32) {
        let meta = self.recency(set, way) & ((1 << META_BITS) - 1);
        self.set_recency(set, way, (stamp << META_BITS) | meta | META_USED);
    }

    /// Advances the LRU clock and returns the new stamp, rebasing first
    /// if the clock is about to outgrow the stamp field.
    #[inline]
    fn next_stamp(&mut self) -> u32 {
        if self.lru_clock == STAMP_MAX {
            self.rebase_stamps();
        }
        self.lru_clock += 1;
        self.lru_clock
    }

    /// Rewrites every set's valid stamps as their ranks `1..=k` (oldest
    /// first) and restarts the clock at the largest possible rank. Only
    /// the order of stamps within a set is ever read, so every later
    /// victim choice is unchanged.
    #[cold]
    fn rebase_stamps(&mut self) {
        let mut ranked = Vec::with_capacity(self.ways);
        for i in 0..self.geometry.sets() {
            let set = self.base + i * self.stride;
            ranked.clear();
            ranked.extend(
                (0..self.ways)
                    .filter(|&w| self.words[set + w] != NO_TAG)
                    .map(|w| (self.recency(set, w) >> META_BITS, w)),
            );
            ranked.sort_unstable();
            for (rank, &(_, w)) in ranked.iter().enumerate() {
                let meta = self.recency(set, w) & ((1 << META_BITS) - 1);
                self.set_recency(set, w, ((rank as u32 + 1) << META_BITS) | meta);
            }
        }
        self.lru_clock = self.ways as u32;
    }

    /// Assembles the exchange-type view of one valid way.
    fn line(&self, set: usize, way: usize) -> CacheLine {
        let rec = self.recency(set, way);
        CacheLine {
            block: !self.words[set + way],
            state: state_of(rec),
            ready: self.words[set + self.ways + way],
            dirty: rec & META_DIRTY != 0,
            prefetch: prefetch_of(rec),
            used: rec & META_USED != 0,
        }
    }

    /// Looks up `block`, counting one tag check. Does **not** update LRU;
    /// use [`CacheArray::touch`] on a demand access.
    pub fn lookup(&mut self, block: u64) -> Option<LineMut<'_>> {
        self.tag_checks += 1;
        let (set, way) = self.find(block)?;
        Some(LineMut {
            arr: self,
            set,
            way,
        })
    }

    /// Pulls `block`'s whole set into the host cache without reading it:
    /// one load per 64-byte host line of the set (five for a 16-way
    /// set). A batch of `warm` calls across cache levels turns the miss
    /// path's chain of dependent random probes into independent,
    /// overlapping loads. Semantically a no-op.
    #[inline]
    pub fn warm(&self, block: u64) {
        let set = self.set_start(block);
        for word in self.words[set..set + self.stride]
            .iter()
            .step_by(HOST_LINE_WORDS)
        {
            std::hint::black_box(*word);
        }
    }

    /// Peeks at `block` without counting a tag check, returning a copy
    /// of the line's metadata.
    pub fn peek(&self, block: u64) -> Option<CacheLine> {
        self.find(block).map(|(set, way)| self.line(set, way))
    }

    /// `block`'s state and fill-completion cycle, if present — the only
    /// fields the invariant checker reads, without assembling a
    /// [`CacheLine`].
    pub(crate) fn peek_state(&self, block: u64) -> Option<(CoherenceState, u64)> {
        self.find(block).map(|(set, way)| {
            (
                state_of(self.recency(set, way)),
                self.words[set + self.ways + way],
            )
        })
    }

    /// Marks `block` as most recently used and demanded.
    pub fn touch(&mut self, block: u64) {
        let stamp = self.next_stamp();
        if let Some((set, way)) = self.find(block) {
            self.stamp_used(set, way, stamp);
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
        let set = self.set_start(block);
        // One pass over the set refuses a duplicate tag and picks the
        // victim: the first invalid way, else the (first) LRU way.
        let (mut invalid, mut lru) = (None, (0, u32::MAX));
        for (w, &tag) in self.words[set..set + self.ways].iter().enumerate() {
            assert!(tag != !block, "block {block:#x} inserted twice");
            if tag == NO_TAG {
                invalid.get_or_insert(w);
            } else {
                let stamp = self.recency(set, w) >> META_BITS;
                if stamp < lru.1 {
                    lru = (w, stamp);
                }
            }
        }
        let way = invalid.unwrap_or(lru.0);
        let stamp = self.next_stamp();
        let eviction = (self.words[set + way] != NO_TAG).then(|| {
            let old = self.recency(set, way);
            Eviction {
                block: !self.words[set + way],
                dirty: old & META_DIRTY != 0,
                unused_prefetch: prefetch_of(old).filter(|_| old & META_USED == 0),
            }
        });
        if let Some(ev) = &eviction {
            let evicted = ev.block;
            self.log_mutation(evicted);
        }
        self.log_mutation(block);
        self.words[set + way] = !block;
        self.words[set + self.ways + way] = ready;
        let rec = (stamp << META_BITS) | fill_meta(state, prefetch);
        self.set_recency(set, way, rec);
        eviction
    }

    /// Invalidates `block` (coherence invalidation or recall), returning
    /// the line it held.
    pub fn invalidate(&mut self, block: u64) -> Option<CacheLine> {
        let (set, way) = self.find(block)?;
        self.log_mutation(block);
        let old = self.line(set, way);
        self.words[set + way] = NO_TAG;
        self.words[set + self.ways + way] = 0;
        self.set_recency(set, way, 0);
        Some(old)
    }

    /// Downgrades `block` to `Shared` (remote read of an owned line),
    /// returning whether it was dirty.
    pub fn downgrade(&mut self, block: u64) -> Option<bool> {
        let (set, way) = self.find(block)?;
        let rec = self.recency(set, way);
        if state_of(rec) != CoherenceState::Shared {
            self.log_mutation(block);
        }
        let shared = (rec & !(META_STATE | META_DIRTY)) | CoherenceState::Shared as u32;
        self.set_recency(set, way, shared);
        Some(rec & META_DIRTY != 0)
    }

    /// `(set start, way)` of every valid way, in set order then way order.
    fn valid_ways(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.geometry.sets())
            .map(|i| self.base + i * self.stride)
            .flat_map(move |set| {
                (0..self.ways)
                    .filter(move |&w| self.words[set + w] != NO_TAG)
                    .map(move |w| (set, w))
            })
    }

    /// Number of valid lines (test/debug helper).
    pub fn valid_lines(&self) -> usize {
        self.valid_ways().count()
    }

    /// Iterates over all valid lines as assembled [`CacheLine`] copies,
    /// in set order then way order.
    pub fn iter_valid(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.valid_ways().map(|(set, way)| self.line(set, way))
    }

    /// Iterates `(block, state, ready)` of every valid line, in
    /// [`CacheArray::iter_valid`] order — the invariant checker's sweep.
    pub(crate) fn iter_valid_meta(&self) -> impl Iterator<Item = (u64, CoherenceState, u64)> + '_ {
        self.valid_ways().map(|(set, w)| {
            (
                !self.words[set + w],
                state_of(self.recency(set, w)),
                self.words[set + self.ways + w],
            )
        })
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

    /// A plain reference model of one array: a flat list of optional
    /// ways, each a [`CacheLine`] with an unbounded `u64` LRU stamp, and
    /// the replacement rule written out longhand.
    struct Model {
        sets: u64,
        ways: usize,
        lines: Vec<Option<(CacheLine, u64)>>,
        clock: u64,
        log: Vec<u64>,
    }

    impl Model {
        fn new(g: CacheGeometry) -> Self {
            Self {
                sets: g.sets() as u64,
                ways: g.ways,
                lines: vec![None; g.lines()],
                clock: 0,
                log: Vec::new(),
            }
        }

        fn set(&self, block: u64) -> std::ops::Range<usize> {
            let start = (block % self.sets) as usize * self.ways;
            start..start + self.ways
        }

        fn find(&self, block: u64) -> Option<usize> {
            self.set(block)
                .find(|&i| matches!(self.lines[i], Some((l, _)) if l.block == block))
        }

        fn line(&mut self, block: u64) -> Option<&mut CacheLine> {
            let i = self.find(block)?;
            self.lines[i].as_mut().map(|(l, _)| l)
        }

        fn touch(&mut self, block: u64) {
            self.clock += 1;
            if let Some(i) = self.find(block) {
                let (l, stamp) = self.lines[i].as_mut().unwrap();
                l.used = true;
                *stamp = self.clock;
            }
        }

        fn insert(
            &mut self,
            block: u64,
            state: CoherenceState,
            ready: u64,
            prefetch: Option<RfoOrigin>,
        ) -> Option<Eviction> {
            let set = self.set(block);
            let victim = set
                .clone()
                .find(|&i| self.lines[i].is_none())
                .or_else(|| set.min_by_key(|&i| self.lines[i].unwrap().1))
                .unwrap();
            self.clock += 1;
            let eviction = self.lines[victim].map(|(l, _)| Eviction {
                block: l.block,
                dirty: l.dirty,
                unused_prefetch: l.prefetch.filter(|_| !l.used),
            });
            if let Some(ev) = eviction {
                self.log.push(ev.block);
            }
            self.log.push(block);
            let line = CacheLine {
                block,
                state,
                ready,
                dirty: state == CoherenceState::Modified,
                prefetch,
                used: false,
            };
            self.lines[victim] = Some((line, self.clock));
            eviction
        }

        fn invalidate(&mut self, block: u64) -> Option<CacheLine> {
            let i = self.find(block)?;
            self.log.push(block);
            self.lines[i].take().map(|(l, _)| l)
        }

        fn downgrade(&mut self, block: u64) -> Option<bool> {
            let l = self.line(block)?;
            let (changed, dirty) = (l.state != CoherenceState::Shared, l.dirty);
            l.state = CoherenceState::Shared;
            l.dirty = false;
            if changed {
                self.log.push(block);
            }
            Some(dirty)
        }

        fn valid(&self) -> Vec<CacheLine> {
            self.lines.iter().flatten().map(|&(l, _)| l).collect()
        }
    }

    /// Runs `ops` seeded random operations on a `sets` × `ways` array and
    /// the reference model side by side, comparing every result, the
    /// touched block's line, the mutation log and the tag-check count
    /// after each operation and the whole `iter_valid` walk every 32.
    /// With `rebase_every`, the array's clock is pushed to the edge of
    /// the stamp field that often, so stamps are rebased many times.
    /// Returns the number of rebases seen.
    fn check_against_model(
        sets: usize,
        ways: usize,
        seed: u64,
        ops: u64,
        rebase_every: Option<u64>,
    ) -> u64 {
        use spb_stats::hash::mix64;
        const STATES: [CoherenceState; 3] = [
            CoherenceState::Shared,
            CoherenceState::Exclusive,
            CoherenceState::Modified,
        ];
        let g = CacheGeometry::new((sets * ways) as u64 * 64, ways);
        let mut arr = CacheArray::new(g);
        arr.enable_mutation_log();
        let mut model = Model::new(g);
        let mut rebases = 0;
        let mut lookups = 0;
        for step in 0..ops {
            let r = mix64(seed ^ step.wrapping_mul(0x2545_f491_4f6c_dd1d));
            // Three blocks per way compete for each set; bit 45 gives
            // some blocks high address bits.
            let block = (r % (3 * (sets * ways) as u64)) | ((r >> 20) & 1) << 45;
            let (state, ready) = (STATES[(r >> 24) as usize % 3], (r >> 32) % 1000);
            let prefetch = match (r >> 28) % 6 {
                i @ 0..=3 => Some(RfoOrigin::ALL[i as usize]),
                _ => None,
            };
            if rebase_every.is_some_and(|k| step % k == 0) {
                arr.lru_clock = arr.lru_clock.max(STAMP_MAX - 2);
            }
            let clock = arr.lru_clock;
            let ctx = format!("{sets}x{ways} seed {seed:#x} step {step} block {block:#x}");
            match (r >> 40) % 10 {
                0..=2 => {
                    if model.find(block).is_none() {
                        let ev = arr.insert(block, state, ready, prefetch);
                        assert_eq!(ev, model.insert(block, state, ready, prefetch), "{ctx}");
                    } else {
                        arr.touch(block);
                        model.touch(block);
                    }
                }
                3 => {
                    arr.touch(block);
                    model.touch(block);
                }
                4 => {
                    lookups += 1;
                    let hit = arr.lookup(block).map(|mut l| {
                        l.touch();
                        (l.block(), l.state(), l.ready(), l.dirty(), l.prefetch())
                    });
                    let want = model
                        .line(block)
                        .map(|l| (l.block, l.state, l.ready, l.dirty, l.prefetch));
                    assert_eq!(hit, want, "{ctx}");
                    if hit.is_some() {
                        model.touch(block);
                    }
                }
                5 => assert_eq!(arr.invalidate(block), model.invalidate(block), "{ctx}"),
                6 => assert_eq!(arr.downgrade(block), model.downgrade(block), "{ctx}"),
                7 => {
                    lookups += 1;
                    if let Some(mut l) = arr.lookup(block) {
                        l.set_state(state);
                        let m = model.line(block).unwrap();
                        let changed = m.state != state;
                        m.state = state;
                        if changed {
                            model.log.push(block);
                        }
                    }
                }
                8 => {
                    lookups += 1;
                    if let Some(mut l) = arr.lookup(block) {
                        l.set_ready(ready);
                        let m = model.line(block).unwrap();
                        let changed = m.ready != ready;
                        m.ready = ready;
                        if changed {
                            model.log.push(block);
                        }
                    }
                }
                _ => {
                    lookups += 1;
                    let dirty = r & 1 == 1;
                    if let Some(mut l) = arr.lookup(block) {
                        l.set_dirty(dirty);
                        model.line(block).unwrap().dirty = dirty;
                    }
                }
            }
            if arr.lru_clock < clock {
                rebases += 1;
            }
            assert_eq!(arr.peek(block), model.line(block).copied(), "{ctx}");
            assert_eq!(
                arr.peek_state(block),
                model.line(block).map(|l| (l.state, l.ready)),
                "{ctx}"
            );
            assert_eq!(arr.mutation_log(), &model.log[..], "{ctx}");
            assert_eq!(arr.tag_checks(), lookups, "{ctx}");
            if step % 32 == 31 {
                arr.clear_mutation_log();
                model.log.clear();
                let want = model.valid();
                assert_eq!(arr.iter_valid().collect::<Vec<_>>(), want, "{ctx}");
                let meta: Vec<_> = want.iter().map(|l| (l.block, l.state, l.ready)).collect();
                assert_eq!(arr.iter_valid_meta().collect::<Vec<_>>(), meta, "{ctx}");
                assert_eq!(arr.valid_lines(), want.len(), "{ctx}");
            }
        }
        rebases
    }

    /// The set-major array against the `u64`-stamp reference model over
    /// 2-, 8- and 16-way geometries: every eviction (block, dirtiness,
    /// unused prefetch), every line read back, the walk order and the
    /// mutation log agree operation by operation.
    #[test]
    fn cache_array_matches_the_reference_model() {
        for (sets, ways) in [(4, 2), (8, 8), (4, 16)] {
            for seed in 1..=3 {
                check_against_model(sets, ways, seed, 6_000, None);
            }
        }
    }

    /// As above with the clock forced to the edge of the 24-bit stamp
    /// field every 50 operations, so the order-preserving rebase runs
    /// over a hundred times mid-sequence and must not change a victim.
    #[test]
    fn lru_rebase_preserves_every_victim_choice() {
        for (sets, ways) in [(4, 2), (8, 8), (4, 16)] {
            let rebases = check_against_model(sets, ways, 7, 6_000, Some(50));
            assert!(rebases >= 100, "{sets}x{ways}: only {rebases} rebases");
        }
    }
}
