//! Generic L1 cache prefetchers.
//!
//! Three variants, matching the paper's comparisons:
//!
//! - [`PrefetcherKind::Stride`]: the baseline "stream prefetcher
//!   (stride)" of Table I — a PC-indexed stride table with a low degree.
//! - [`PrefetcherKind::Aggressive`]: the fixed aggressive configuration
//!   (high degree and distance) from Srinath et al.'s comparison point.
//! - [`PrefetcherKind::Adaptive`]: feedback-directed prefetching (FDP):
//!   aggressiveness moves up or down with measured prefetch accuracy.
//!
//! All variants train on *demand* L1 accesses (loads and stores) and
//! emit candidate block addresses; the memory system decides state
//! (read vs ownership) and issues them. As the paper's §III-A explains,
//! none of these can cover a store burst: their window is anchored to
//! recent demand accesses, so at best they run a fixed distance ahead.

/// Which generic prefetcher the L1 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefetcherKind {
    /// No generic prefetcher.
    None,
    /// Baseline stride/stream prefetcher (degree 1).
    #[default]
    Stride,
    /// Fixed aggressive prefetcher (degree 4, distance 4).
    Aggressive,
    /// Feedback-directed adaptive prefetcher (degree 1..=4).
    Adaptive,
    /// Page-footprint spatial prefetcher (stealth/SMS class, §VII-A).
    Spatial,
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: u64,
    last_block: u64,
    stride: i64,
    confidence: u8,
}

/// Aggressiveness level: (degree, distance) in blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Aggressiveness {
    /// Blocks prefetched per trigger.
    pub degree: u32,
    /// How far ahead (in strides) the first prefetch lands.
    pub distance: u32,
}

/// FDP accuracy thresholds (from the feedback-directed prefetching
/// scheme: accuracy above the high threshold increases aggressiveness,
/// below the low threshold decreases it).
const FDP_HIGH_ACCURACY: f64 = 0.75;
const FDP_LOW_ACCURACY: f64 = 0.40;
/// FDP evaluates feedback every this many issued prefetches.
const FDP_WINDOW: u64 = 256;

/// The PC-indexed stride prefetcher with optional feedback throttling.
///
/// # Examples
///
/// ```
/// use spb_mem::prefetch::{Prefetcher, PrefetcherKind};
///
/// let mut p = Prefetcher::new(PrefetcherKind::Stride);
/// let mut out = Vec::new();
/// // Train a +1 block stride at one PC.
/// for b in 0..4u64 {
///     out.clear();
///     p.train(0x400, b, &mut out);
/// }
/// assert!(out.contains(&4), "after training, the next block is prefetched");
/// ```
#[derive(Debug, Clone)]
pub struct Prefetcher {
    kind: PrefetcherKind,
    table: Vec<StrideEntry>,
    spatial: Option<SpatialPrefetcher>,
    aggressiveness: Aggressiveness,
    // FDP feedback state.
    issued_window: u64,
    useful_window: u64,
    level_idx: usize,
}

/// FDP's aggressiveness ladder.
const FDP_LEVELS: [Aggressiveness; 4] = [
    Aggressiveness {
        degree: 1,
        distance: 1,
    },
    Aggressiveness {
        degree: 2,
        distance: 2,
    },
    Aggressiveness {
        degree: 3,
        distance: 3,
    },
    Aggressiveness {
        degree: 4,
        distance: 4,
    },
];

impl Prefetcher {
    /// Creates a prefetcher of the given kind with a 256-entry table.
    pub fn new(kind: PrefetcherKind) -> Self {
        let aggressiveness = match kind {
            PrefetcherKind::None | PrefetcherKind::Stride | PrefetcherKind::Spatial => {
                Aggressiveness {
                    degree: 1,
                    distance: 1,
                }
            }
            PrefetcherKind::Aggressive => Aggressiveness {
                degree: 4,
                distance: 4,
            },
            PrefetcherKind::Adaptive => FDP_LEVELS[1],
        };
        Self {
            kind,
            spatial: (kind == PrefetcherKind::Spatial).then(SpatialPrefetcher::new),
            table: vec![StrideEntry::default(); 256],
            aggressiveness,
            issued_window: 0,
            useful_window: 0,
            level_idx: 1,
        }
    }

    /// Reports that a previously prefetched block was used by a demand
    /// access (FDP accuracy feedback).
    pub(crate) fn feedback_useful(&mut self) {
        self.useful_window += 1;
    }

    /// Trains on a demand access to `block` from `pc`; pushes candidate
    /// prefetch block addresses into `out`.
    pub fn train(&mut self, pc: u64, block: u64, out: &mut Vec<u64>) {
        if self.kind == PrefetcherKind::None {
            return;
        }
        if let Some(spatial) = &mut self.spatial {
            spatial.train(block, out);
            return;
        }
        let idx = (pc as usize ^ (pc >> 8) as usize) % self.table.len();
        let e = &mut self.table[idx];
        if e.pc != pc {
            *e = StrideEntry {
                pc,
                last_block: block,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        let delta = block as i64 - e.last_block as i64;
        if delta == 0 {
            // Same block (e.g. successive 8-byte stores): no retrain.
            return;
        }
        if delta == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.stride = delta;
            e.confidence = 0;
        }
        e.last_block = block;
        if e.confidence >= 2 {
            let before = out.len();
            let Aggressiveness { degree, distance } = self.aggressiveness;
            for k in 0..degree as i64 {
                let target = block as i64 + e.stride * (distance as i64 + k);
                if target >= 0 {
                    out.push(target as u64);
                }
            }
            self.issued_window += (out.len() - before) as u64;
            self.maybe_adapt();
        }
    }

    fn maybe_adapt(&mut self) {
        if self.kind != PrefetcherKind::Adaptive || self.issued_window < FDP_WINDOW {
            return;
        }
        let accuracy = self.useful_window as f64 / self.issued_window as f64;
        if accuracy >= FDP_HIGH_ACCURACY {
            self.level_idx = (self.level_idx + 1).min(FDP_LEVELS.len() - 1);
        } else if accuracy < FDP_LOW_ACCURACY {
            self.level_idx = self.level_idx.saturating_sub(1);
        }
        self.aggressiveness = FDP_LEVELS[self.level_idx];
        self.issued_window = 0;
        self.useful_window = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_stream(
        p: &mut Prefetcher,
        pc: u64,
        blocks: impl IntoIterator<Item = u64>,
    ) -> Vec<u64> {
        let mut all = Vec::new();
        for b in blocks {
            p.train(pc, b, &mut all);
        }
        all
    }

    #[test]
    fn none_kind_never_prefetches() {
        let mut p = Prefetcher::new(PrefetcherKind::None);
        let out = train_stream(&mut p, 0x1, 0..100);
        assert!(out.is_empty());
    }

    #[test]
    fn stride_learns_unit_stride() {
        let mut p = Prefetcher::new(PrefetcherKind::Stride);
        let out = train_stream(&mut p, 0x10, 0..6);
        assert!(out.contains(&4));
        assert!(out.contains(&5));
    }

    #[test]
    fn stride_learns_negative_stride() {
        let mut p = Prefetcher::new(PrefetcherKind::Stride);
        let out = train_stream(&mut p, 0x10, [100u64, 98, 96, 94, 92]);
        assert!(out.contains(&90), "out: {out:?}");
    }

    #[test]
    fn same_block_accesses_do_not_disturb_training() {
        let mut p = Prefetcher::new(PrefetcherKind::Stride);
        // 8 stores per block, as in a store burst.
        let seq = [0u64, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3];
        let out = train_stream(&mut p, 0x20, seq);
        assert!(out.contains(&4), "out: {out:?}");
    }

    #[test]
    fn aggressive_issues_degree_four() {
        let mut p = Prefetcher::new(PrefetcherKind::Aggressive);
        let mut out = Vec::new();
        for b in 0..4u64 {
            out.clear();
            p.train(0x30, b, &mut out);
        }
        assert_eq!(out.len(), 4);
        assert!(out.contains(&7)); // distance 4 + degree up to 4 from block 3
    }

    #[test]
    fn pc_conflict_resets_entry() {
        let mut p = Prefetcher::new(PrefetcherKind::Stride);
        let _ = train_stream(&mut p, 0x10, 0..6);
        // A different PC hashing elsewhere must not inherit training.
        let mut out = Vec::new();
        p.train(0x11, 100, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn adaptive_ramps_up_with_good_feedback() {
        let mut p = Prefetcher::new(PrefetcherKind::Adaptive);
        let start = p.aggressiveness.degree;
        // Every issued prefetch is useful.
        let mut out = Vec::new();
        for b in 0..2000u64 {
            out.clear();
            p.train(0x40, b, &mut out);
            for _ in 0..out.len() {
                p.feedback_useful();
            }
        }
        assert!(p.aggressiveness.degree > start);
    }

    #[test]
    fn adaptive_throttles_down_with_bad_feedback() {
        let mut p = Prefetcher::new(PrefetcherKind::Adaptive);
        let mut out = Vec::new();
        for b in 0..2000u64 {
            out.clear();
            p.train(0x40, b, &mut out);
            // no feedback_useful: accuracy 0
        }
        assert_eq!(p.aggressiveness.degree, 1);
    }
}

// ---------------------------------------------------------------------------
// Spatial (page-footprint) prefetcher
// ---------------------------------------------------------------------------

/// A page-learning spatial prefetcher (the §VII-A comparison class:
/// stealth prefetching / spatial pattern prediction).
///
/// It records which blocks of a page were touched during a *generation*
/// (first access until the page's tracking slot is recycled) and, when
/// the same page is accessed again in a later generation, prefetches
/// the recorded footprint at once.
///
/// The paper's argument against this class for store bursts: a
/// `memcpy`/`clear_page` page is typically written **once** in the whole
/// program, so there is no second access to replay the footprint on —
/// the `spatial` experiment demonstrates exactly that, while the same
/// prefetcher does help re-referenced footprints.
#[derive(Debug, Clone)]
pub(crate) struct SpatialPrefetcher {
    /// Active generations: (page, footprint bitvec), small FIFO.
    active: Vec<(u64, u64)>,
    /// Learned footprints: direct-mapped by page, (page, bitvec).
    pht: Vec<(u64, u64)>,
}

impl Default for SpatialPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl SpatialPrefetcher {
    /// Creates the prefetcher with a 32-generation active table and a
    /// 1024-entry pattern history table.
    pub fn new() -> Self {
        Self {
            active: Vec::with_capacity(32),
            pht: vec![(u64::MAX, 0); 1024],
        }
    }

    fn pht_slot(&self, page: u64) -> usize {
        (page as usize) % self.pht.len()
    }

    /// Trains on a demand access to `block`; pushes absolute block
    /// candidates into `out` when a learned footprint replays.
    pub fn train(&mut self, block: u64, out: &mut Vec<u64>) {
        let page = block / 64;
        let offset = block % 64;
        if let Some((_, fp)) = self.active.iter_mut().find(|(p, _)| *p == page) {
            *fp |= 1 << offset;
            return;
        }
        // First access of a new generation for this page.
        let slot = self.pht_slot(page);
        let (learned_page, learned_fp) = self.pht[slot];
        if learned_page == page && learned_fp != 0 {
            // Replay the learned footprint (minus the trigger block).
            for off in 0..64u64 {
                if off != offset && learned_fp & (1 << off) != 0 {
                    out.push(page * 64 + off);
                }
            }
        }
        // Start tracking; recycle the oldest generation into the PHT.
        if self.active.len() == 32 {
            let (old_page, old_fp) = self.active.remove(0);
            let slot = self.pht_slot(old_page);
            self.pht[slot] = (old_page, old_fp);
        }
        self.active.push((page, 1 << offset));
    }
}

#[cfg(test)]
mod spatial_tests {
    use super::*;

    fn touch_page(p: &mut SpatialPrefetcher, page: u64, offsets: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &off in offsets {
            p.train(page * 64 + off, &mut out);
        }
        out
    }

    /// Churns the active table so `page`'s generation retires to the PHT.
    fn retire_generations(p: &mut SpatialPrefetcher) {
        for filler in 10_000..10_040u64 {
            let _ = touch_page(p, filler, &[0]);
        }
    }

    #[test]
    fn replays_learned_footprint_on_reaccess() {
        let mut p = SpatialPrefetcher::new();
        let _ = touch_page(&mut p, 5, &[3, 7, 10]);
        retire_generations(&mut p);
        let out = touch_page(&mut p, 5, &[3]);
        let mut expect = vec![5 * 64 + 7, 5 * 64 + 10];
        expect.sort_unstable();
        let mut got = out.clone();
        got.sort_unstable();
        assert_eq!(got, expect, "footprint minus the trigger block");
    }

    #[test]
    fn one_shot_pages_never_replay() {
        let mut p = SpatialPrefetcher::new();
        // Touch 1000 distinct pages once each (a store burst's life).
        for page in 0..1000u64 {
            let out = touch_page(&mut p, page, &[0, 1, 2, 3]);
            assert!(out.is_empty(), "page {page} replayed without reuse");
        }
    }

    #[test]
    fn footprint_accumulates_within_a_generation() {
        let mut p = SpatialPrefetcher::new();
        let _ = touch_page(&mut p, 9, &[0, 0, 1, 1, 2]);
        retire_generations(&mut p);
        let out = touch_page(&mut p, 9, &[0]);
        assert_eq!(out.len(), 2, "offsets 1 and 2 replay");
    }

    #[test]
    fn pht_conflicts_evict_older_pages() {
        let mut p = SpatialPrefetcher::new();
        let _ = touch_page(&mut p, 5, &[1]);
        retire_generations(&mut p);
        // Page 5 + 1024 maps to the same PHT slot.
        let _ = touch_page(&mut p, 5 + 1024, &[2]);
        retire_generations(&mut p);
        let out = touch_page(&mut p, 5, &[1]);
        assert!(
            out.is_empty(),
            "conflicting page must have evicted the footprint"
        );
    }
}
