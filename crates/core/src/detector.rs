//! The SPB burst detector (§IV of the paper).

use crate::params::SpbParams;

/// Cache-block size assumed by the detector, in bytes.
pub const BLOCK_BYTES: u64 = 64;
/// Blocks per page. Note this is *also* 64 — a coincidence of the 64 B
/// block / 4 KiB page geometry, not a shared constant: dividing a byte
/// address by [`BLOCK_BYTES`] yields a block, dividing a *block* by
/// `BLOCKS_PER_PAGE` yields a page.
pub const BLOCKS_PER_PAGE: u64 = 64;
/// Page size assumed by the detector, in bytes (4 KiB).
pub const PAGE_BYTES: u64 = BLOCK_BYTES * BLOCKS_PER_PAGE;
/// The saturating counter is 4 bits wide (paper, §IV-A).
pub(crate) const SAT_MAX: u8 = 15;

/// A burst request: a half-open range `[start, end)` of *block*
/// addresses the L1 controller should request write permission for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Burst {
    /// First block of the range.
    pub start: u64,
    /// One past the last block of the range.
    pub end: u64,
    /// Issue from `end - 1` down to `start` (a backward burst wants
    /// the blocks nearest the triggering store first).
    pub descending: bool,
}

impl Burst {
    /// Number of blocks in the burst.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the burst is empty (never returned by the detector).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Iterates the block addresses in the burst, in issue order.
    pub fn blocks(&self) -> impl Iterator<Item = u64> {
        let Burst {
            start,
            end,
            descending,
        } = *self;
        (start..end).map(move |b| if descending { start + end - 1 - b } else { b })
    }

    /// The `frac_milli`/1000 of the burst nearest the triggering store
    /// (its first blocks in issue order), rounded up so a non-empty
    /// burst keeps at least one block; `1000` keeps it whole.
    pub(crate) fn nearest(self, frac_milli: u64) -> Burst {
        let keep = (self.len() * frac_milli).div_ceil(1000);
        let (start, end) = if self.descending {
            (self.end - keep, self.end)
        } else {
            (self.start, self.start + keep)
        };
        Burst { start, end, ..self }
    }
}

/// The 67-bit Store-Prefetch Burst detector.
///
/// State: `last_block` (58 bits), a 4-bit saturating counter of +1 block
/// transitions, and a store counter (5 bits in the paper; this
/// implementation sizes it as `ceil(log2(n + 1))` bits because the
/// paper's preferred `N = 48` does not fit in 5 bits — see DESIGN.md).
///
/// Per committed store: compute the block-address delta to the previous
/// committed store. Delta 0 (same block, e.g. 8-byte stores filling a
/// line in any intra-block order) leaves the counter alone; delta +1
/// increments it; anything else resets it. Every `n` stores, if the
/// counter reached `n / 8`, the pattern is a contiguous store burst and
/// the detector requests the rest of the page.
///
/// # Extension knobs
///
/// [`SpbParams`] also carries the knobs the paper discusses but does
/// not evaluate; at their defaults the detector is exactly the paper's.
///
/// - **Backward bursts** (§IV-A: "relatively simple for SPB to prefetch
///   backward store bursts … we found no evidence that backward store
///   bursts cause SB stalls"). One direction bit: a −1 block step
///   counts like a +1 step, a step against the current direction
///   restarts the run at 1, and a descending run bursts from the
///   triggering block down to the page start.
/// - **Cross-page bursts** (footnote 2): forward bursts extend `cross`
///   pages past the page boundary — only sound for virtually-indexed
///   prefetching, since consecutive virtual pages need not be
///   physically consecutive.
/// - An explicit threshold (`burst`) instead of the `n / 8` rule, and a
///   page fraction (`frac_milli`) that keeps the blocks nearest the
///   triggering store.
///
/// # Examples
///
/// ```
/// use spb_core::{SpbDetector, SpbParams};
///
/// let mut d = SpbDetector::new(SpbParams::default());
/// let mut bursts = 0;
/// for i in 0..1024u64 {
///     if d.observe_store(0x10_000 + i * 8).is_some() {
///         bursts += 1;
///     }
/// }
/// assert!(bursts >= 1, "a long memset must trigger");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpbDetector {
    params: SpbParams,
    threshold: u8,
    last_block: u64,
    sat: u8,
    descending: bool,
    count: u32,
    last_burst_page: Option<u64>,
    triggers: u64,
    checks: u64,
}

impl SpbDetector {
    /// Creates a detector over the full parameter space
    /// ([`SpbParams::default`] is the paper's).
    ///
    /// # Panics
    ///
    /// Panics if `params.n` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use spb_core::{SpbDetector, SpbParams};
    ///
    /// let mut d = SpbDetector::new(SpbParams {
    ///     backward: true,
    ///     ..SpbParams::base(8, false)
    /// });
    /// // A descending stack-like store run…
    /// let top = 0x8000u64;
    /// let burst = (0..512u64)
    ///     .find_map(|i| d.observe_store(top - i * 8))
    ///     .expect("backward pattern detected");
    /// assert!(burst.descending);
    /// ```
    pub fn new(params: SpbParams) -> Self {
        assert!(params.n > 0, "the check window must be positive");
        let threshold = if params.burst > 0 {
            params.burst.min(SAT_MAX)
        } else {
            ((params.n / 8).max(1) as u8).min(SAT_MAX)
        };
        Self {
            params,
            threshold,
            last_block: 0,
            sat: 0,
            descending: false,
            count: 0,
            last_burst_page: None,
            triggers: 0,
            checks: 0,
        }
    }

    /// The threshold the saturating counter is checked against: an
    /// explicit `burst` override, else `max(1, n / 8)` for 8-byte
    /// stores.
    pub fn threshold(&self) -> u8 {
        self.threshold
    }

    /// Number of window checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of bursts triggered.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Modelled storage cost in bits: 58 (last block) + 4 (saturating
    /// counter) + `ceil(log2(n+1))` (store counter), plus 52 for the
    /// optional last-burst-page register. The extension knobs cost one
    /// direction bit (backward), a 4-bit threshold register and a
    /// 10-bit page-fraction register when enabled.
    ///
    /// For `n ≤ 31` and no dedupe register this is the paper's 67 bits.
    pub fn storage_bits(&self) -> u32 {
        let p = &self.params;
        let count_bits = 32 - p.n.leading_zeros();
        58 + 4
            + count_bits
            + if p.dedupe { 52 } else { 0 }
            + if p.backward { 1 } else { 0 }
            + if p.burst > 0 { 4 } else { 0 }
            + if p.frac_milli != 1000 { 10 } else { 0 }
    }

    /// Observes a committed store to byte address `addr`; returns a
    /// [`Burst`] when the contiguous pattern is detected.
    ///
    /// # Window cadence
    ///
    /// The store counter counts `n` stores and the **next** store
    /// performs the check (Figure 4: with `n = 8`, T0–T7 count up and
    /// T8 both checks and fires). The checking store updates the
    /// saturating counter first, is itself *not* counted, and resets
    /// both counters — so exactly one check happens per `n + 1`
    /// observations. The edge case `n = 1` therefore checks on every
    /// second store, not on every store.
    pub fn observe_store(&mut self, addr: u64) -> Option<Burst> {
        self.observe(addr, self.threshold)
    }

    /// [`SpbDetector::observe_store`] against a caller-chosen threshold
    /// (the §IV-C store-size rule of `spb-dynamic`).
    pub(crate) fn observe(&mut self, addr: u64, threshold: u8) -> Option<Burst> {
        let block = addr / BLOCK_BYTES;
        let delta = block.wrapping_sub(self.last_block);
        if delta == 1 || (delta == u64::MAX && self.params.backward) {
            let descending = delta != 1;
            self.sat = if descending == self.descending {
                (self.sat + 1).min(SAT_MAX)
            } else {
                1
            };
            self.descending = descending;
        } else if delta != 0 {
            self.sat = 0;
        }
        self.last_block = block;

        if self.count == self.params.n {
            self.checks += 1;
            let fired = self.sat >= threshold;
            self.sat = 0;
            self.count = 0;
            if fired {
                return self.make_burst(block);
            }
        } else {
            self.count += 1;
        }
        None
    }

    fn make_burst(&mut self, block: u64) -> Option<Burst> {
        let page = block / BLOCKS_PER_PAGE;
        if self.params.dedupe && self.last_burst_page == Some(page) {
            return None;
        }
        let burst = if self.descending {
            // [page start, triggering block), issued downward.
            Burst {
                start: page * BLOCKS_PER_PAGE,
                end: block,
                descending: true,
            }
        } else {
            Burst {
                start: block + 1,
                end: (page + 1 + u64::from(self.params.cross)) * BLOCKS_PER_PAGE,
                descending: false,
            }
        };
        if burst.is_empty() {
            return None;
        }
        let burst = burst.nearest(u64::from(self.params.frac_milli));
        self.last_burst_page = Some(page);
        self.triggers += 1;
        Some(burst)
    }

    /// Resets all dynamic state (e.g. on a context switch; the policy
    /// resets its wrong-path detector at every squash).
    pub fn reset(&mut self) {
        self.last_block = 0;
        self.sat = 0;
        self.descending = false;
        self.count = 0;
        self.last_burst_page = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 4 running example, register for register: eight 64-bit
    /// stores fill block 0x00, the ninth touches block 0x01, and at T8
    /// the check fires a burst for the rest of the page.
    #[test]
    fn figure4_running_example() {
        let mut d = SpbDetector::new(SpbParams::base(8, true));
        // T0..T7: stores 0x000..0x038. Deltas all 0: counter stays 0.
        for i in 0..8u64 {
            assert_eq!(d.observe_store(i * 8), None, "T{i} must not trigger");
            assert_eq!(d.sat, 0);
        }
        assert_eq!(d.count, 8, "St Count = 8 after T7");
        // T8: store 0x040 (block 1). Delta 1: Sat -> 1; window check
        // fires (1 >= 8/8), counters reset, burst covers blocks 2..64.
        let burst = d.observe_store(0x40).expect("T8 generates the SPB");
        assert_eq!(d.sat, 0, "Sat = 1 -> 0");
        assert_eq!(d.count, 0, "St Count = 0");
        assert_eq!(
            burst,
            Burst {
                start: 2,
                end: 64,
                descending: false
            }
        );
        assert_eq!(burst.len(), 62);
    }

    #[test]
    fn threshold_is_n_over_8() {
        assert_eq!(SpbDetector::new(SpbParams::base(48, true)).threshold(), 6);
        assert_eq!(SpbDetector::new(SpbParams::base(24, true)).threshold(), 3);
        assert_eq!(SpbDetector::new(SpbParams::base(8, true)).threshold(), 1);
        assert_eq!(SpbDetector::new(SpbParams::base(4, true)).threshold(), 1);
    }

    #[test]
    fn paper_storage_is_67_bits_for_5bit_counter() {
        // With n <= 31 the store counter fits in 5 bits: 58 + 4 + 5 = 67.
        let d = SpbDetector::new(SpbParams::base(31, false));
        assert_eq!(d.storage_bits(), 67);
        // The paper's preferred n = 48 needs a 6-bit counter.
        let d48 = SpbDetector::new(SpbParams::base(48, false));
        assert_eq!(d48.storage_bits(), 68);
    }

    #[test]
    fn default_n_is_48_per_sensitivity_analysis() {
        assert_eq!(SpbParams::default().n, 48);
    }

    #[test]
    fn sparse_stores_never_trigger() {
        let mut d = SpbDetector::new(SpbParams::default());
        let mut x = 99u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            assert_eq!(d.observe_store((x % (1 << 30)) & !7), None);
        }
        assert_eq!(d.triggers(), 0);
    }

    #[test]
    fn intra_block_shuffle_still_triggers() {
        // Stores cover blocks in order but each block's 8 stores are
        // permuted: deltas are 0 within a block and +1 across blocks.
        let mut d = SpbDetector::new(SpbParams::default());
        let perm = [3u64, 0, 7, 1, 6, 2, 5, 4];
        let mut triggered = false;
        for blk in 0..64u64 {
            for &slot in &perm {
                if d.observe_store(blk * 64 + slot * 8).is_some() {
                    triggered = true;
                }
            }
        }
        assert!(
            triggered,
            "block-level contiguity must be detected through shuffle"
        );
    }

    #[test]
    fn cross_block_interleave_resets_counter() {
        // Alternating stores between two far-apart streams: deltas are
        // huge, the counter must never advance.
        let mut d = SpbDetector::new(SpbParams::default());
        for i in 0..2_000u64 {
            let addr = if i % 2 == 0 {
                i / 2 * 8
            } else {
                0x4000_0000 + i / 2 * 8
            };
            assert_eq!(d.observe_store(addr), None);
        }
        assert_eq!(d.triggers(), 0);
    }

    #[test]
    fn burst_never_crosses_page_boundary() {
        let mut d = SpbDetector::new(SpbParams::base(8, false));
        let mut max_end_block = 0u64;
        for i in 0..4096u64 {
            if let Some(b) = d.observe_store(0x7000 + i * 8) {
                assert_eq!(
                    (b.end - 1) / BLOCKS_PER_PAGE,
                    b.start / BLOCKS_PER_PAGE,
                    "burst {b:?} crosses a page"
                );
                max_end_block = max_end_block.max(b.end);
            }
        }
        assert!(max_end_block > 0, "something must have triggered");
    }

    /// Regression for the historical proptest shrink to `n = 1`: the
    /// smallest window must follow the same check-every-`n + 1` cadence
    /// and page-bounded burst invariant as every other window size.
    #[test]
    fn n1_window_checks_every_second_store() {
        let mut d = SpbDetector::new(SpbParams::base(1, false));
        for i in 0..1000u64 {
            if let Some(b) = d.observe_store(i * 8) {
                assert!(!b.is_empty());
                assert_eq!(b.start / BLOCKS_PER_PAGE, (b.end - 1) / BLOCKS_PER_PAGE);
                assert_eq!(b.end % BLOCKS_PER_PAGE, 0);
            }
        }
        // 1000 observations = 500 full (count + check) windows.
        assert_eq!(d.checks(), 500);
        assert!(d.triggers() <= d.checks());
        assert!(d.triggers() > 0, "a contiguous stream must trigger at n=1");
    }

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(PAGE_BYTES, 4096);
        assert_eq!(PAGE_BYTES, BLOCK_BYTES * BLOCKS_PER_PAGE);
    }

    #[test]
    fn dedupe_suppresses_repeat_bursts_in_page() {
        let run = |dedupe: bool| {
            let mut d = SpbDetector::new(SpbParams::base(8, dedupe));
            let mut count = 0;
            for i in 0..512u64 {
                if d.observe_store(i * 8).is_some() {
                    count += 1;
                }
            }
            count
        };
        assert_eq!(run(true), 1, "one burst per page with dedupe");
        assert!(run(false) > 1, "repeated triggers without dedupe");
    }

    #[test]
    fn fresh_page_bursts_again_after_dedupe() {
        let mut d = SpbDetector::new(SpbParams::base(8, true));
        let mut bursts = 0;
        for page in 0..4u64 {
            for i in 0..512u64 {
                if d.observe_store(page * 4096 + i * 8).is_some() {
                    bursts += 1;
                }
            }
        }
        assert_eq!(bursts, 4, "each new page gets its own burst");
    }

    #[test]
    fn trigger_at_page_end_yields_nothing() {
        let mut d = SpbDetector::new(SpbParams::base(8, false));
        // Walk the tail of a page so the check lands on the last block.
        let mut got_empty_burst = false;
        for i in 0..512u64 {
            if let Some(b) = d.observe_store(i * 8) {
                if b.is_empty() {
                    got_empty_burst = true;
                }
            }
        }
        assert!(
            !got_empty_burst,
            "the detector must never emit empty bursts"
        );
    }

    #[test]
    fn saturating_counter_stays_in_4_bits() {
        let mut d = SpbDetector::new(SpbParams::base(1_000_000, true));
        // 1M+ consecutive-block stores without a window check: the
        // counter must saturate at 15, not overflow.
        for i in 0..100_000u64 {
            let _ = d.observe_store(i * 64); // one store per block: all +1 deltas
            assert!(d.sat <= SAT_MAX);
        }
        assert_eq!(d.sat, SAT_MAX);
    }

    #[test]
    fn reset_clears_dynamic_state() {
        let mut d = SpbDetector::new(SpbParams::base(8, true));
        for i in 0..12u64 {
            let _ = d.observe_store(i * 8);
        }
        d.reset();
        assert_eq!(d.count, 0);
        assert_eq!(d.sat, 0);
        assert_eq!(d.last_burst_page, None);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_n_panics() {
        let _ = SpbDetector::new(SpbParams::base(0, true));
    }
}
