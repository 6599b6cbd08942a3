//! Tests of the detector extensions the paper discusses but does not
//! evaluate: backward bursts (§IV-A), cross-page bursts (footnote 2),
//! an explicit burst threshold and partial-page bursts. All of them are
//! knobs of the one [`SpbDetector`](crate::detector::SpbDetector) (see
//! its "Extension knobs" section); this module pins their behaviour,
//! checks that with every knob at its default the detector is the
//! paper's three-register rule, and that wrong-path stores run the
//! same rule as committed ones.

#[cfg(test)]
mod tests {
    use crate::detector::{Burst, SpbDetector, BLOCKS_PER_PAGE, BLOCK_BYTES};
    use crate::params::{SpbParams, BURST_RANGE, CROSS_RANGE, FRAC_MILLI_RANGE, N_RANGE};
    use crate::policy::SpbPolicy;
    use proptest::prelude::*;
    use spb_cpu::StorePrefetchPolicy;
    use spb_mem::{MemoryConfig, MemorySystem};
    use spb_obs::{Collector, EventKind};

    fn cfg(n: u32, backward: bool, cross: u32) -> SpbParams {
        SpbParams {
            backward,
            cross,
            ..SpbParams::base(n, false)
        }
    }

    /// The paper's three registers (last block, 4-bit saturating
    /// counter, store counter) plus the dedupe page register, written
    /// straight from §IV: delta 0 keeps the counter, +1 increments it,
    /// anything else clears it; the store after every `n` counted ones
    /// checks `sat >= max(1, n / 8)` and bursts the rest of the page.
    struct PaperModel {
        n: u32,
        dedupe: bool,
        last_block: u64,
        sat: u8,
        count: u32,
        burst_page: Option<u64>,
    }

    impl PaperModel {
        fn observe(&mut self, addr: u64) -> Option<Burst> {
            let block = addr / BLOCK_BYTES;
            self.sat = match block.wrapping_sub(self.last_block) {
                0 => self.sat,
                1 => (self.sat + 1).min(15),
                _ => 0,
            };
            self.last_block = block;
            if self.count < self.n {
                self.count += 1;
                return None;
            }
            let fired = u32::from(self.sat) >= (self.n / 8).clamp(1, 15);
            self.sat = 0;
            self.count = 0;
            let page = block / BLOCKS_PER_PAGE;
            let end = (page + 1) * BLOCKS_PER_PAGE;
            if !fired || block + 1 == end || (self.dedupe && self.burst_page == Some(page)) {
                return None;
            }
            self.burst_page = Some(page);
            Some(Burst {
                start: block + 1,
                end,
                descending: false,
            })
        }
    }

    /// Expands `(kind, len, salt)` segments into a committed-store
    /// address stream mixing +1, 0 and −1 block steps, far jumps and
    /// page crossings.
    fn store_stream(segs: &[(u64, u64, u64)]) -> Vec<u64> {
        let mut block = 1u64 << 20;
        let mut out = Vec::new();
        for &(kind, len, salt) in segs {
            match kind {
                // +1 block per store.
                0 => (0..len).for_each(|_| {
                    block += 1;
                    out.push(block * 64);
                }),
                // Memset: eight 8-byte stores per block, ascending.
                1 => (0..len).for_each(|_| {
                    block += 1;
                    out.extend((0..8).map(|s| block * 64 + s * 8));
                }),
                // Delta 0: shuffled stores within one block.
                2 => out.extend((0..len).map(|i| block * 64 + (salt >> (i % 21 * 3) & 7) * 8)),
                // −1 block per store.
                3 => (0..len).for_each(|_| {
                    block -= 1;
                    out.push(block * 64);
                }),
                // Stack-like: eight stores per block, descending.
                4 => (0..len).for_each(|_| {
                    block -= 1;
                    out.extend((0..8).rev().map(|s| block * 64 + s * 8));
                }),
                // A far jump.
                5 => {
                    block = (1 << 20) + salt % (1 << 24);
                    out.push(block * 64);
                }
                // Land on the page's last blocks, so a +1 run crosses it.
                6 => {
                    block = (block / 64 + 1) * 64 - 1 - salt % 2;
                    out.push(block * 64);
                }
                // Cross into the next page.
                _ => {
                    block = (block / 64 + 1) * 64 + salt % 2;
                    out.push(block * 64);
                }
            }
        }
        out
    }

    /// The `(cycle, page, blocks)` of every burst an [`SpbPolicy`] over
    /// `params` enqueues for `stores`, one store per cycle, fed as
    /// committed stores or as one unsquashed wrong-path run.
    fn policy_bursts(params: SpbParams, stores: &[u64], wrong_path: bool) -> Vec<(u64, u64, u32)> {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let collector = Collector::new();
        mem.set_observer(collector.observer());
        let mut spb = SpbPolicy::new(params);
        for (now, &addr) in (0u64..).zip(stores) {
            if wrong_path {
                spb.on_wrong_path_store(&mut mem, 0, addr, 8, 0x400, now);
            } else {
                spb.on_store_commit(&mut mem, 0, addr, 8, 0x400, now);
            }
        }
        collector
            .take()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::BurstDetected { page, blocks } => Some((e.cycle, page, blocks)),
                _ => None,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One rule on both paths: over the whole knob space (`burst =
        /// 0` is the auto rule), a store stream fed to a policy as
        /// committed stores and the same stream fed to another as
        /// wrong-path stores enqueue the same bursts.
        #[test]
        fn wrong_path_stores_run_the_committed_rule(
            n in N_RANGE.0..=N_RANGE.1,
            dedupe in any::<bool>(),
            burst in 0..=BURST_RANGE.1,
            frac_milli in FRAC_MILLI_RANGE.0..=FRAC_MILLI_RANGE.1,
            backward in any::<bool>(),
            cross in CROSS_RANGE.0..=CROSS_RANGE.1,
            segs in proptest::collection::vec((0u64..8, 1u64..160, any::<u64>()), 1..40),
        ) {
            let params = SpbParams { n, dedupe, burst, frac_milli, backward, cross };
            let stores = store_stream(&segs);
            let committed = policy_bursts(params, &stores, false);
            prop_assert_eq!(policy_bursts(params, &stores, true), committed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over the whole base space (any window, dedupe on or off) and
        /// streams of every step shape, the detector with its extension
        /// knobs at their defaults is the paper's three-register rule.
        #[test]
        fn forward_behaviour_matches_base_detector(
            n in 1u32..=1024,
            dedupe in any::<bool>(),
            segs in proptest::collection::vec((0u64..8, 1u64..160, any::<u64>()), 1..40),
        ) {
            let mut d = SpbDetector::new(SpbParams::base(n, dedupe));
            let mut model = PaperModel { n, dedupe, last_block: 0, sat: 0, count: 0, burst_page: None };
            let mut bursts = 0u64;
            for (i, addr) in store_stream(&segs).into_iter().enumerate() {
                let b = d.observe_store(addr);
                bursts += u64::from(b.is_some());
                prop_assert_eq!(b, model.observe(addr), "divergence at store {}", i);
            }
            prop_assert_eq!(d.triggers(), bursts);
        }
    }

    #[test]
    fn backward_run_triggers_descending_burst() {
        let mut d = SpbDetector::new(cfg(8, true, 0));
        let top = 0x10_0000u64 + 4096 - 8; // last qword of a page
        let mut bursts = Vec::new();
        for i in 0..512u64 {
            if let Some(b) = d.observe_store(top - i * 8) {
                bursts.push(b);
            }
        }
        assert!(!bursts.is_empty());
        let b = &bursts[0];
        assert!(b.descending);
        // Issue order goes from high blocks toward the page start.
        let blocks: Vec<u64> = b.blocks().collect();
        assert!(blocks.windows(2).all(|w| w[1] == w[0] - 1));
        // And never leaves the page.
        let page = blocks[0] / 64;
        assert!(blocks.iter().all(|blk| blk / 64 == page));
    }

    #[test]
    fn backward_disabled_never_triggers_on_descending_runs() {
        let mut d = SpbDetector::new(cfg(8, false, 0));
        let top = 0x10_0000u64 + 4096 - 8;
        for i in 0..512u64 {
            assert!(d.observe_store(top - i * 8).is_none());
        }
        assert_eq!(d.triggers(), 0);
    }

    #[test]
    fn direction_flip_resets_the_run() {
        let mut d = SpbDetector::new(cfg(48, true, 0));
        // Alternate up/down across blocks: each flip restarts at sat=1,
        // which never reaches the threshold of 6.
        let mut block = 1000u64;
        for i in 0..5_000u64 {
            block = if i % 2 == 0 { block + 1 } else { block - 1 };
            assert!(d.observe_store(block * 64).is_none());
        }
    }

    #[test]
    fn cross_page_extends_the_forward_burst() {
        let mut plain = SpbDetector::new(cfg(8, false, 0));
        let mut crossing = SpbDetector::new(cfg(8, false, 2));
        let mut plain_burst = None;
        let mut crossing_burst = None;
        for i in 0..512u64 {
            if let Some(b) = plain.observe_store(i * 8) {
                plain_burst.get_or_insert(b);
            }
            if let Some(b) = crossing.observe_store(i * 8) {
                crossing_burst.get_or_insert(b);
            }
        }
        let p = plain_burst.unwrap();
        let c = crossing_burst.unwrap();
        assert_eq!(p.start, c.start);
        assert_eq!(c.end - p.end, 2 * 64, "two extra pages");
    }

    #[test]
    fn storage_accounting_includes_direction_bit() {
        let without = SpbDetector::new(cfg(31, false, 0));
        let with = SpbDetector::new(cfg(31, true, 0));
        assert_eq!(without.storage_bits(), 67);
        assert_eq!(with.storage_bits(), 68);
    }

    #[test]
    fn explicit_threshold_overrides_the_auto_rule() {
        let auto = SpbDetector::new(cfg(48, false, 0));
        assert_eq!(auto.threshold(), 6, "48/8 auto rule");
        let forced = SpbDetector::new(SpbParams {
            burst: 3,
            ..cfg(48, false, 0)
        });
        assert_eq!(forced.threshold(), 3);
        // A run that covers only ~4 consecutive blocks per window fires
        // at threshold 3 but not at the auto threshold of 6.
        let run = |mut d: SpbDetector| {
            let mut triggers = 0u64;
            for i in 0..4096u64 {
                // 4 consecutive blocks, then a jump: sat peaks at 4.
                let block = (i / 4) * 1000 + (i % 4);
                if d.observe_store(block * 64).is_some() {
                    triggers += 1;
                }
            }
            triggers
        };
        assert_eq!(run(SpbDetector::new(cfg(48, false, 0))), 0);
        assert!(
            run(SpbDetector::new(SpbParams {
                burst: 3,
                ..cfg(48, false, 0)
            })) > 0
        );
    }

    #[test]
    fn frac_truncates_forward_bursts_keeping_nearest_blocks() {
        let full = SpbDetector::new(cfg(8, false, 0));
        let half = SpbDetector::new(SpbParams {
            frac_milli: 500,
            ..cfg(8, false, 0)
        });
        let first_burst = |mut d: SpbDetector| (0..512u64).find_map(|i| d.observe_store(i * 8));
        let f = first_burst(full).unwrap();
        let h = first_burst(half).unwrap();
        assert_eq!(f.start, h.start, "nearest blocks kept");
        assert_eq!(h.len(), f.len().div_ceil(2), "half the range, rounded up");
    }

    #[test]
    fn frac_default_is_bit_identical_to_full_page() {
        let mut a = SpbDetector::new(cfg(8, true, 1));
        let mut b = SpbDetector::new(SpbParams {
            frac_milli: 1000,
            ..cfg(8, true, 1)
        });
        for i in 0..4096u64 {
            let addr = if i % 512 < 256 {
                i * 8
            } else {
                (1 << 30) - i * 8
            };
            assert_eq!(a.observe_store(addr), b.observe_store(addr), "store {i}");
        }
    }

    #[test]
    fn frac_never_empties_a_nonempty_burst() {
        let mut d = SpbDetector::new(SpbParams {
            frac_milli: 1,
            ..cfg(8, false, 0)
        });
        for i in 0..4096u64 {
            if let Some(b) = d.observe_store(i * 8) {
                assert!(!b.is_empty());
            }
        }
    }

    #[test]
    fn backward_burst_at_page_start_is_empty_and_suppressed() {
        let mut d = SpbDetector::new(cfg(8, true, 0));
        // Descend and land the check exactly at the page's first block:
        // the remaining range is empty; the detector must return None
        // rather than an empty burst.
        for i in 0..20_000u64 {
            if let Some(b) = d.observe_store(0x100_0000 - i * 8) {
                assert!(!b.is_empty());
            }
        }
    }
}
