//! Property-based tests for the SPB detector.

use proptest::prelude::*;
use spb_core::detector::{SpbDetector, BLOCKS_PER_PAGE};
use spb_core::{SpbParams, SpbPolicy};
use spb_cpu::StorePrefetchPolicy;
use spb_mem::{MemoryConfig, MemorySystem};

proptest! {
    /// No burst ever crosses a 4 KiB page boundary, and bursts are never
    /// empty, for any address stream and any window size.
    #[test]
    fn bursts_stay_within_pages(
        n in 1u32..64,
        addrs in proptest::collection::vec(0u64..(1 << 30), 1..2000),
    ) {
        let mut d = SpbDetector::new(SpbParams::base(n, false));
        for addr in addrs {
            if let Some(b) = d.observe_store(addr) {
                prop_assert!(!b.is_empty());
                // start/end are *block* addresses: page = block / BLOCKS_PER_PAGE.
                prop_assert_eq!(
                    b.start / BLOCKS_PER_PAGE,
                    (b.end - 1) / BLOCKS_PER_PAGE,
                    "burst {:?} crosses a page", b
                );
                prop_assert!(b.end % BLOCKS_PER_PAGE == 0, "burst must end at the page boundary");
            }
        }
    }

    /// The detector's trigger count never exceeds its check count, and
    /// checks happen exactly every N+1 observations.
    #[test]
    fn checks_follow_the_window(n in 1u32..64, count in 1usize..4000) {
        let mut d = SpbDetector::new(SpbParams::base(n, false));
        for i in 0..count as u64 {
            let _ = d.observe_store(i * 8);
        }
        prop_assert!(d.triggers() <= d.checks());
        prop_assert_eq!(d.checks(), count as u64 / (u64::from(n) + 1));
    }

    /// A purely contiguous 8-byte store stream triggers for every
    /// sensible window (the pattern SPB is built for), while a stream of
    /// stores that never leaves one block cannot trigger.
    #[test]
    fn contiguous_triggers_same_block_does_not(n in 8u32..49) {
        let mut contiguous = SpbDetector::new(SpbParams::base(n, false));
        let mut fired = false;
        for i in 0..20_000u64 {
            fired |= contiguous.observe_store(i * 8).is_some();
        }
        prop_assert!(fired, "contiguous stream must trigger for n={n}");

        let mut same_block = SpbDetector::new(SpbParams::base(n, false));
        for i in 0..20_000u64 {
            prop_assert_eq!(same_block.observe_store((i % 8) * 8), None);
        }
    }

    /// Dedupe only ever removes bursts; it never creates new ones and
    /// never changes which pages are covered first.
    #[test]
    fn dedupe_is_a_filter(addrs in proptest::collection::vec(0u64..(1 << 20), 1..2000)) {
        let mut plain = SpbDetector::new(SpbParams::base(8, false));
        let mut deduped = SpbDetector::new(SpbParams::base(8, true));
        let mut plain_bursts = Vec::new();
        let mut deduped_bursts = Vec::new();
        for &addr in &addrs {
            if let Some(b) = plain.observe_store(addr) {
                plain_bursts.push(b);
            }
            if let Some(b) = deduped.observe_store(addr) {
                deduped_bursts.push(b);
            }
        }
        prop_assert!(deduped_bursts.len() <= plain_bursts.len());
        // Every deduped burst appears in the plain stream too.
        for b in &deduped_bursts {
            prop_assert!(plain_bursts.contains(b), "dedupe invented burst {b:?}");
        }
    }

    /// Storage accounting: the counter width grows as log2 of N and the
    /// paper's 67-bit figure holds exactly for N ≤ 31 without dedupe.
    #[test]
    fn storage_bits_accounting(n in 1u32..1024) {
        let d = SpbDetector::new(SpbParams::base(n, false));
        let count_bits = 32 - n.leading_zeros();
        prop_assert_eq!(d.storage_bits(), 58 + 4 + count_bits);
        // The paper's 67-bit figure corresponds to a 5-bit store counter
        // (windows of 16..=31 stores).
        if (16..=31).contains(&n) {
            prop_assert_eq!(d.storage_bits(), 67);
        }
    }

    /// The dynamic variant degenerates to the plain policy when all
    /// stores are 8 bytes: the same bursts reach the L1 controller
    /// after every store.
    #[test]
    fn dynamic_matches_plain_for_8_byte_stores(
        addrs in proptest::collection::vec(0u64..(1 << 20), 1..1500),
    ) {
        let mut plain_mem = MemorySystem::new(MemoryConfig::default());
        let mut dynamic_mem = MemorySystem::new(MemoryConfig::default());
        let mut plain = SpbPolicy::new(SpbParams::base(16, true));
        let mut dynamic = SpbPolicy::dynamic(16);
        for (i, &addr) in addrs.iter().enumerate() {
            plain.on_store_commit(&mut plain_mem, 0, addr, 8, 0x400, i as u64);
            dynamic.on_store_commit(&mut dynamic_mem, 0, addr, 8, 0x400, i as u64);
            prop_assert_eq!(plain_mem.burst_queue_len(0), dynamic_mem.burst_queue_len(0));
        }
        prop_assert_eq!(plain.detector(), dynamic.detector());
    }
}
