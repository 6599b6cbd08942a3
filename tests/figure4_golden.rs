//! Golden test for the paper's Figure 4 running example (bottom half).
//!
//! Eight 64-bit stores fill block `0x00`, the ninth store touches block
//! `0x01`, the SPB detector (N = 8) fires and the L1 controller receives
//! a burst for the remaining blocks of the page. The per-cycle protocol
//! view must match the figure:
//!
//! - T0: demand store misses — `I -> IM: Getx`;
//! - T1..T7: per-store `WritePF` requests are discarded (`PopReq`)
//!   because the block is already being fetched with ownership;
//! - T8: the detector's registers read `Sat = 1 -> 0`, `St Count = 0`,
//!   and the burst issues `GetPFx` (`I -> PF_IM`) for blocks `0x080+`.

use store_prefetch_burst::mem::system::{RfoResponse, StoreDrainOutcome};
use store_prefetch_burst::mem::{MemoryConfig, MemorySystem, RfoOrigin};
use store_prefetch_burst::spb::detector::{Burst, SpbDetector};
use store_prefetch_burst::spb::SpbParams;

#[test]
fn figure4_protocol_sequence() {
    let mut mem = MemorySystem::new(MemoryConfig::default());
    let mut spb = SpbDetector::new(SpbParams::base(8, true));
    let pc = 0x400;

    // T0: the first store of the burst reaches the head of the SB and
    // misses: a demand GetX. (In the figure the at-commit WritePF and
    // the demand write race; the demand arrives first here.)
    let t0 = mem.store_drain(0, 0x000, 0);
    assert!(
        matches!(t0, StoreDrainOutcome::Retry { .. }),
        "T0 must miss (I -> IM)"
    );
    assert_eq!(spb.observe_store(0x000), None);

    // T1..T7: subsequent stores commit; their at-commit WritePF requests
    // find the block already in a transient-owned state and are popped.
    for (t, addr) in (1u64..=7).zip([0x008u64, 0x010, 0x018, 0x020, 0x028, 0x030, 0x038]) {
        let resp = mem.store_prefetch(0, addr, pc, t, RfoOrigin::AtCommit);
        assert_eq!(
            resp,
            RfoResponse::Discarded,
            "T{t}: WritePF must be PopReq'd"
        );
        assert_eq!(spb.observe_store(addr), None, "T{t}: no burst yet");
    }

    // T8: store 0x040 (block 1). The detector window closes: Sat hits 1,
    // meets the N/8 = 1 threshold, counters reset, and the burst covers
    // the rest of the page.
    let burst = spb.observe_store(0x040).expect("T8 generates the SPB");
    assert_eq!(
        burst,
        Burst {
            start: 2,
            end: 64,
            descending: false
        }
    );

    // The at-commit WritePF for 0x040 itself misses (GetPFx for block 1)…
    let resp = mem.store_prefetch(0, 0x040, pc, 8, RfoOrigin::AtCommit);
    assert_eq!(
        resp,
        RfoResponse::Issued,
        "T8: WritePF 0x040 issues (I -> PF_IM)"
    );

    // …and the burst floods the L1 controller with GetPFx requests for
    // blocks 0x080.. — all fresh ownership prefetches.
    mem.enqueue_burst(0, burst.blocks(), 0);
    let mut issued = 0;
    let mut now = 9;
    while mem.burst_queue_len(0) > 0 {
        mem.tick(now);
        now += 1;
    }
    mem.finalize_stats();
    issued += mem.stats().prefetch_downstream[RfoOrigin::SpbBurst.index()];
    assert_eq!(
        issued, 62,
        "all remaining page blocks fetched with ownership"
    );

    // Once everything lands, the drains hit: M-state writes, no misses.
    let done = 10_000;
    for addr in (0x000u64..0x200).step_by(8) {
        match mem.store_drain(0, addr, done) {
            StoreDrainOutcome::Performed { l1_hit } => assert!(l1_hit),
            other => panic!("store {addr:#x} should hit after the burst, got {other:?}"),
        }
    }
}

/// The figure's register table: Sat and St Count transitions at T8.
#[test]
fn figure4_register_transitions() {
    let mut spb = SpbDetector::new(SpbParams::base(8, true));
    for i in 0..8u64 {
        assert_eq!(spb.observe_store(i * 8), None);
    }
    // After T7 the count shows 8 (figure row T7).
    assert_eq!(spb.checks(), 0, "no window check yet");
    let burst = spb.observe_store(0x040);
    assert!(burst.is_some(), "T8 fires");
    assert_eq!(spb.checks(), 1);
    assert_eq!(spb.triggers(), 1);
}
