//! SPB's selectivity: the detector must fire on exactly the patterns
//! the paper targets and stay silent on everything else — including
//! store streams that *look* regular but are not bursts.

use store_prefetch_burst::spb::{SpbDetector, SpbParams};
use store_prefetch_burst::trace::generators::{
    GatherScatterGen, MemcpyGen, MemsetGen, StridedStoreGen,
};
use store_prefetch_burst::trace::{CodeRegion, OpKind, TraceSource};

fn triggers_on(mut source: impl TraceSource) -> u64 {
    let mut d = SpbDetector::new(SpbParams::default());
    while let Some(op) = source.next_op() {
        if let OpKind::Store { addr, .. } = op.kind() {
            let _ = d.observe_store(addr);
        }
    }
    d.triggers()
}

#[test]
fn fires_on_memset_and_memcpy() {
    assert!(triggers_on(MemsetGen::new(0x10_0000, 64 * 1024, CodeRegion::Memset, 1)) > 0);
    assert!(
        triggers_on(MemcpyGen::new(
            0x10_0000,
            0x80_0000,
            64 * 1024,
            CodeRegion::Memcpy,
            1
        )) > 0
    );
}

#[test]
fn fires_on_shuffled_copies_too() {
    // Compiler-shuffled unrolled copies keep block contiguity: SPB's
    // whole reason for detecting at block rather than address level.
    let g = MemcpyGen::new(0x10_0000, 0x80_0000, 64 * 1024, CodeRegion::Memcpy, 1)
        .with_intra_block_shuffle();
    assert!(triggers_on(g) > 0);
}

#[test]
fn silent_on_page_strided_stores() {
    // Matrix-transpose column writes: stride 4 KiB. Block deltas are 64,
    // never +1 — zero bursts.
    assert_eq!(
        triggers_on(StridedStoreGen::new(0x10_0000, 4096, 50_000, 1)),
        0
    );
}

#[test]
fn fires_on_block_strided_stores() {
    // Stride exactly one block: every store opens the next block. The
    // deltas are +1, so this *is* a (sparse) forward run — SPB fires,
    // and usefully so: each prefetched block will receive its store.
    assert!(triggers_on(StridedStoreGen::new(0x10_0000, 64, 50_000, 1)) > 0);
}

#[test]
fn silent_on_two_block_strided_stores() {
    // Stride two blocks: deltas of +2 reset the counter.
    assert_eq!(
        triggers_on(StridedStoreGen::new(0x10_0000, 128, 50_000, 1)),
        0
    );
}

#[test]
fn silent_on_gather_scatter() {
    let g = GatherScatterGen::new(0x10_0000, 1 << 14, 0x400_0000, 1 << 14, 50_000, 1);
    assert_eq!(triggers_on(g), 0);
}

#[test]
fn spb_does_not_slow_down_gather_scatter() {
    use store_prefetch_burst::cpu::policy::AtCommitPolicy;
    use store_prefetch_burst::cpu::{config::CoreConfig, core::Core};
    use store_prefetch_burst::mem::{MemoryConfig, MemorySystem};
    use store_prefetch_burst::spb::SpbPolicy;

    let run = |policy: Box<dyn store_prefetch_burst::cpu::StorePrefetchPolicy + Send>| {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let trace = GatherScatterGen::new(0x10_0000, 1 << 12, 0x400_0000, 1 << 12, 20_000, 3);
        let mut core = Core::new(
            0,
            CoreConfig::skylake().with_sb_entries(14),
            Box::new(trace),
            policy,
        );
        core.run_until_committed(&mut mem, 50_000)
    };
    let at_commit = run(Box::new(AtCommitPolicy::new()));
    let spb = run(Box::<SpbPolicy>::default());
    assert_eq!(
        spb, at_commit,
        "with zero triggers, SPB must be cycle-identical to at-commit"
    );
}
