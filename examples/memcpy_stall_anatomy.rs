//! Anatomy of SB-induced stalls in a memcpy loop.
//!
//! Builds a raw core + memory system by hand (no profiles, no runner) and
//! walks a single large `memcpy` through it, printing the Top-Down stall
//! breakdown, the Figure 3-style attribution of stalls to code regions,
//! and the SPB detector's own view of the store stream.
//!
//! ```sh
//! cargo run --release --example memcpy_stall_anatomy
//! ```

use store_prefetch_burst::cpu::{config::CoreConfig, core::Core, policy::AtCommitPolicy};
use store_prefetch_burst::mem::{MemoryConfig, MemorySystem};
use store_prefetch_burst::spb::{SpbDetector, SpbParams};
use store_prefetch_burst::stats::StallCause;
use store_prefetch_burst::trace::generators::MemcpyGen;
use store_prefetch_burst::trace::{CodeRegion, OpKind, TraceSource};

const COPY_BYTES: u64 = 64 * 1024;

fn main() {
    // --- 1. What does the SPB detector see in this store stream? -------
    let mut probe = MemcpyGen::new(0x1000_0000, 0x2000_0000, COPY_BYTES, CodeRegion::Memcpy, 7);
    let mut detector = SpbDetector::new(SpbParams::default());
    let mut bursts = Vec::new();
    while let Some(op) = probe.next_op() {
        if let OpKind::Store { addr, .. } = op.kind() {
            if let Some(b) = detector.observe_store(addr) {
                bursts.push(b);
            }
        }
    }
    println!("SPB detector over a {COPY_BYTES}-byte memcpy:");
    println!("  storage cost : {} bits", detector.storage_bits());
    println!("  window checks: {}", detector.checks());
    println!(
        "  page bursts  : {} (first covers blocks {:?})",
        bursts.len(),
        bursts.first()
    );

    // --- 2. How does the pipeline experience the same copy? ------------
    for sb in [56usize, 14] {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let trace = MemcpyGen::new(0x1000_0000, 0x2000_0000, COPY_BYTES, CodeRegion::Memcpy, 7);
        let cfg = CoreConfig::skylake().with_sb_entries(sb);
        let mut core = Core::new(0, cfg, Box::new(trace), Box::new(AtCommitPolicy::new()));
        let mut now = 0;
        while !core.is_drained() {
            mem.tick(now);
            core.cycle(&mut mem, now);
            now += 1;
        }
        let td = core.topdown();
        println!("\nmemcpy with at-commit, SB{sb}:");
        println!("  cycles       : {now}");
        println!("  IPC          : {:.3}", td.ipc());
        println!(
            "  SB stalls    : {} cycles ({:.1}% of cycles)",
            td.stall_cycles(StallCause::StoreBuffer),
            td.sb_stall_ratio() * 100.0
        );
        println!(
            "  stalls inside memcpy region: {}",
            core.stats().sb_stalls_in(CodeRegion::Memcpy)
        );
        println!(
            "  store prefetches — successful: {}, late: {} (at-commit RFOs issue at the end of a store's life)",
            mem.stats().prefetch_successful.iter().sum::<u64>(),
            mem.stats().prefetch_late.iter().sum::<u64>(),
        );
    }
}
