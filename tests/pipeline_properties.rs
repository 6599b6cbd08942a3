//! Cross-crate property tests: the core + memory pipeline as a whole.

use proptest::prelude::*;
use store_prefetch_burst::cpu::policy::{AtCommitPolicy, NoPolicy};
use store_prefetch_burst::cpu::{config::CoreConfig, core::Core};
use store_prefetch_burst::mem::{MemoryConfig, MemorySystem};
use store_prefetch_burst::spb::SpbPolicy;
use store_prefetch_burst::trace::generators::{ComputeGen, ComputeParams};
use store_prefetch_burst::trace::phased::{PhaseSpec, PhasedWorkload};
use store_prefetch_burst::trace::CodeRegion;

fn workload(seed: u64, burst_bytes: u64) -> PhasedWorkload {
    PhasedWorkload::new(
        vec![
            PhaseSpec::Compute(ComputeParams {
                count: 2000,
                ..Default::default()
            }),
            PhaseSpec::Memset {
                bytes: burst_bytes,
                region: CodeRegion::Memset,
                footprint_pages: 1 << 12,
            },
            PhaseSpec::SparseStores {
                count: 100,
                footprint_pages: 4,
                gap: 5,
            },
        ],
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pipeline conserves µops: committed stores/loads/branches are
    /// each bounded by what the trace generated, IPC never exceeds the
    /// machine width, and SB occupancy never exceeds the configured SB.
    #[test]
    fn pipeline_conservation(seed in any::<u64>(), sb in 8usize..64, burst_kb in 1u64..8) {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let cfg = CoreConfig::skylake().with_sb_entries(sb);
        let mut core = Core::new(0, cfg, Box::new(workload(seed, burst_kb * 1024)), Box::new(NoPolicy::new()));
        let mut now = 0;
        let mut max_occ = 0;
        while core.committed_uops() < 30_000 {
            mem.tick(now);
            core.cycle(&mut mem, now);
            max_occ = max_occ.max(core.sb_occupancy());
            now += 1;
        }
        prop_assert!(max_occ <= sb, "SB occupancy {max_occ} exceeded {sb}");
        let ipc = core.committed_uops() as f64 / now as f64;
        prop_assert!(ipc <= f64::from(core.config().commit_width) + 1e-9);
        let td = core.topdown();
        prop_assert!(td.total_stall_cycles() <= td.cycles());
    }

    /// Memory-system conservation: performed stores equal the stores the
    /// core drained; every load is serviced at some level (hits plus
    /// per-level services add up to the demand loads).
    #[test]
    fn memory_accounting_identities(seed in any::<u64>()) {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let cfg = CoreConfig::skylake();
        let mut core = Core::new(0, cfg, Box::new(workload(seed, 4096)), Box::new(AtCommitPolicy::new()));
        let mut now = 0;
        while core.committed_uops() < 30_000 {
            mem.tick(now);
            core.cycle(&mut mem, now);
            now += 1;
        }
        let m = mem.stats();
        let serviced = m.load_l1_hits + m.load_l2_hits + m.load_l3_hits + m.load_remote_hits + m.load_dram;
        // Hit-under-fill loads are L1-serviced but counted as neither
        // hits nor misses at lower levels, so serviced ≤ loads.
        prop_assert!(serviced <= m.loads, "serviced {} > loads {}", serviced, m.loads);
        prop_assert!(m.stores_performed <= core.stats().committed_stores);
        prop_assert!(m.store_l1_ready_hits <= m.stores_performed);
    }

    /// SPB never loses to at-commit by more than noise on any workload
    /// from this family, and its burst traffic is bounded by pages
    /// actually touched.
    #[test]
    fn spb_never_catastrophic(seed in any::<u64>(), burst_kb in 1u64..8) {
        let run = |policy: Box<dyn store_prefetch_burst::cpu::StorePrefetchPolicy + Send>| {
            let mut mem = MemorySystem::new(MemoryConfig::default());
            let cfg = CoreConfig::skylake().with_sb_entries(14);
            let mut core = Core::new(0, cfg, Box::new(workload(seed, burst_kb * 1024)), policy);
            let mut now = 0;
            while core.committed_uops() < 40_000 {
                mem.tick(now);
                core.cycle(&mut mem, now);
                now += 1;
            }
            now
        };
        let at_commit = run(Box::new(AtCommitPolicy::new()));
        let spb = run(Box::<SpbPolicy>::default());
        prop_assert!(
            (spb as f64) < 1.05 * at_commit as f64,
            "SPB regressed: {spb} vs {at_commit}"
        );
    }

    /// Determinism across the whole stack: identical seeds and configs
    /// give identical cycle counts and identical counter values.
    #[test]
    fn full_stack_determinism(seed in any::<u64>()) {
        let run = || {
            let mut mem = MemorySystem::new(MemoryConfig::default());
            let mut core = Core::new(
                0,
                CoreConfig::skylake(),
                Box::new(workload(seed, 2048)),
                Box::<SpbPolicy>::default(),
            );
            let cycles = core.run_until_committed(&mut mem, 20_000);
            mem.finalize_stats();
            (cycles, core.topdown().clone(), mem.stats().clone())
        };
        let (c1, td1, m1) = run();
        let (c2, td2, m2) = run();
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(td1, td2);
        prop_assert_eq!(m1, m2);
    }

    /// A pure compute trace never touches memory: zero loads, zero
    /// stores, zero prefetch traffic — SPB included.
    #[test]
    fn compute_only_is_memory_silent(seed in any::<u64>()) {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let trace = ComputeGen::new(ComputeParams { count: 10_000, ..Default::default() }, seed);
        let mut core = Core::new(
            0,
            CoreConfig::skylake(),
            Box::new(trace),
            Box::<SpbPolicy>::default(),
        );
        let _ = core.run_until_committed(&mut mem, 10_000);
        prop_assert_eq!(mem.stats().loads, 0);
        prop_assert_eq!(mem.stats().stores_performed, 0);
        prop_assert_eq!(mem.stats().total_prefetch_requests(), 0);
    }
}
