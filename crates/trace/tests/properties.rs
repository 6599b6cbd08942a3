//! Property-based tests for trace generation.

use proptest::prelude::*;
use spb_trace::generators::{
    ComputeGen, ComputeParams, GatherScatterGen, MemcpyGen, MemsetGen, StridedStoreGen,
};
use spb_trace::phased::{PhaseSpec, PhasedWorkload};
use spb_trace::profile::{AppCatalog, AppProfile};
use spb_trace::rng::TraceRng;
use spb_trace::{CodeRegion, MicroOp, OpKind, SquashConfig, SquashInjector, TraceSource};

fn drain(mut g: impl TraceSource, cap: usize) -> Vec<spb_trace::MicroOp> {
    let mut out = Vec::new();
    while let Some(op) = g.next_op() {
        out.push(op);
        if out.len() >= cap {
            break;
        }
    }
    out
}

proptest! {
    /// Memset covers exactly `bytes / 8` stores, each 8 bytes, strictly
    /// increasing addresses with stride 8, regardless of seed/base.
    #[test]
    fn memset_exact_coverage(base in (0u64..(1 << 30)).prop_map(|b| b * 8), kb in 1u64..16, seed in any::<u64>()) {
        let bytes = kb * 1024;
        let ops = drain(MemsetGen::new(base, bytes, CodeRegion::Memset, seed), 1 << 20);
        let mut stores: Vec<u64> = Vec::new();
        for o in &ops {
            if let OpKind::Store { addr, size } = o.kind() {
                prop_assert_eq!(size, 8);
                stores.push(addr);
            }
        }
        prop_assert_eq!(stores.len() as u64, bytes / 8);
        for (i, &a) in stores.iter().enumerate() {
            prop_assert_eq!(a, base + i as u64 * 8);
        }
    }

    /// Memcpy emits exactly one load per store and every store's first
    /// dependency is its load.
    #[test]
    fn memcpy_load_store_pairing(kb in 1u64..8, seed in any::<u64>()) {
        let bytes = kb * 1024;
        let ops = drain(
            MemcpyGen::new(0x10_0000, 0x20_0000, bytes, CodeRegion::Memcpy, seed),
            1 << 20,
        );
        let loads = ops.iter().filter(|o| o.kind().is_load()).count();
        let stores: Vec<_> = ops.iter().filter(|o| o.kind().is_store()).collect();
        prop_assert_eq!(loads, stores.len());
        for s in stores {
            prop_assert_eq!(s.deps()[0], 1);
        }
    }

    /// ComputeGen emits exactly `count` µops and is seed-deterministic.
    #[test]
    fn compute_deterministic(count in 1u64..5000, seed in any::<u64>()) {
        let params = ComputeParams { count, ..Default::default() };
        let a = drain(ComputeGen::new(params, seed), 1 << 20);
        let b = drain(ComputeGen::new(params, seed), 1 << 20);
        prop_assert_eq!(a.len() as u64, count);
        prop_assert_eq!(a, b);
    }

    /// Phased workloads never terminate and never emit ops with
    /// dependencies that point before the start of the stream.
    #[test]
    fn phased_workload_wellformed(seed in any::<u64>(), take in 100usize..5000) {
        let mut w = PhasedWorkload::new(
            vec![
                PhaseSpec::Memset { bytes: 1024, region: CodeRegion::Memset, footprint_pages: 64 },
                PhaseSpec::Compute(ComputeParams { count: 200, ..Default::default() }),
            ],
            seed,
        );
        for i in 0..take {
            let op = w.next_op();
            prop_assert!(op.is_some(), "workload ended at op {i}");
            let op = op.unwrap();
            for d in op.deps() {
                prop_assert!((d as usize) <= i + 1, "dep distance {d} at position {i}");
            }
        }
    }

    /// Thread separation: two threads of the same profile never touch
    /// the same private data page.
    #[test]
    fn threads_never_share_private_pages(seed in any::<u64>()) {
        let p = AppProfile::by_name("dedup").unwrap();
        let mut sources = p.build_threads(seed);
        let mut pages: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 2];
        for (t, src) in sources.iter_mut().take(2).enumerate() {
            for _ in 0..20_000 {
                if let Some(op) = src.next_op() {
                    if let Some(page) = op.page() {
                        pages[t].insert(page);
                    }
                }
            }
        }
        prop_assert!(pages[0].is_disjoint(&pages[1]));
    }
}

/// Squash off, then the two squash configurations the batch
/// equivalence property runs under.
fn squash_configs() -> [Option<SquashConfig>; 3] {
    [
        None,
        Some(SquashConfig::parse("rate=0.05,depth=4..24,storm=2,seed=9").unwrap()),
        Some(SquashConfig::parse("rate=0.3,depth=1..8,storm=1,ret2spec=on,seed=3").unwrap()),
    ]
}

/// Thread `thread` of `app` at `seed`, wrapped in the squash injector
/// when `squash` is set.
fn catalog_source(
    app: &AppProfile,
    seed: u64,
    thread: usize,
    squash: Option<SquashConfig>,
) -> Box<dyn TraceSource> {
    let src = app.build_threads(seed).swap_remove(thread);
    match squash {
        Some(cfg) => Box::new(SquashInjector::new(src, cfg, thread)),
        None => Box::new(src),
    }
}

/// Reads up to `len` µops from `src` in random-sized `fill` batches of
/// 1..=300 µops, with the odd single `next_op` mixed in; stops early
/// only when the source is exhausted (`fill` returned 0).
fn read_batched(src: &mut dyn TraceSource, len: usize, rng: &mut TraceRng) -> Vec<MicroOp> {
    let mut out = Vec::with_capacity(len.min(1 << 20));
    let mut batch = [MicroOp::new(OpKind::IntAlu { latency: 1 }, 0); 300];
    while out.len() < len {
        if rng.gen_range(0u64..8) == 0 {
            match src.next_op() {
                Some(op) => out.push(op),
                None => break,
            }
            continue;
        }
        let want = rng.gen_range(1usize..=300).min(len - out.len());
        let n = src.fill(&mut batch[..want]);
        assert!(n <= want, "fill wrote {n} µops into a {want}-µop slice");
        if n == 0 {
            break;
        }
        out.extend_from_slice(&batch[..n]);
    }
    out
}

/// One small phase of every [`PhaseSpec`] kind, sized by `size`.
fn small_phases(size: u64, shuffle: bool) -> [PhaseSpec; 8] {
    [
        PhaseSpec::Memcpy {
            bytes: size * 8,
            region: CodeRegion::Memcpy,
            footprint_pages: 64,
            shuffle,
        },
        PhaseSpec::Memset {
            bytes: size * 8,
            region: CodeRegion::Calloc,
            footprint_pages: 64,
        },
        PhaseSpec::ClearPages {
            pages: 1 + size % 3,
            footprint_pages: 64,
        },
        PhaseSpec::MultiStreamCopy {
            streams: 3,
            bytes_per_stream: size * 64,
            chunk_blocks: 1 + size % 4,
            footprint_pages: 64,
        },
        PhaseSpec::StrideLoads {
            count: size,
            stride: 24,
            fp: shuffle,
            footprint_pages: 64,
        },
        PhaseSpec::PointerChase {
            count: size,
            pool_pages: 4,
        },
        PhaseSpec::Compute(ComputeParams {
            count: size * 5,
            ..Default::default()
        }),
        PhaseSpec::SparseStores {
            count: size,
            footprint_pages: 16,
            gap: (size % 7) as u32,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The batch contract on every catalog stream: concatenated `fill`
    /// batches of random sizes (1..=300, mixed with single `next_op`s)
    /// reproduce the `next_op` stream exactly, for every application,
    /// every thread id, and squash off or under either squash config.
    /// Each case checks the first µops of all those streams, plus one
    /// randomly drawn stream long enough to cross several phase
    /// boundaries — over 200k µops per case in each part.
    #[test]
    fn fill_matches_next_op_on_every_catalog_stream(
        seed in any::<u64>(),
        batch_seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        const SHORT: usize = 1_000;
        const LONG: usize = 240_000;
        let catalog = AppCatalog::standard();
        let mut rng = TraceRng::seed_from_u64(batch_seed);
        let mut streams = Vec::new();
        for app in catalog.all() {
            for thread in 0..app.threads() as usize {
                for squash in squash_configs() {
                    streams.push((app, thread, squash));
                }
            }
        }
        let mut compared = 0;
        for &(app, thread, squash) in &streams {
            let single = drain(catalog_source(app, seed, thread, squash), SHORT);
            let batched =
                read_batched(&mut *catalog_source(app, seed, thread, squash), SHORT, &mut rng);
            prop_assert!(single == batched, "{} thread {thread} squash {squash:?}", app.name());
            compared += single.len();
        }
        prop_assert!(compared >= 200_000, "only {compared} µops compared");

        let (app, thread, squash) = streams[(pick % streams.len() as u64) as usize];
        let single = drain(catalog_source(app, seed, thread, squash), LONG);
        let batched = read_batched(&mut *catalog_source(app, seed, thread, squash), LONG, &mut rng);
        prop_assert_eq!(single.len(), LONG);
        prop_assert!(single == batched, "{} thread {thread} squash {squash:?}", app.name());
    }

    /// Finite generators honour the batch contract up to and past their
    /// end: random-sized batches reproduce the whole `next_op` stream,
    /// then `fill` reports exhaustion with 0. Covers every phase kind
    /// (through `PhaseSpec::build`) and the two generators no profile
    /// uses.
    #[test]
    fn fill_matches_next_op_to_exhaustion(
        seed in any::<u64>(),
        iteration in 0u64..64,
        thread in 0u32..8,
        size in 1u64..400,
        shuffle in any::<bool>(),
    ) {
        let mut rng = TraceRng::seed_from_u64(seed ^ size);
        type Pair = (Box<dyn TraceSource>, Box<dyn TraceSource>);
        let mut pairs: Vec<Pair> = small_phases(size, shuffle)
            .iter()
            .map(|spec| {
                let build = || spec.build(iteration, seed, thread);
                (Box::new(build()) as Box<dyn TraceSource>, Box::new(build()) as _)
            })
            .collect();
        pairs.push((
            Box::new(StridedStoreGen::new(0x1000, 72, size, seed)),
            Box::new(StridedStoreGen::new(0x1000, 72, size, seed)),
        ));
        pairs.push((
            Box::new(GatherScatterGen::new(0x10_0000, 64, 0x20_0000, 32, size, seed)),
            Box::new(GatherScatterGen::new(0x10_0000, 64, 0x20_0000, 32, size, seed)),
        ));
        for (i, (single, mut batched)) in pairs.into_iter().enumerate() {
            let a = drain(single, usize::MAX);
            let b = read_batched(&mut *batched, usize::MAX, &mut rng);
            prop_assert!(!a.is_empty());
            prop_assert!(a == b, "generator {i}: {} vs {} µops", a.len(), b.len());
            let mut spare = [MicroOp::new(OpKind::IntAlu { latency: 1 }, 0); 4];
            prop_assert_eq!(batched.fill(&mut spare), 0);
            prop_assert_eq!(batched.next_op(), None);
        }
    }
}
