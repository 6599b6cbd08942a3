//! Throughput benchmarks for the simulator's hot kernels.
//!
//! These are the numbers that determine how much evaluation a wall-clock
//! budget buys: simulated µops per second through the full core + memory
//! stack, raw cache-array and detector operation rates, the burst
//! queue's drain cost, and how fast the trace layer supplies µops.

use spb_bench::harness::{Criterion, Throughput};
use spb_bench::{criterion_group, criterion_main};
use spb_core::{SpbDetector, SpbParams};
use spb_mem::cache::{CacheArray, CacheGeometry};
use spb_mem::line::CoherenceState;
use spb_mem::{MemoryConfig, MemorySystem};
use spb_sim::{KernelMode, SimConfig, Simulation};
use spb_trace::profile::AppProfile;
use spb_trace::{MicroOp, OpKind, TraceSource};
use std::hint::black_box;

fn kernels(c: &mut Criterion) {
    // Full-stack simulation throughput (µops/second) through the
    // public `Simulation` entry point — the same code path every
    // experiment takes — under each kernel. A hand-rolled
    // mem.tick/core.cycle loop here would silently drift from the real
    // runner (and did: it skipped warm-up and the invariant checker),
    // so instead the bench pins every kernel to the cycle count of a
    // reference `Simulation` run (made with the default kernel).
    // `dedup` runs eight cores over the shared hierarchy, the path
    // where per-core sleep does its skipping; its throughput counts the
    // µops of all eight.
    let mut g = c.benchmark_group("sim_throughput");
    const UOPS: u64 = 100_000;
    for name in ["x264", "povray", "dedup"] {
        let app = AppProfile::by_name(name).unwrap();
        g.throughput(Throughput::Elements(UOPS * u64::from(app.threads())));
        let mut cfg = SimConfig::quick();
        cfg.measure_uops = UOPS;
        let reference = Simulation::with_config(&app, &cfg).run_or_panic().cycles;
        for kernel in [KernelMode::Tick, KernelMode::Wheel] {
            let cfg = cfg.clone().with_kernel(kernel);
            g.bench_function(format!("{}_{name}", kernel.label()), |b| {
                b.iter(|| {
                    let r = Simulation::with_config(&app, &cfg).run_or_panic();
                    assert_eq!(
                        r.cycles,
                        reference,
                        "{name}: {} kernel diverged from the reference run",
                        kernel.label()
                    );
                    black_box(r.cycles)
                });
            });
        }
    }
    g.finish();

    // Trace supply: the same µops pulled through a boxed source (as the
    // core holds its trace) one `next_op` at a time, and in batches of
    // the core's µop-ring size through `fill`. The harness prints the
    // median cost per µop (ns/elem).
    let mut g = c.benchmark_group("trace_supply");
    const TRACE_UOPS: usize = 1_000_000;
    const BATCH: usize = 128;
    g.throughput(Throughput::Elements(TRACE_UOPS as u64));
    for name in ["x264", "bwaves", "mcf", "dedup"] {
        let app = AppProfile::by_name(name).unwrap();
        let source = || -> Box<dyn TraceSource> { Box::new(app.build(42)) };
        g.bench_function(format!("next_op_{name}"), |b| {
            b.iter(|| {
                let mut src = source();
                for _ in 0..TRACE_UOPS {
                    black_box(src.next_op());
                }
            });
        });
        g.bench_function(format!("fill_{name}"), |b| {
            b.iter(|| {
                let mut src = source();
                let mut ring = [MicroOp::new(OpKind::IntAlu { latency: 1 }, 0); BATCH];
                let mut n = 0;
                while n < TRACE_UOPS {
                    let want = BATCH.min(TRACE_UOPS - n);
                    n += src.fill(&mut ring[..want]);
                    black_box(&ring);
                }
            });
        });
    }
    g.finish();

    // SPB detector: pure observe throughput on a contiguous stream.
    let mut g = c.benchmark_group("spb_detector");
    const STORES: u64 = 1_000_000;
    g.throughput(Throughput::Elements(STORES));
    g.bench_function("observe_contiguous_stream", |b| {
        b.iter(|| {
            let mut d = SpbDetector::new(SpbParams::default());
            let mut triggers = 0u64;
            for i in 0..STORES {
                if d.observe_store(i * 8).is_some() {
                    triggers += 1;
                }
            }
            black_box(triggers)
        });
    });
    g.finish();

    // Cache array: lookup/insert mix at L1 geometry.
    let mut g = c.benchmark_group("cache_array");
    const OPS: u64 = 1_000_000;
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("l1_lookup_insert_mix", |b| {
        b.iter(|| {
            let mut l1 = CacheArray::new(CacheGeometry::new(32 * 1024, 8));
            let mut hits = 0u64;
            let mut x = 1234567u64;
            for _ in 0..OPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let block = x % 2048; // 4x the L1 capacity: plenty of misses
                if l1.lookup(block).is_some() {
                    hits += 1;
                    l1.touch(block);
                } else {
                    l1.insert(block, CoherenceState::Exclusive, 0, None);
                }
            }
            black_box(hits)
        });
    });
    g.finish();

    // Burst queue drain: enqueue a page burst and tick it dry.
    let mut g = c.benchmark_group("burst_queue");
    g.bench_function("enqueue_and_drain_page", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(MemoryConfig::default());
            mem.enqueue_burst(0, 0..64u64, 0);
            let mut now = 0;
            while mem.burst_queue_len(0) > 0 {
                mem.tick(now);
                now += 1;
            }
            black_box(now)
        });
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = kernels
}
criterion_main!(benches);
