//! Ablation timings for hot-path work: full run vs checker-off vs pure
//! trace generation. Dev tool; not part of CI.

use spb_sim::{PolicyKind, SimConfig, Simulation};
use spb_trace::profile::AppProfile;
use spb_trace::TraceSource;
use std::time::Instant;

fn main() {
    for name in ["x264", "gcc", "mcf", "omnetpp", "xalancbmk"] {
        let app = AppProfile::by_name(name).unwrap();
        for (plabel, policy) in [
            ("at-commit", PolicyKind::AtCommit),
            ("spb", PolicyKind::spb_default()),
        ] {
            let cfg = SimConfig::quick().with_sb(14).with_policy(policy);
            let mut nochk = cfg.clone();
            nochk.mem.checker_interval = 0;
            nochk.watchdog_cycles = 0;

            let t0 = Instant::now();
            let r = Simulation::with_config(&app, &cfg).run_or_panic();
            let full = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            let r2 = Simulation::with_config(&app, &nochk).run_or_panic();
            let off = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(r.cycles, r2.cycles);

            // Pure trace generation for the same number of committed ops.
            let mut trace = app.build(cfg.seed);
            let t0 = Instant::now();
            let mut n = 0u64;
            let total = r.uops + r.per_core.iter().map(|c| c.warmup_uops).sum::<u64>();
            while n < total {
                if trace.next_op().is_none() {
                    break;
                }
                n += 1;
            }
            let gen = t0.elapsed().as_secs_f64() * 1e3;

            println!(
                "{name:10} {plabel:9}  cycles {:>9}  full {full:8.2}ms  checker-off {off:8.2}ms  ({:4.1}% checker)  tracegen {gen:6.2}ms ({:4.1}%)",
                r.cycles,
                (full - off) / full * 100.0,
                gen / full * 100.0
            );
        }
    }
}
