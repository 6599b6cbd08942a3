//! Wall-time snapshots of the quick SPEC grid, and snapshot comparison.
//!
//! Three modes:
//!
//! ```text
//! bench_snapshot --kernel tick|event|wheel --out BENCH_X.json [--samples N]
//! bench_snapshot --compare BENCH_BASELINE.json BENCH_NEW.json
//! bench_snapshot --gate BENCH_BASELINE.json BENCH_NEW.json
//! ```
//!
//! The first times every SPEC app under the quick budget (at-commit and
//! SPB policies, SB 14) through the public `Simulation` entry point and
//! writes an `spb-bench-v1` snapshot. `--compare` schema-validates both
//! files, prints the per-cell ratios and the geometric-mean speedup,
//! and warns — without failing — about cells that regressed more than
//! the tolerance; only a schema/parse problem exits non-zero. `--gate`
//! is the blocking variant CI uses: it exits 1 when any bench's
//! min-of-samples ratio regresses beyond the machine-calibrated limit (see
//! `BenchSnapshot::gate_failures`).

use spb_bench::snapshot::{
    record_quick_grid, BenchSnapshot, GATE_TOLERANCE, REGRESSION_TOLERANCE, SCHEMA,
};
use spb_sim::KernelMode;

fn usage() -> ! {
    eprintln!(
        "usage: bench_snapshot --kernel tick|event|wheel --out FILE [--samples N]\n       bench_snapshot --compare BASELINE NEW\n       bench_snapshot --gate BASELINE NEW"
    );
    std::process::exit(2);
}

/// The value after a flag; a missing one prints the usage.
fn value(args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| usage())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut kernel, mut out, mut samples, mut compare) = (None, None, 3usize, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--kernel" => kernel = Some(value(&mut args)),
            "--out" => out = Some(value(&mut args)),
            "--samples" => samples = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--compare" | "--gate" => {
                let (base, new) = (value(&mut args), value(&mut args));
                compare = Some((base, new, flag == "--gate"));
            }
            _ => usage(),
        }
    }

    if let Some((base_path, new_path, blocking)) = compare {
        compare_snapshots(&base_path, &new_path, blocking);
        return;
    }

    let (Some(kernel), Some(out)) = (kernel, out) else {
        usage()
    };
    let mode = KernelMode::parse(&kernel).unwrap_or_else(|e| {
        eprintln!("bench_snapshot: {e}");
        std::process::exit(2);
    });
    let snap = record_quick_grid(mode, samples, |rec| println!("{}", rec.to_json()));
    std::fs::write(&out, snap.to_json_string()).unwrap_or_else(|e| {
        eprintln!("bench_snapshot: writing {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote {out} ({} benches, kernel {kernel})",
        snap.records.len()
    );
}

/// Loads, validates, and diffs two snapshots. In advisory mode
/// (`--compare`) slowness never fails; in blocking mode (`--gate`)
/// calibrated min-sample regressions exit 1.
fn compare_snapshots(base_path: &str, new_path: &str, blocking: bool) {
    let load = |path: &str| -> BenchSnapshot {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_snapshot: reading {path}: {e}");
            std::process::exit(1);
        });
        BenchSnapshot::parse(&text).unwrap_or_else(|e| {
            eprintln!("bench_snapshot: {path} is not a valid {SCHEMA} snapshot: {e}");
            std::process::exit(1);
        })
    };
    let base = load(base_path);
    let new = load(new_path);
    println!(
        "comparing {} (kernel {}) -> {} (kernel {})",
        base_path, base.kernel, new_path, new.kernel
    );
    print!("{}", base.comparison(&new));
    if blocking {
        let report = base.gate_report(&new);
        println!(
            "bench gate: machine factor {:.3}, limit {:.3} ({}x tolerance)",
            report.machine, report.limit, GATE_TOLERANCE
        );
        // Every bench gets a verdict line, so a failing gate is
        // attributable to the exact app-policy cells that regressed
        // relative to their peers — not just a failure count.
        for b in &report.benches {
            println!(
                "bench gate: {:<4} {:<44} calibrated ratio {:.3}/{:.3}",
                if b.failed { "FAIL" } else { "ok" },
                b.name,
                b.ratio,
                report.limit
            );
        }
        for name in &report.missing {
            eprintln!("bench gate: FAIL {name}: missing from new snapshot");
        }
        if report.passed() {
            println!(
                "bench gate: PASS (no calibrated min-sample regression beyond {GATE_TOLERANCE}x)"
            );
        } else {
            let failed = report.missing.len() + report.benches.iter().filter(|b| b.failed).count();
            for f in base.gate_failures(&new) {
                eprintln!("bench gate: FAIL: {f}");
            }
            eprintln!("bench gate: {failed} benchmark(s) failed");
            std::process::exit(1);
        }
        return;
    }
    let warnings = base.regressions(&new);
    if warnings.is_empty() {
        println!("no regressions beyond {REGRESSION_TOLERANCE}x tolerance");
    } else {
        for w in &warnings {
            println!("warning: regression: {w}");
        }
        println!(
            "{} benchmark(s) regressed beyond {REGRESSION_TOLERANCE}x (non-blocking)",
            warnings.len()
        );
    }
}
