//! Runs the full figure grid (ideal SB + {at-execute, at-commit, SPB} ×
//! {SB14, SB28, SB56} over SPEC CPU 2017) as one flattened sweep and
//! writes the machine-readable JSON report under `results/`.
//!
//! Pass --quick for the smoke budget. SPB_JOBS controls the worker
//! pool; the final line prints the wall time, so
//! `SPB_JOBS=1 sweep_report --quick` vs `SPB_JOBS=4 sweep_report
//! --quick` measures the executor's parallel speedup.
use spb_experiments as exp;
use spb_sim::sweep::SweepOptions;
use std::time::Instant;

fn main() {
    let budget = exp::Budget::from_args();
    let opts = SweepOptions::from_env().progress(true);
    let label = budget.label();
    let start = Instant::now();
    let grid = exp::Evaluation::new(budget, opts).grid(spb_trace::profile::AppProfile::spec2017());
    let wall = start.elapsed().as_secs_f64();
    let report = grid.to_report(format!("sweep-grid-{label}"));
    match report.save(std::path::Path::new("results")) {
        Ok(path) => println!("wrote {} ({} runs)", path.display(), report.records.len()),
        Err(e) => {
            eprintln!("could not write sweep report: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "grid sweep ({label}): {} cells in {wall:.2}s with {} jobs",
        report.records.len(),
        opts.jobs
    );
}
