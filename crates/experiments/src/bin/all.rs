//! Regenerates the entire evaluation: every table and figure from the
//! [`spb_experiments::registry`], in paper order, then the
//! machine-readable grid sweep report under `results/`. One
//! [`spb_experiments::Evaluation`] backs every figure, so each distinct
//! cell is simulated once. Pass --quick for a smoke run; SPB_JOBS
//! controls the worker pool.
use spb_experiments as exp;
use spb_sim::sweep::SweepOptions;
use std::time::Instant;

fn main() {
    let budget = exp::Budget::from_args();
    let opts = SweepOptions::from_env();
    let jobs = opts.jobs;
    let total_start = Instant::now();
    let mut ev = exp::Evaluation::new(budget, opts.progress(true));

    // Most figures are views of the SPEC grid; compute it first.
    eprintln!("[all] computing the shared SPEC grid… ({jobs} jobs)");
    let grid_start = Instant::now();
    let grid = ev.grid(spb_trace::profile::AppProfile::spec2017());
    eprintln!(
        "[all] grid done in {:.1}s",
        grid_start.elapsed().as_secs_f64()
    );

    for def in exp::registry::REGISTRY {
        eprintln!("[all] running {}… ({jobs} jobs)", def.title);
        let start = Instant::now();
        println!("############ {} ############", def.title);
        exp::print_tables(&(def.run)(&mut ev));
        eprintln!(
            "[all] {} done in {:.1}s",
            def.title,
            start.elapsed().as_secs_f64()
        );
    }

    // The machine-readable JSON sweep report from the same grid.
    let report = grid.to_report(format!("sweep-grid-{}", budget.label()));
    match report.save(std::path::Path::new("results")) {
        Ok(path) => eprintln!("[all] wrote {}", path.display()),
        Err(e) => {
            eprintln!("[all] could not write sweep report: {e}");
            std::process::exit(1);
        }
    }
    eprintln!("[all] {}", ev.work_line());
    eprintln!(
        "[all] total wall time {:.1}s with {jobs} jobs",
        total_start.elapsed().as_secs_f64()
    );
}
