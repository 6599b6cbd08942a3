//! Regenerates the entire evaluation: every table and figure from the
//! [`spb_experiments::registry`], in paper order, then the
//! machine-readable grid sweep report under `results/`. Figures that
//! are pure projections of the main SPEC grid reuse one shared sweep
//! instead of re-simulating it. Pass --quick for a smoke run; SPB_JOBS
//! controls the worker pool.
use spb_experiments as exp;
use spb_sim::sweep::SweepOptions;
use std::time::Instant;

fn main() {
    let budget = exp::Budget::from_args();
    let opts = SweepOptions::from_env();
    let total_start = Instant::now();

    // The SPEC grid backs every `from_grid` figure; compute it once.
    eprintln!("[all] computing the shared SPEC grid… ({} jobs)", opts.jobs);
    let grid_start = Instant::now();
    let grid = exp::grid::Grid::compute_with(
        spb_trace::profile::AppProfile::spec2017(),
        budget,
        &opts.progress(true),
    );
    eprintln!(
        "[all] grid done in {:.1}s",
        grid_start.elapsed().as_secs_f64()
    );

    for def in exp::registry::REGISTRY {
        eprintln!("[all] running {}… ({} jobs)", def.title, opts.jobs);
        let start = Instant::now();
        println!("############ {} ############", def.title);
        let tables = match def.from_grid {
            Some(project) => project(&grid),
            None => (def.run)(budget),
        };
        exp::print_tables(&tables);
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
    eprintln!(
        "[all] total wall time {:.1}s with {} jobs",
        total_start.elapsed().as_secs_f64(),
        opts.jobs
    );
}
