//! End-to-end and per-layer benchmark of the SPB simulator and its
//! sweep service. See `perfbench/README.md` for the workloads, the
//! metrics and how they relate.
//!
//! One process runs one workload for a stated number of seconds,
//! checks every simulated result against committed reference records,
//! and prints its metrics as a JSON line. The traced mode times calls
//! into each layer's public functions from outside the program.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod refs;
pub mod report;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod workload;

use host::SpeedGauge;
use refs::RefSet;
use report::{Outcome, Spans};
use spb_sim::sweep::{SweepRecord, SweepReport};
use spb_stats::hash::{fnv1a64, hex16};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Cell, Workload, GOLDEN_SEED};

/// The benchmark's state directory, relative to the repository root:
/// the determinism ledger, span files and per-process scratch space.
pub const STATE_DIR: &str = ".perfbench";

/// Set-up repeats until it has taken this many host seconds in all, so that
/// `setup_s`, the mean per set-up, averages over at least two seconds of
/// work: single set-ups last from 0.2 ms (`parsec_mt`) to 0.3 s
/// (`serve_warm`, whose 230 cache stores each wait for an fsync).
const SETUP_BUDGET_S: f64 = 2.0;

/// Seconds of calibration behind the traced run's `host.speed`.
const HOST_SPEED_SAMPLE_S: f64 = 0.5;

/// Set-ups a run makes at least.
const MIN_SETUP_REPS: usize = 3;

/// One benchmark run's arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced (per-layer) instead of end-to-end.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload.
    Run(Args),
    /// Run one operation of every workload.
    Smoke,
    /// Regenerate the `parsec_mt` expected records.
    WriteExpected,
}

/// Command-line usage.
pub const USAGE: &str = "usage: spb-perfbench --workload <spec_mem|spec_sb|parsec_mt|serve_warm> \
[--seed N] [--seconds S] [--trace 0|1]\n       spb-perfbench --smoke\n       spb-perfbench --write-expected";

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Unknown flags, missing or malformed values.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, GOLDEN_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => return Ok(Command::Smoke),
            "--write-expected" => return Ok(Command::WriteExpected),
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Runs one workload from the repository root `root`.
///
/// # Errors
///
/// Set-up failures (missing or invalid reference files, an unusable
/// state directory); failed operations are reported in the outcome.
pub fn run(root: &Path, args: &Args) -> Result<Outcome, String> {
    let work = root
        .join(STATE_DIR)
        .join(format!("work-{}", std::process::id()));
    let result = run_in(root, &work, args);
    // Scratch state never outlives the run.
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(root: &Path, work: &Path, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let w = args.workload;
    // The exact numbers of the simulation workloads, summarised; a
    // serve_warm run has none beyond what every reply is already
    // checked against (the golden records, and a hit ratio of 1).
    let digest = if w == Workload::ServeWarm {
        let (setup_s, warm) =
            repeat_setup(|rep| serve::setup(root, &work.join(format!("serve-{rep}"))))?;
        out.set("setup_s", setup_s);
        let hit_ratio = if args.trace {
            let probe = work.join("probe");
            serve::run_traced(&warm, args.seed, args.seconds, &probe, &mut out, &mut spans)?
        } else {
            serve::run_timed(&warm, args.seed, args.seconds, &mut out)?
        };
        out.set("serve.hit_ratio", hit_ratio);
        None
    } else {
        let (setup_s, (cells, refs)) = repeat_setup(|_| sim_setup(root, w))?;
        out.set("setup_s", setup_s);
        let exact = if args.trace {
            sim::run_traced(&cells, &refs, args.seed, args.seconds, &mut out, &mut spans)
        } else {
            sim::run_timed(&cells, &refs, args.seed, args.seconds, &mut out)
        };
        Some(hex16(fnv1a64(format!("{exact:?}").as_bytes())))
    };

    // Seeds only reorder operations, so every run of a workload by the
    // same build must produce the same exact numbers. Only a run whose
    // every operation passed may set the numbers later runs must repeat.
    if let Some(digest) = digest {
        let key = format!("{} {}", report::build_id()?, w.name());
        let ledger = root.join(STATE_DIR).join("ledger.tsv");
        if let Err(e) = report::check_ledger(&ledger, &key, &digest, out.failures.is_empty()) {
            out.fail(e);
        }
    }
    if args.trace {
        out.set("host.speed", SpeedGauge::new().sample(HOST_SPEED_SAMPLE_S));
        let layers: &[&str] = if w == Workload::ServeWarm {
            &["trace.", "sim.", "mem.", "cpu.", "spb.", "energy."]
        } else {
            &["serve."]
        };
        for def in report::PER_LAYER {
            if layers.iter().any(|p| def.name.starts_with(p)) {
                out.set(def.name, 0.0);
            }
        }
        let path =
            root.join(STATE_DIR)
                .join("spans")
                .join(format!("{}-seed{}.json", w.name(), args.seed));
        match spans.write_chrome(&path) {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                spans.spans().len(),
                path.display()
            )),
            Err(e) => out.fail(format!("writing spans: {e}")),
        }
    }
    out.set("peak_rss_mb", host::peak_rss_mb());
    Ok(out)
}

/// Runs `setup` until it has taken [`SETUP_BUDGET_S`] host seconds in
/// all and at least [`MIN_SETUP_REPS`] times, and returns the mean
/// seconds per set-up and the last product; each earlier product is
/// dropped before the next set-up starts, outside the timed interval.
/// Each set-up's time is converted to reference seconds (see
/// [`SpeedGauge`]).
fn repeat_setup<T>(mut setup: impl FnMut(usize) -> Result<T, String>) -> Result<(f64, T), String> {
    let mut gauge = SpeedGauge::new();
    let (mut host_total, mut total, mut reps) = (0.0, 0.0, 0);
    let mut last = None;
    while host_total < SETUP_BUDGET_S || reps < MIN_SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup(reps)?);
        let secs = start.elapsed().as_secs_f64();
        host_total += secs;
        total += gauge.reference_secs(secs);
        reps += 1;
    }
    let product = last.ok_or("set-up ran zero times")?;
    Ok((total / reps as f64, product))
}

/// Set-up of a simulation workload: loads and validates its reference
/// records and resolves its cells, each of which must have a reference.
///
/// # Errors
///
/// Missing or invalid reference files, or unknown cells.
pub fn sim_setup(root: &Path, w: Workload) -> Result<(Vec<Cell>, RefSet), String> {
    let (file, needs_checksum) = w.reference_file();
    let refs = RefSet::load(&root.join(file), needs_checksum)?;
    let cells = workload::cells(w)?;
    if let Some(c) = cells.iter().find(|c| !refs.contains(&c.id())) {
        return Err(format!("{file} has no record for {}", c.label()));
    }
    Ok((cells, refs))
}

/// Runs one operation of every workload, fully checked: the first cell
/// of each simulation workload and one `serve_warm` job.
///
/// # Errors
///
/// Set-up failures.
pub fn smoke(root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for w in workload::ALL {
        if w == Workload::ServeWarm {
            let work = root
                .join(STATE_DIR)
                .join(format!("smoke-{}", std::process::id()));
            let result = serve::setup(root, &work).and_then(|warm| serve::run_one(&warm, &mut out));
            let _ = std::fs::remove_dir_all(&work);
            result?;
            continue;
        }
        let (cells, refs) = sim_setup(root, w)?;
        let cells = &cells[..1];
        let (r, secs) = sim::timed_run(&sim::simulation(&cells[0], sim::Variant::Default));
        out.attempted += 1;
        sim::Checker::new(cells, &refs).check(0, sim::Variant::Default, &r, &mut out);
        out.note(format!(
            "{}: {} in {:.3} s",
            w.name(),
            cells[0].label(),
            secs
        ));
    }
    Ok(out)
}

/// Regenerates `perfbench/expected/parsec_mt.json`: every `parsec_mt`
/// cell under the `tick` kernel, confirmed equal under `wheel`. Host
/// wall time is written as 0 so the file is reproducible.
///
/// # Errors
///
/// A cell that fails or differs between kernels; filesystem errors.
pub fn write_expected(root: &Path) -> Result<PathBuf, String> {
    let cells = workload::cells(Workload::ParsecMt)?;
    let mut records = Vec::with_capacity(cells.len());
    for cell in &cells {
        let run = |v| sim::simulation(cell, v).run().map_err(|e| e.to_string());
        let tick = run(sim::Variant::Tick)?;
        let wheel = run(sim::Variant::Default)?;
        if sim::Exact::of(&tick) != sim::Exact::of(&wheel) {
            return Err(format!("{}: tick and wheel differ", cell.label()));
        }
        records.push(SweepRecord {
            wall_ms: 0.0,
            ..SweepRecord::from_run(&tick)
        });
    }
    let report = SweepReport {
        name: "parsec_mt-expected".into(),
        records,
        failed: Vec::new(),
        metrics: None,
    };
    let path = root.join(refs::PARSEC_EXPECTED);
    report
        .save_as(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Command, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        assert_eq!(
            args("--workload spec_sb --seed 7 --seconds 20 --trace 1"),
            Ok(Command::Run(Args {
                workload: Workload::SpecSb,
                seed: 7,
                seconds: 20.0,
                trace: true,
            }))
        );
        assert_eq!(args("--smoke"), Ok(Command::Smoke));
        assert!(args("--seed 7").unwrap_err().contains("--workload"));
        assert!(args("--workload spec_sb --trace 2").is_err());
        assert!(args("--workload spec_sb --seconds 0").is_err());
        assert!(args("--workload spec_sb --seed")
            .unwrap_err()
            .contains("needs a value"));
        assert!(args("--workload nope").unwrap_err().contains("spec_mem"));
        assert!(args("--bogus").is_err());
    }
}
