//! `spb-perfbench`: runs one benchmark workload and prints its metrics.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec_mem --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Human-readable notes come first, each starting with `#`; the last
//! line of standard output is the JSON result. The exit code is 0 only
//! when every operation passed its checks.

use spb_perfbench::report::{END_TO_END, PER_LAYER};
use spb_perfbench::{parse_args, run, smoke, write_expected, Command, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let command = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("spb-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("spb-perfbench: current directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (outcome, table) = match command {
        Command::WriteExpected => {
            return match write_expected(&root) {
                Ok(path) => {
                    println!("wrote {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("spb-perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Command::Smoke => (smoke(&root), None),
        Command::Run(args) => {
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            (run(&root, &args), Some(table))
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("spb-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.failures {
        eprintln!("spb-perfbench: FAILED {failure}");
    }
    match table {
        Some(table) => match outcome.result_line(table) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("spb-perfbench: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => println!(
            "smoke: {} operations, {} failed",
            outcome.attempted,
            outcome.failures.len()
        ),
    }
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
