//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each `figXX` module computes the data behind the corresponding figure
//! of the paper and renders it as [`spb_stats::Table`]s whose rows and
//! columns mirror the publication, so shape can be compared directly.
//! Every module is an entry of the [`registry`], run by name with
//! `spbsim experiment fig05`, and the `all` binary regenerates the
//! whole evaluation and writes `EXPERIMENTS.md`-ready output. A figure
//! asks an [`Evaluation`] for the suites it reads, and the evaluation
//! simulates each distinct cell once.
//!
//! Budgets: [`Budget::Paper`] runs the default µop budget used for the
//! recorded results; [`Budget::Quick`] is for smoke tests and CI. Pass
//! `--quick` to `spbsim experiment` or to any binary to use it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evaluation;
pub mod grid;
pub mod registry;

mod ablations;
mod coalescing;
mod fig01;
mod fig03;
mod fig05;
mod fig06;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod fig18;
mod sb20;
mod sens_n;
mod smt_validation;
mod spatial;
mod squash;
mod tab1;
mod variance;

pub use evaluation::Evaluation;
pub use spb_sim::config::Budget;

/// Prints a list of tables with blank lines between them (the common
/// tail of every experiment binary).
pub fn print_tables(tables: &[spb_stats::Table]) {
    for t in tables {
        println!("{t}");
    }
}

#[cfg(test)]
mod tests {
    use super::Budget;

    #[test]
    fn budget_args_accept_only_quick() {
        assert_eq!(Budget::parse_args([] as [&str; 0]), Ok(Budget::Paper));
        assert_eq!(Budget::parse_args(["--quick"]), Ok(Budget::Quick));
        let unknown = |a: &str| Err(format!("unknown argument {a:?}"));
        assert_eq!(Budget::parse_args(["--qiuck"]), unknown("--qiuck"));
        assert_eq!(Budget::parse_args(["--quick", "extra"]), unknown("extra"));
    }
}
