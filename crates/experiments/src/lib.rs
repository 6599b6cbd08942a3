//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each `figXX` module computes the data behind the corresponding figure
//! of the paper and renders it as [`spb_stats::Table`]s whose rows and
//! columns mirror the publication, so shape can be compared directly.
//! Every module is an entry of the [`registry`], run by name with
//! `spbsim experiment fig05`, and the `all` binary regenerates the
//! whole evaluation and writes `EXPERIMENTS.md`-ready output.
//!
//! Budgets: [`Budget::Paper`] runs the default µop budget used for the
//! recorded results; [`Budget::Quick`] is for smoke tests and CI. Pass
//! `--quick` to `spbsim experiment` or to any binary to use it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod coalescing;
pub mod grid;
pub mod registry;
pub mod smt_validation;
pub mod spatial;
pub mod squash;
pub mod variance;

pub mod fig01;
pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod sb20;
pub mod sens_n;
pub mod tab1;

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
