//! Design-space autotuner over the parameterized SPB policy API
//! (ROADMAP item 3).
//!
//! The paper fixes the detector window at N=48 and one burst heuristic;
//! this crate searches the whole policy space the parameterized
//! [`PolicyKind`](spb_sim::config::PolicyKind) grammar can name —
//! window, dedupe, burst threshold, page fraction, adaptive variants —
//! crossed with SB sizes, and scores every point on a multi-objective
//! vector: **cycles** (performance), **energy** (the `spb-energy`
//! model), and **coherence traffic** (interconnect messages).
//!
//! Three layers:
//!
//! - [`space`]: [`TuneSpace`] enumerates candidate
//!   points in a canonical order and draws seeded samples from it.
//! - [`engine`]: [`run_tune`] evaluates candidates
//!   through the supervised sweep executor and the content-addressed
//!   result cache (`spb-serve`), under a grid / seeded-random /
//!   successive-halving strategy. Re-running a tune is a cache hit.
//! - [`pareto`] / [`report`]: non-dominated-set extraction and
//!   bit-reproducible JSON + text reports with per-point cache-key
//!   provenance.
//!
//! Everything is deterministic for a fixed seed: the same invocation
//! produces a byte-identical report whether its cells were simulated or
//! served from cache (CI-gated by `tune_smoke.sh`).
//!
//! # Examples
//!
//! ```
//! use spb_tune::space::TuneSpace;
//!
//! let space = TuneSpace::default();
//! assert_eq!(space.len(), 612);
//! // The same seed always names the same 10 candidates.
//! assert_eq!(space.sample(7, 10), space.sample(7, 10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod pareto;
pub mod report;
pub mod space;

pub use engine::{run_tune, Strategy, TuneOptions, TuneOutcome, TuneStats};
pub use pareto::Objectives;
pub use report::TuneReport;
pub use space::{TunePoint, TuneSpace};
