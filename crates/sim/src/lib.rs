//! Full-system assembly and experiment driver.
//!
//! This crate wires the substrates together the way the paper's gem5
//! setup does: one [`spb_cpu::Core`] per thread (Table I widths and
//! queues), a shared [`spb_mem::MemorySystem`] (private L1/L2, shared
//! L3, MESI directory), a store-prefetch policy per core, and the
//! [`spb_energy::EnergyModel`].
//!
//! - [`config::SimConfig`] / [`config::PolicyKind`] describe a run: the
//!   core microarchitecture, the SB size under study, and which of
//!   {none, at-execute, at-commit, SPB, SPB-dynamic, ideal-SB} drives
//!   store prefetching.
//! - [`simulation::Simulation`] executes an application profile with
//!   warm-up and a fixed measured µop budget (the paper's ROI
//!   methodology in miniature) and returns a [`runner::RunResult`] with
//!   all the counters the figures need. Attach any [`spb_obs::Sink`]
//!   with [`simulation::Simulation::observe`] to stream the run's typed
//!   events without perturbing it.
//! - [`suite`] runs whole benchmark suites and aggregates the "ALL" and
//!   "SB-BOUND" geometric means the paper reports.
//! - [`sweep`] fans independent `(application, configuration)` cells
//!   out over a worker pool with deterministic, input-ordered results,
//!   and summarizes sweeps as machine-readable JSON reports.
//!
//! # Examples
//!
//! ```
//! use spb_sim::{PolicyKind, SimConfig, Simulation};
//! use spb_trace::profile::AppProfile;
//!
//! let app = AppProfile::by_name("x264").unwrap();
//! let result = Simulation::with_config(&app, &SimConfig::quick())
//!     .policy(PolicyKind::spb_default())
//!     .run()
//!     .unwrap();
//! assert!(result.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod report;
pub mod runner;
pub mod simulation;
pub mod suite;
pub mod sweep;

pub use config::{KernelMode, PolicyKind, SimConfig};
pub use runner::{CoreWindow, KernelStats, RunError, RunResult};
pub use simulation::Simulation;
pub use sweep::{CellFailure, ChaosPlan, Supervision, SweepOptions, SweepReport};
