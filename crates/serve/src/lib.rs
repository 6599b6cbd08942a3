//! Fault-tolerant sweep-as-a-service for the SPB simulator.
//!
//! The paper's evaluation is a design-space grid, and ROADMAP item 2
//! calls for running such grids as a long-lived local service rather
//! than a one-shot CLI. This crate is that service, built std-only on
//! [`spb_sim::sweep`]'s deterministic executor, with robustness as the
//! headline feature:
//!
//! - **Supervised workers** ([`spb_sim::sweep::run_cells_supervised`]):
//!   worker panics, per-cell deadline overruns and injected chaos
//!   become structured failures that retry with deterministic seeded
//!   exponential backoff; invariant violations fail fast.
//! - **Content-addressed cache** ([`cache::ResultCache`]): every cell
//!   result is persisted under a key derived from (app, full config
//!   digest, code version), checksummed, written atomically, and
//!   quarantined + recomputed on corruption.
//! - **Write-ahead journal** ([`journal::Journal`]): jobs are durable
//!   before they are runnable; a `kill -9` mid-sweep recovers on
//!   restart with only uncached cells re-simulated.
//! - **Graceful degradation** ([`service::Server`]): a bounded queue
//!   with explicit `overloaded` rejections (never hangs) and a
//!   health/stats endpoint backed by [`spb_obs::SharedCounters`].
//!
//! # Protocol
//!
//! Line-delimited JSON over TCP; one request object per line, one
//! reply object per line:
//!
//! ```json
//! {"type": "sweep", "job": {"name": "g", "budget": "quick",
//!  "cells": [{"app": "x264", "policy": "spb", "sb": 14}]}}
//! {"type": "health"}
//! {"type": "shutdown"}
//! ```
//!
//! Sweep replies carry `report` (checksummed
//! [`spb_sim::sweep::SweepReport`] JSON, records in request order) and
//! `stats` (`cache_hits`, `computed`, `retries`, `failed`). Every
//! error is an explicit `{"ok": false, "error": "…"}` line. Requests
//! are bounded: JSON nested deeper than the parser's depth limit (256)
//! is a bad request, and a line longer than
//! [`service::MAX_REQUEST_BYTES`] gets an error and the connection is
//! closed.
//!
//! # Example
//!
//! ```no_run
//! use spb_serve::{client, JobSpec, ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig::at("/tmp/spb-serve")).unwrap();
//! let addr = server.addr().unwrap().to_string();
//! std::thread::spawn(move || server.serve());
//! let reply = client::submit(&addr, &JobSpec::quick_grid()).unwrap();
//! assert!(reply.get("report").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod journal;
pub mod service;
pub mod spec;

pub use cache::{CacheKey, Lookup, ResultCache};
pub use journal::{Journal, Recovery};
pub use service::{ServeConfig, Server};
pub use spec::{Budget, CellSpec, JobSpec};

/// The simulator code version baked into every cache key.
///
/// Bump this whenever a change can alter simulated numbers (new
/// kernels, policy fixes, config defaults): old cache entries then
/// miss — and are recomputed — instead of silently serving stale
/// results from a different simulator.
pub(crate) const CODE_VERSION: &str = concat!("spb-", env!("CARGO_PKG_VERSION"), "-g1");
