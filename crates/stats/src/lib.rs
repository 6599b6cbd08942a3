//! Statistics substrate for the SPB simulator.
//!
//! The simulator in this workspace is measured the way the paper measures
//! gem5: with event counters, stall-cycle attribution in the style of
//! Intel's Top-Down model, and normalized geometric-mean summaries.
//! This crate provides those building blocks:
//!
//! - [`Histogram`]: fixed-width bucketed histogram with percentile queries.
//! - [`topdown`]: issue-stall attribution ([`topdown::StallCause`],
//!   [`topdown::TopDown`]) and the "execution stalls with L1D miss
//!   pending" metric used by Figures 10, 14 and 15 of the paper.
//! - [`table`]: a small table type ([`table::Table`]) that renders the
//!   rows/series the paper reports as aligned text.
//! - [`summary`]: normalization and geometric-mean helpers.
//! - [`json`]: a dependency-free JSON value type ([`json::Json`]) used
//!   for the machine-readable sweep reports.
//! - [`hash`]: deterministic digests and mixers ([`hash::fnv1a64`],
//!   [`hash::mix64`]) for content checksums, cache keys and seeded
//!   jitter.
//!
//! # Examples
//!
//! ```
//! use spb_stats::{summary::geomean, Histogram};
//!
//! let mut latency = Histogram::new("l1d_miss_latency", 10, 8);
//! latency.record(3);
//! latency.record(17);
//! assert_eq!(latency.count(), 2);
//! assert_eq!(latency.max(), 17);
//! assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod hash;
pub mod histogram;
pub mod json;
pub mod summary;
pub mod table;
pub mod topdown;

pub use histogram::Histogram;
pub use table::Table;
pub use topdown::{StallCause, TopDown};
