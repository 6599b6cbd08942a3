//! Benchmark harness support for the SPB reproduction.
//!
//! - [`harness`]: a `std`-only stand-in for the Criterion API, used by
//!   the `kernels` bench (`cargo bench -p spb-bench`): throughput of the
//!   simulator's hot kernels (core cycle loop, cache hierarchy, SPB
//!   detector), which is what determines how much evaluation a time
//!   budget buys.
//! - [`snapshot`]: wall-time snapshots of the quick SPEC grid
//!   (`BENCH_*.json`), written and compared by the `bench_snapshot`
//!   binary.

pub mod harness;
pub mod snapshot;
