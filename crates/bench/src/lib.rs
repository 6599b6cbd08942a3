//! Benchmark harness support for the SPB reproduction.
//!
//! The Criterion benches (under `benches/`) come in two flavours:
//!
//! - `figures`: one benchmark per paper table/figure, timing a
//!   miniaturized version of the corresponding experiment (the full
//!   regeneration lives in the `spb-experiments` binaries — run
//!   `cargo run --release -p spb-experiments --bin all` for the real
//!   rows/series).
//! - `kernels`: throughput of the simulator's hot kernels (core cycle
//!   loop, cache hierarchy, SPB detector), which is what determines how
//!   much evaluation a time budget buys.
//!
//! This library crate provides the shared miniature configurations so
//! bench code stays declarative.

pub mod harness;
pub mod snapshot;

use spb_sim::config::SimConfig;
use spb_trace::profile::AppProfile;

/// A short but representative simulation budget for benches: covers at
/// least one full iteration of every profile's phase list.
pub fn bench_config() -> SimConfig {
    let mut cfg = SimConfig::quick();
    cfg.warmup_uops = 20_000;
    cfg.measure_uops = 150_000;
    cfg
}

/// A small app set spanning the behaviours the figures exercise:
/// a clear_page-bound app, a memcpy-bound app, and a compute-bound app.
pub fn bench_apps() -> Vec<AppProfile> {
    ["bwaves", "x264", "povray"]
        .iter()
        .map(|n| AppProfile::by_name(n).expect("suite app"))
        .collect()
}

/// The SB-bound pair used by per-app figure benches.
pub fn bench_sb_bound_apps() -> Vec<AppProfile> {
    ["bwaves", "x264"]
        .iter()
        .map(|n| AppProfile::by_name(n).expect("suite app"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_fixtures_are_valid() {
        assert_eq!(bench_apps().len(), 3);
        assert_eq!(bench_sb_bound_apps().len(), 2);
        assert!(bench_config().measure_uops >= 150_000);
    }
}
