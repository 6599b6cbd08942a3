//! Executable reference models: a magic-memory in-order CPU and a flat
//! atomic memory.
//!
//! Both models replay the same [`spb_trace::PhasedWorkload`]s the
//! simulator ran (same profile, same seed) with *no* microarchitecture:
//! every memory access completes instantly against a flat memory, and
//! µops retire strictly in trace order. That deliberately throws away
//! everything the simulator models — and everything that is left must
//! therefore agree bit-exactly between the two, independent of policy,
//! store-buffer size, fault plan, or cache behaviour:
//!
//! - the per-kind µop counts of any committed window (commit is in
//!   order, so a window is a trace slice);
//! - the set of blocks each core may ever write, with per-block store
//!   counts (an upper bound on drains; tight to within one SB of slack);
//! - the block-granularity memory image: which core wrote each block
//!   (the paper's workloads give every block a unique writer, which the
//!   oracle verifies rather than assumes);
//! - a commit-width cycle lower bound.

use spb_sim::runner::CoreWindow;
use spb_trace::profile::AppProfile;
use spb_trace::{OpKind, TraceSource};
use std::collections::HashMap;

/// Per-kind µop counts over a window of one thread's trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Total µops in the window.
    pub uops: u64,
    /// Stores.
    pub stores: u64,
    /// Loads.
    pub loads: u64,
    /// Branches.
    pub branches: u64,
}

/// What the in-order magic-memory model predicts for one core.
#[derive(Debug, Clone, Default)]
pub struct CorePrediction {
    /// Exact per-kind counts of the measured window
    /// `[warmup_uops, warmup_uops + uops)` of this core's trace.
    pub measured: KindCounts,
    /// Stores per block over the *whole* committed prefix
    /// `[0, trace_len)` — warm-up included, because store drains are
    /// observed from cycle zero.
    pub store_blocks: HashMap<u64, u64>,
    /// Total stores over the whole committed prefix.
    pub total_stores: u64,
}

/// Flat atomic-memory image of one block after replaying every core's
/// committed prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockImage {
    /// The single writing core, or `None` if more than one core wrote
    /// the block (the workloads under test keep thread data disjoint,
    /// so the oracle *verifies* uniqueness instead of assuming it).
    pub unique_writer: Option<u8>,
    /// Stores to the block across all cores.
    pub stores: u64,
}

/// The combined prediction of both reference models for one run.
#[derive(Debug, Clone, Default)]
pub struct OraclePrediction {
    /// Per-core in-order replay results, indexed like the simulator's
    /// cores.
    pub per_core: Vec<CorePrediction>,
    /// Lower bound on measured cycles: no core can commit more than
    /// `commit_width` µops per cycle.
    pub min_cycles: u64,
    /// Flat-memory image at block granularity.
    pub image: HashMap<u64, BlockImage>,
}

impl OraclePrediction {
    /// Exact total per-kind counts of the measured window, summed over
    /// cores — what the simulator's merged [`spb_cpu::core::CpuStats`]
    /// must report.
    pub fn measured_totals(&self) -> KindCounts {
        let mut t = KindCounts::default();
        for p in &self.per_core {
            t.uops += p.measured.uops;
            t.stores += p.measured.stores;
            t.loads += p.measured.loads;
            t.branches += p.measured.branches;
        }
        t
    }
}

/// Replays `app`'s per-thread traces under `seed` and predicts the run
/// described by `windows` (one [`CoreWindow`] per thread, taken from
/// [`spb_sim::RunResult::per_core`]).
///
/// # Panics
///
/// Panics if `windows` does not have one entry per application thread,
/// or if a window claims a longer prefix than the trace can produce
/// (profiles are unbounded, so the latter indicates a harness bug).
pub(crate) fn predict(
    app: &AppProfile,
    seed: u64,
    windows: &[CoreWindow],
    commit_width: u32,
) -> OraclePrediction {
    let traces = app.build_threads(seed);
    assert_eq!(
        traces.len(),
        windows.len(),
        "one commit window per application thread"
    );
    let mut prediction = OraclePrediction::default();
    let mut writers: HashMap<u64, (u8, u64)> = HashMap::new(); // block -> (first writer, stores)
    let mut multi_writer: Vec<u64> = Vec::new();

    for (core, (mut trace, window)) in traces.into_iter().zip(windows).enumerate() {
        let mut p = CorePrediction::default();
        let measure_from = window.warmup_uops;
        for i in 0..window.trace_len() {
            let op = trace
                .next_op()
                .expect("application profiles are unbounded trace sources");
            let kind = op.kind();
            if i >= measure_from {
                p.measured.uops += 1;
                match kind {
                    OpKind::Store { .. } => p.measured.stores += 1,
                    OpKind::Load { .. } => p.measured.loads += 1,
                    OpKind::Branch { .. } => p.measured.branches += 1,
                    _ => {}
                }
            }
            if let OpKind::Store { addr, .. } = kind {
                let block = addr / 64;
                *p.store_blocks.entry(block).or_insert(0) += 1;
                p.total_stores += 1;
                let e = writers.entry(block).or_insert((core as u8, 0));
                e.1 += 1;
                if e.0 != core as u8 {
                    multi_writer.push(block);
                }
            }
        }
        prediction.per_core.push(p);
    }

    prediction.min_cycles = prediction
        .per_core
        .iter()
        .map(|p| p.measured.uops.div_ceil(u64::from(commit_width.max(1))))
        .max()
        .unwrap_or(0);

    prediction.image = writers
        .into_iter()
        .map(|(block, (first, stores))| {
            let unique = (!multi_writer.contains(&block)).then_some(first);
            (
                block,
                BlockImage {
                    unique_writer: unique,
                    stores,
                },
            )
        })
        .collect();
    prediction
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_trace::profile::AppProfile;

    fn windows(app: &AppProfile, warmup: u64, measure: u64) -> Vec<CoreWindow> {
        (0..app.threads())
            .map(|_| CoreWindow {
                warmup_uops: warmup,
                uops: measure,
                ..CoreWindow::default()
            })
            .collect()
    }

    #[test]
    fn prediction_is_deterministic() {
        let app = AppProfile::by_name("x264").unwrap();
        let w = windows(&app, 1_000, 5_000);
        let a = predict(&app, 42, &w, 4);
        let b = predict(&app, 42, &w, 4);
        assert_eq!(a.measured_totals(), b.measured_totals());
        assert_eq!(a.image.len(), b.image.len());
        assert_eq!(a.min_cycles, b.min_cycles);
    }

    #[test]
    fn window_counts_are_a_trace_slice() {
        // The measured counts must equal whole-prefix counts minus
        // warm-up-prefix counts: the window is literally a slice.
        let app = AppProfile::by_name("bwaves").unwrap();
        let w_all = windows(&app, 0, 6_000);
        let w_warm = windows(&app, 0, 1_000);
        let w_meas = windows(&app, 1_000, 5_000);
        let all = predict(&app, 7, &w_all, 4);
        let warm = predict(&app, 7, &w_warm, 4);
        let meas = predict(&app, 7, &w_meas, 4);
        assert_eq!(
            meas.measured_totals().stores,
            all.measured_totals().stores - warm.measured_totals().stores
        );
        assert_eq!(
            meas.measured_totals().loads,
            all.measured_totals().loads - warm.measured_totals().loads
        );
    }

    #[test]
    fn parsec_threads_have_disjoint_writers() {
        let app = AppProfile::by_name("dedup").unwrap();
        assert!(app.threads() > 1);
        let w = windows(&app, 500, 3_000);
        let p = predict(&app, 42, &w, 4);
        assert_eq!(p.per_core.len(), app.threads() as usize);
        assert!(
            p.image.values().all(|b| b.unique_writer.is_some()),
            "thread-private data regions give every block a unique writer"
        );
    }

    #[test]
    fn min_cycles_tracks_commit_width() {
        let app = AppProfile::by_name("gcc").unwrap();
        let w = windows(&app, 0, 8_000);
        let wide = predict(&app, 1, &w, 8);
        let narrow = predict(&app, 1, &w, 2);
        assert!(narrow.min_cycles >= 4 * wide.min_cycles - 4);
        assert_eq!(narrow.min_cycles, 8_000u64.div_ceil(2));
    }
}
