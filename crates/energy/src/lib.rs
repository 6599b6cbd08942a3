//! Event-based energy model (McPAT-lite).
//!
//! The paper evaluates energy with McPAT at 22 nm / 0.6 V, reporting
//! Figure 7 as energy *normalized to at-commit*, broken into cache
//! dynamic energy (L1+L2+L3), total core dynamic energy, and total
//! energy (dynamic + static). An event-energy model reproduces those
//! relative numbers: each architectural event (cache access, tag check,
//! DRAM transfer, committed or squashed µop) is charged a fixed energy,
//! and leakage accrues per cycle. The absolute joules are loose
//! calibrations; the *ratios* between policies — which is all Figure 7
//! plots — depend only on the event counts produced by the simulator.
//!
//! # Examples
//!
//! ```
//! use spb_energy::{EnergyModel, EnergyEvents};
//!
//! let model = EnergyModel::default();
//! let mut events = EnergyEvents::default();
//! events.cycles = 1_000_000;
//! events.committed_uops = 1_500_000;
//! events.l1_accesses = 400_000;
//! let breakdown = model.evaluate(&events);
//! assert!(breakdown.total_nj() > 0.0);
//! assert!(breakdown.static_nj > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Per-event energies in nanojoules and static power in watts.
///
/// Defaults are loose 22 nm-class calibrations (the paper's McPAT
/// configuration); see the crate docs for why only ratios matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One L1D data access (read or write).
    pub l1_access_nj: f64,
    /// One L1D tag-array check (prefetch probes, drain retries).
    pub l1_tag_nj: f64,
    /// One L2 access.
    pub l2_access_nj: f64,
    /// One L3 access.
    pub l3_access_nj: f64,
    /// One DRAM transfer (fill or write-back).
    pub dram_access_nj: f64,
    /// Core dynamic energy per committed µop (fetch/rename/issue/commit).
    pub core_uop_nj: f64,
    /// Core dynamic energy per wrong-path (squashed) µop.
    pub wrong_path_uop_nj: f64,
    /// Static (leakage) power in watts for core + caches.
    pub static_power_w: f64,
    /// Clock frequency in GHz (converts cycles to seconds for leakage).
    pub frequency_ghz: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            l1_access_nj: 0.10,
            l1_tag_nj: 0.012,
            l2_access_nj: 0.45,
            l3_access_nj: 1.4,
            dram_access_nj: 18.0,
            core_uop_nj: 0.85,
            wrong_path_uop_nj: 0.85,
            static_power_w: 1.1,
            frequency_ghz: 2.0,
        }
    }
}

/// Event counts gathered from one measured run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyEvents {
    /// Elapsed cycles (drives leakage).
    pub cycles: u64,
    /// Committed µops.
    pub committed_uops: u64,
    /// Wrong-path µops fetched and squashed.
    pub wrong_path_uops: u64,
    /// L1D data accesses (loads + performed stores + wrong-path loads).
    pub l1_accesses: u64,
    /// L1D tag-only checks (prefetch probes, drain retries).
    pub l1_tag_checks: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L3 accesses.
    pub l3_accesses: u64,
    /// DRAM transfers (fills + write-backs).
    pub dram_accesses: u64,
}

/// Energy totals in nanojoules, split the way Figure 7 reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Dynamic energy of L1+L2+L3 (+ tag checks).
    pub cache_dynamic_nj: f64,
    /// Core dynamic energy (committed + wrong-path µops).
    pub core_dynamic_nj: f64,
    /// DRAM dynamic energy.
    pub dram_dynamic_nj: f64,
    /// Leakage over the run.
    pub static_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy (dynamic + static).
    pub fn total_nj(&self) -> f64 {
        self.cache_dynamic_nj + self.core_dynamic_nj + self.dram_dynamic_nj + self.static_nj
    }

    /// Energy–delay product in nJ·cycles: the single-number
    /// efficiency score `spbsim tune` prints alongside the raw
    /// objectives (lower is better; rewards saving cycles only when
    /// the energy spent to save them pays off).
    pub fn edp(&self, cycles: u64) -> f64 {
        self.total_nj() * cycles as f64
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "energy: cache {:.1} µJ, core {:.1} µJ, dram {:.1} µJ, static {:.1} µJ (total {:.1} µJ)",
            self.cache_dynamic_nj / 1e3,
            self.core_dynamic_nj / 1e3,
            self.dram_dynamic_nj / 1e3,
            self.static_nj / 1e3,
            self.total_nj() / 1e3
        )
    }
}

impl EnergyModel {
    /// Dynamic energy attributed to *wasted* speculation: wrong-path
    /// RFOs that acquired ownership no architectural store used, the
    /// coherence messages they triggered, and the DRAM fills they
    /// caused. Each wasted RFO walked the tag path to the point its
    /// ownership was granted (L1 tag probe, then L2 and L3 on the way
    /// down); invalidation messages are charged one L2-class access at
    /// the victim; fills are charged at DRAM cost. This is the energy
    /// column of the `spbsim squash` experiment, reported alongside the
    /// Figure 7 breakdown rather than folded into it (the events are
    /// already inside the run's aggregate cache/DRAM counts — this
    /// isolates the share the squash attribution proved wasted).
    pub fn speculative_waste_nj(
        &self,
        wasted_rfos: u64,
        wasted_coh_msgs: u64,
        wasted_dram: u64,
    ) -> f64 {
        wasted_rfos as f64 * (self.l1_tag_nj + self.l2_access_nj + self.l3_access_nj)
            + wasted_coh_msgs as f64 * self.l2_access_nj
            + wasted_dram as f64 * self.dram_access_nj
    }

    /// Evaluates the event counts into an energy breakdown.
    pub fn evaluate(&self, e: &EnergyEvents) -> EnergyBreakdown {
        let cache_dynamic_nj = e.l1_accesses as f64 * self.l1_access_nj
            + e.l1_tag_checks as f64 * self.l1_tag_nj
            + e.l2_accesses as f64 * self.l2_access_nj
            + e.l3_accesses as f64 * self.l3_access_nj;
        let core_dynamic_nj = e.committed_uops as f64 * self.core_uop_nj
            + e.wrong_path_uops as f64 * self.wrong_path_uop_nj;
        let dram_dynamic_nj = e.dram_accesses as f64 * self.dram_access_nj;
        // P[W] × t[s] = nJ with t = cycles / (GHz × 1e9); fold the 1e9s.
        let static_nj = self.static_power_w * e.cycles as f64 / self.frequency_ghz;
        EnergyBreakdown {
            cache_dynamic_nj,
            core_dynamic_nj,
            dram_dynamic_nj,
            static_nj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> EnergyEvents {
        EnergyEvents {
            cycles: 1_000,
            committed_uops: 2_000,
            wrong_path_uops: 100,
            l1_accesses: 500,
            l1_tag_checks: 600,
            l2_accesses: 50,
            l3_accesses: 20,
            dram_accesses: 10,
        }
    }

    #[test]
    fn zero_events_give_zero_dynamic_energy() {
        let b = EnergyModel::default().evaluate(&EnergyEvents::default());
        assert_eq!(b.static_nj, 0.0);
        assert_eq!(b.total_nj(), 0.0);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let b = EnergyModel::default().evaluate(&events());
        let sum = b.cache_dynamic_nj + b.core_dynamic_nj + b.dram_dynamic_nj + b.static_nj;
        assert!((b.total_nj() - sum).abs() < 1e-9);
    }

    #[test]
    fn leakage_scales_with_cycles() {
        let m = EnergyModel::default();
        let mut e = events();
        let b1 = m.evaluate(&e);
        e.cycles *= 2;
        let b2 = m.evaluate(&e);
        assert!((b2.static_nj - 2.0 * b1.static_nj).abs() < 1e-9);
    }

    #[test]
    fn faster_run_saves_static_energy() {
        // Same work in fewer cycles (what SPB achieves) → lower total.
        let m = EnergyModel::default();
        let slow = m.evaluate(&events());
        let mut fast_events = events();
        fast_events.cycles = 700;
        let fast = m.evaluate(&fast_events);
        assert!(fast.total_nj() < slow.total_nj());
    }

    #[test]
    fn fewer_wrong_path_uops_save_core_energy() {
        let m = EnergyModel::default();
        let base = m.evaluate(&events());
        let mut e = events();
        e.wrong_path_uops = 0;
        let b = m.evaluate(&e);
        assert!(b.core_dynamic_nj < base.core_dynamic_nj);
    }

    #[test]
    fn static_energy_formula_matches_hand_calculation() {
        // 1.1 W for 1000 cycles at 2 GHz = 1.1 × 1000 / 2 = 550 nJ.
        let b = EnergyModel::default().evaluate(&events());
        assert!((b.static_nj - 550.0).abs() < 1e-9);
    }

    #[test]
    fn speculative_waste_scales_with_each_component() {
        let m = EnergyModel::default();
        assert_eq!(m.speculative_waste_nj(0, 0, 0), 0.0);
        let base = m.speculative_waste_nj(10, 5, 2);
        assert!(m.speculative_waste_nj(11, 5, 2) > base);
        assert!(m.speculative_waste_nj(10, 6, 2) > base);
        assert!(m.speculative_waste_nj(10, 5, 3) > base);
        // DRAM dominates: one wasted fill outweighs one wasted RFO walk.
        assert!(m.speculative_waste_nj(0, 0, 1) > m.speculative_waste_nj(1, 0, 0));
    }

    #[test]
    fn display_is_readable() {
        let b = EnergyModel::default().evaluate(&events());
        let s = b.to_string();
        assert!(s.contains("cache"));
        assert!(s.contains("static"));
    }
}
