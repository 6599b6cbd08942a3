//! Multi-objective scoring and Pareto-frontier extraction.
//!
//! Every tune point is scored on three minimized objectives, summed
//! across the app list in app order (so the floating-point energy sum
//! is bit-reproducible):
//!
//! - **cycles** — measured cycles (the paper's performance axis),
//! - **energy** — total nJ from the `spb-energy` model,
//! - **coherence traffic** — interconnect messages
//!   (`MemStats::coherence_traffic`).
//!
//! A point is on the frontier iff no other point is at least as good on
//! every objective and strictly better on one.

/// The objective vector of one evaluated point (lower is better on
/// every axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Total measured cycles across the app list.
    pub cycles: u64,
    /// Total energy across the app list, in nJ.
    pub energy_nj: f64,
    /// Total coherence-traffic messages across the app list.
    pub coh_msgs: u64,
}

impl Objectives {
    /// Zero on every axis (the fold identity).
    pub fn zero() -> Self {
        Self {
            cycles: 0,
            energy_nj: 0.0,
            coh_msgs: 0,
        }
    }

    /// Accumulates one app's contribution.
    pub fn add(&mut self, cycles: u64, energy_nj: f64, coh_msgs: u64) {
        self.cycles += cycles;
        self.energy_nj += energy_nj;
        self.coh_msgs += coh_msgs;
    }

    /// Whether `self` dominates `other`: no worse on every objective
    /// and strictly better on at least one.
    pub(crate) fn dominates(&self, other: &Objectives) -> bool {
        let no_worse = self.cycles <= other.cycles
            && self.energy_nj <= other.energy_nj
            && self.coh_msgs <= other.coh_msgs;
        let better = self.cycles < other.cycles
            || self.energy_nj < other.energy_nj
            || self.coh_msgs < other.coh_msgs;
        no_worse && better
    }
}

/// Indices of the non-dominated points, in input order.
pub(crate) fn pareto_frontier(objectives: &[Objectives]) -> Vec<usize> {
    (0..objectives.len())
        .filter(|&i| {
            objectives
                .iter()
                .enumerate()
                .all(|(j, o)| j == i || !o.dominates(&objectives[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(cycles: u64, energy_nj: f64, coh_msgs: u64) -> Objectives {
        Objectives {
            cycles,
            energy_nj,
            coh_msgs,
        }
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        assert!(o(10, 10.0, 10).dominates(&o(11, 10.0, 10)));
        assert!(
            !o(10, 10.0, 10).dominates(&o(10, 10.0, 10)),
            "equal points tie"
        );
        assert!(
            !o(9, 11.0, 10).dominates(&o(10, 10.0, 10)),
            "tradeoffs don't dominate"
        );
    }

    #[test]
    fn frontier_keeps_the_tradeoff_curve() {
        let objs = [
            o(100, 50.0, 10), // fast but hot
            o(200, 20.0, 10), // slow but cool
            o(150, 35.0, 10), // the middle of the curve
            o(210, 60.0, 20), // dominated by everything
            o(100, 50.0, 10), // duplicate of the first: both survive
        ];
        assert_eq!(pareto_frontier(&objs), vec![0, 1, 2, 4]);
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        assert_eq!(pareto_frontier(&[o(1, 1.0, 1)]), vec![0]);
        assert!(pareto_frontier(&[]).is_empty());
    }
}
