//! Table I: the simulated configuration.
//!
//! Prints the structural parameters the simulator actually uses so a
//! reader can diff them against the paper's Table I.

use crate::Evaluation;
use spb_stats::Table;

/// Emits the configuration dump (nothing is simulated; the
/// configuration is static).
pub(crate) fn run(_: &mut Evaluation) -> Vec<Table> {
    let core = spb_cpu::CoreConfig::skylake();
    let mem = spb_mem::MemoryConfig::default();
    let mut t = Table::new("Table I — simulated configuration", &["value"]);
    t.set_precision(0);
    t.push_row("dispatch/commit width", &[f64::from(core.dispatch_width)]);
    t.push_row("ROB entries", &[core.rob_entries as f64]);
    t.push_row("issue queue entries", &[core.iq_entries as f64]);
    t.push_row("load queue entries", &[core.lq_entries as f64]);
    t.push_row("store queue / SB entries", &[core.sb_entries as f64]);
    t.push_row("int physical registers", &[core.int_regs as f64]);
    t.push_row("fp physical registers", &[core.fp_regs as f64]);
    t.push_row("L1D size (KiB)", &[mem.l1_size as f64 / 1024.0]);
    t.push_row("L1D ways", &[mem.l1_ways as f64]);
    t.push_row("L1D latency (cycles)", &[mem.l1_latency as f64]);
    t.push_row("L2 size (KiB)", &[mem.l2_size as f64 / 1024.0]);
    t.push_row("L2 ways", &[mem.l2_ways as f64]);
    t.push_row("L2 latency (cycles)", &[mem.l2_latency as f64]);
    t.push_row("L3 size (MiB)", &[mem.l3_size as f64 / 1024.0 / 1024.0]);
    t.push_row("L3 ways", &[mem.l3_ways as f64]);
    t.push_row("L3 latency (cycles)", &[mem.l3_latency as f64]);
    t.push_row("MSHR entries per cache", &[mem.mshrs_per_core as f64]);
    t.push_row("DRAM latency (cycles)", &[mem.dram.latency as f64]);
    t.push_row("DRAM channels", &[mem.dram.channels as f64]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;
    use spb_sim::sweep::SweepOptions;

    #[test]
    fn table1_matches_paper_parameters() {
        let mut ev = Evaluation::new(Budget::Quick, SweepOptions::serial());
        let t = &run(&mut ev)[0];
        assert_eq!(ev.requested(), 0);
        assert_eq!(t.get("ROB entries", "value"), Some(224.0));
        assert_eq!(t.get("store queue / SB entries", "value"), Some(56.0));
        assert_eq!(t.get("L1D size (KiB)", "value"), Some(32.0));
        assert_eq!(t.get("L3 size (MiB)", "value"), Some(16.0));
        assert_eq!(t.get("MSHR entries per cache", "value"), Some(64.0));
    }
}
