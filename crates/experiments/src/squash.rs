//! Squash storms: wasted-traffic curves under wrong-path store bursts.
//!
//! The paper's traffic numbers assume the detector only ever sees
//! committed stores. This scenario turns the wrong-path model on
//! ([`spb_trace::squash`]) and sweeps squash intensity × prefetch
//! policy, reporting what each policy *wastes* when its speculation is
//! thrown away: RFOs that tagged blocks nobody ever stored, M-state
//! lines leaked into the L1, and the energy of both ([`spb_energy`]'s
//! speculative-waste column). Per-store speculation (at-execute) pays
//! one wasted RFO per wrong-path store by construction; at-commit is
//! the passive floor (zero by definition — it never fires before
//! commit); SPB sits between them, bounded by the episodes' page spans
//! (the bound `spb_verify::leak` checks).
//!
//! Counters are normalized per 1k committed µops so the curves are
//! comparable across budgets, and the slowdown table pins the cost of
//! the storms themselves (redirect penalties plus wasted fetch slots)
//! against the rate-0 baseline of the same policy.

use crate::Evaluation;
use spb_energy::EnergyModel;
use spb_sim::config::PolicyKind;
use spb_stats::summary::geomean;
use spb_stats::Table;
use spb_trace::profile::AppProfile;
use spb_trace::SquashConfig;

/// The squash intensities the sweep visits (`rate=0` is the disabled
/// model — its rows are the executable zero baseline).
pub(crate) const RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// The policies whose waste curves the tables compare, in column order.
pub(crate) fn policies() -> [(&'static str, PolicyKind); 3] {
    [
        ("at-execute", PolicyKind::AtExecute),
        ("spb", PolicyKind::spb_default()),
        ("at-commit", PolicyKind::AtCommit),
    ]
}

/// Squash spec for one sweep row.
fn storm(rate: f64) -> SquashConfig {
    SquashConfig::parse(&format!("rate={rate},depth=8..32,storm=4,seed=11")).unwrap()
}

/// Runs the sweep over the SB-bound SPEC subset.
pub(crate) fn run(ev: &mut Evaluation) -> Vec<Table> {
    tables_for(ev, &AppProfile::spec2017_sb_bound())
}

/// Builds the waste-curve tables for `apps` on top of the evaluation's
/// base configuration.
fn tables_for(ev: &mut Evaluation, apps: &[AppProfile]) -> Vec<Table> {
    let cols: Vec<&str> = policies().iter().map(|(l, _)| *l).collect();
    let mut rfos = Table::new(
        "Squash storms — wasted RFOs per 1k committed µops (SB14)",
        &cols,
    );
    let mut leaked = Table::new(
        "Squash storms — leaked M-state blocks per 1k committed µops (SB14)",
        &cols,
    );
    let mut energy = Table::new(
        "Squash storms — speculative-waste energy, nJ per 1k committed µops (SB14)",
        &cols,
    );
    let mut slowdown = Table::new(
        "Squash storms — geomean slowdown vs the same policy at rate 0 (SB14)",
        &cols,
    );
    let model = EnergyModel::default();

    let mut configs = Vec::new();
    for rate in RATES {
        for (_, policy) in policies() {
            configs.push(
                ev.base()
                    .with_sb(14)
                    .with_policy(policy)
                    .with_squash(storm(rate)),
            );
        }
    }
    let suites = ev.suites(apps, &configs);
    // The rate-0 row is each policy's baseline.
    let baselines = &suites[..policies().len()];
    for (rate, row) in RATES.iter().zip(suites.chunks(policies().len())) {
        let label = format!("rate={rate}");
        let (mut r_rfos, mut r_leak, mut r_nj, mut r_slow) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (suite, baseline) in row.iter().zip(baselines) {
            let uops: u64 = suite.runs.iter().map(|r| r.uops).sum();
            let per_k = |count: u64| count as f64 * 1_000.0 / uops as f64;
            let wasted_rfos: u64 = suite.runs.iter().map(|r| r.mem.spec_wasted_rfos).sum();
            let leaked_m: u64 = suite.runs.iter().map(|r| r.mem.spec_leaked_m_blocks).sum();
            let nj: f64 = suite
                .runs
                .iter()
                .map(|r| {
                    model.speculative_waste_nj(
                        r.mem.spec_wasted_rfos,
                        r.mem.spec_wasted_coh_msgs,
                        r.mem.spec_wasted_dram,
                    )
                })
                .sum();
            r_rfos.push(per_k(wasted_rfos));
            r_leak.push(per_k(leaked_m));
            r_nj.push(nj * 1_000.0 / uops as f64);
            r_slow.push(geomean(
                &suite
                    .runs
                    .iter()
                    .zip(&baseline.runs)
                    .map(|(r, b)| r.cycles as f64 / b.cycles as f64)
                    .collect::<Vec<_>>(),
            ));
        }
        rfos.push_row(&label, &r_rfos);
        leaked.push_row(&label, &r_leak);
        energy.push_row(&label, &r_nj);
        slowdown.push_row(&label, &r_slow);
    }
    vec![rfos, leaked, energy, slowdown]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_sim::config::SimConfig;
    use spb_sim::sweep::SweepOptions;

    #[test]
    fn waste_curves_have_the_expected_shape() {
        // One tiny app keeps this affordable in `cargo test`.
        let apps = vec![AppProfile::by_name("x264").unwrap()];
        let mut base = SimConfig::quick();
        base.warmup_uops = 4_000;
        base.measure_uops = 40_000;
        let mut ev = Evaluation::with_configs(base.clone(), base, SweepOptions::from_env());
        let tables = tables_for(&mut ev, &apps);
        assert_eq!(tables.len(), 4);
        let rfos = &tables[0];
        // Rate 0 is the executable zero baseline for every policy…
        for col in ["at-execute", "spb", "at-commit"] {
            assert_eq!(rfos.get("rate=0", col), Some(0.0), "{col}");
        }
        // …at-commit never speculates at any rate…
        for rate in RATES {
            assert_eq!(rfos.get(&format!("rate={rate}"), "at-commit"), Some(0.0));
        }
        // …and at-execute wastes strictly more than nothing under storms,
        // with SPB at or below the per-store curve.
        let exe = rfos.get("rate=0.2", "at-execute").unwrap();
        let spb = rfos.get("rate=0.2", "spb").unwrap();
        assert!(exe > 0.0, "per-store speculation wastes RFOs under storms");
        assert!(
            spb <= exe,
            "SPB's burst waste {spb} must not exceed per-store {exe}"
        );
        let energy = &tables[2];
        assert!(energy.get("rate=0.2", "at-execute").unwrap() > 0.0);
        let slowdown = &tables[3];
        assert_eq!(slowdown.get("rate=0", "spb"), Some(1.0));
    }
}
