//! Differential tests: the parallel sweep executor must be
//! bit-identical to the serial path, field for field, for every job
//! count — the whole point of the worker pool is that it changes wall
//! time and nothing else.

use spb_sim::config::{PolicyKind, SimConfig};
use spb_sim::suite::SuiteResult;
use spb_sim::sweep::{SweepOptions, SweepReport};
use spb_sim::RunResult;
use spb_trace::profile::AppProfile;

fn apps() -> Vec<AppProfile> {
    ["x264", "povray", "gcc"]
        .iter()
        .map(|n| AppProfile::by_name(n).unwrap())
        .collect()
}

fn small_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::quick()
        .with_sb(14)
        .with_policy(PolicyKind::spb_default());
    cfg.warmup_uops = 5_000;
    cfg.measure_uops = 25_000;
    cfg.seed = seed;
    cfg
}

/// Every field except the wall-clock observability ones must match.
fn assert_runs_identical(a: &RunResult, b: &RunResult, context: &str) {
    assert_eq!(a.app, b.app, "{context}: app");
    assert_eq!(a.policy, b.policy, "{context}: policy");
    assert_eq!(a.sb_entries, b.sb_entries, "{context}: sb_entries");
    assert_eq!(a.cycles, b.cycles, "{context}: cycles ({})", a.app);
    assert_eq!(a.uops, b.uops, "{context}: uops ({})", a.app);
    assert_eq!(a.topdown, b.topdown, "{context}: topdown ({})", a.app);
    assert_eq!(a.cpu, b.cpu, "{context}: cpu stats ({})", a.app);
    assert_eq!(a.mem, b.mem, "{context}: mem stats ({})", a.app);
    assert_eq!(
        a.sb_residency, b.sb_residency,
        "{context}: sb_residency histogram ({})",
        a.app
    );
    assert_eq!(
        a.burst_lengths, b.burst_lengths,
        "{context}: burst_lengths histogram ({})",
        a.app
    );
    assert_eq!(a.energy, b.energy, "{context}: energy ({})", a.app);
}

#[test]
fn parallel_suite_equals_serial_across_seeds_and_job_counts() {
    for seed in [42u64, 7] {
        let cfg = small_cfg(seed);
        let serial = SuiteResult::run_with(&apps(), &cfg, &SweepOptions::serial());
        for jobs in [1usize, 2, 8] {
            let parallel = SuiteResult::run_with(&apps(), &cfg, &SweepOptions::with_jobs(jobs));
            assert_eq!(parallel.sb_bound, serial.sb_bound);
            assert_eq!(parallel.runs.len(), serial.runs.len());
            for (p, s) in parallel.runs.iter().zip(&serial.runs) {
                assert_runs_identical(p, s, &format!("seed {seed}, jobs {jobs}"));
            }
        }
    }
}

#[test]
fn default_run_path_equals_serial() {
    // `SweepOptions::from_env` picks the job count from the
    // environment; the results must still be the serial ones whatever
    // it picked.
    let cfg = small_cfg(42);
    let serial = SuiteResult::run_with(&apps(), &cfg, &SweepOptions::serial());
    let auto = SuiteResult::run_with(&apps(), &cfg, &SweepOptions::from_env());
    for (a, s) in auto.runs.iter().zip(&serial.runs) {
        assert_runs_identical(a, s, "env-selected jobs");
    }
}

#[test]
fn sweep_report_from_real_runs_round_trips() {
    let cfg = small_cfg(42);
    let suite = SuiteResult::run_with(&apps(), &cfg, &SweepOptions::with_jobs(2));
    let report = SweepReport::new("differential", &suite.runs);
    assert_eq!(report.records.len(), suite.runs.len());
    for (rec, run) in report.records.iter().zip(&suite.runs) {
        assert_eq!(rec.app, run.app);
        assert_eq!(rec.cycles, run.cycles);
        assert!((rec.ipc - run.ipc()).abs() < 1e-12);
    }
    let parsed = SweepReport::parse(&report.to_json_string()).unwrap();
    assert_eq!(parsed, report);
}
