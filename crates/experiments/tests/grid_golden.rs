//! Golden-file regression for the quick grid.
//!
//! `results/sweep-grid-quick.json` is a committed artifact of the quick
//! SPEC grid (230 records: 23 apps × (ideal + 3 policies × 3 SB
//! sizes)). The simulator is deterministic, so every simulated field of
//! a fresh run must be **bit-identical** to the committed record —
//! observability on or off. Only `wall_ms` (host time) and the optional
//! report-level `"metrics"` section are allowed to differ.
//!
//! The fast test re-runs one SB-bound app's 10 cells on every `cargo
//! test`; the `#[ignore]`d test replays all 230 (run it with
//! `cargo test -p spb-experiments --test grid_golden -- --ignored`).

use spb_experiments::{Budget, Evaluation};
use spb_sim::sweep::{SweepOptions, SweepRecord, SweepReport};
use spb_trace::profile::AppProfile;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/sweep-grid-quick.json"
);

fn golden() -> SweepReport {
    let text = std::fs::read_to_string(GOLDEN_PATH).expect("committed golden report");
    SweepReport::parse(&text).expect("golden report parses")
}

/// Every simulated field must match; `wall_ms` is host time.
fn assert_same_cell(fresh: &SweepRecord, gold: &SweepRecord) {
    assert_eq!(fresh.app, gold.app);
    assert_eq!(fresh.policy, gold.policy);
    assert_eq!(fresh.sb, gold.sb);
    assert_eq!(
        fresh.cycles, gold.cycles,
        "{} {} sb={}: cycle count drifted from the golden file",
        fresh.app, fresh.policy, fresh.sb
    );
    assert_eq!(fresh.uops, gold.uops, "{}: µop count drifted", fresh.app);
    assert_eq!(
        fresh.ipc.to_bits(),
        gold.ipc.to_bits(),
        "{}: IPC is not bit-identical",
        fresh.app
    );
}

fn check_apps(apps: Vec<AppProfile>) {
    let gold = golden();
    let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
    let grid = Evaluation::new(Budget::Quick, SweepOptions::from_env()).grid(apps.clone());
    let fresh = grid.to_report("fresh").records;
    let expected: Vec<&SweepRecord> = gold
        .records
        .iter()
        .filter(|r| names.contains(&r.app.as_str()))
        .collect();
    assert_eq!(fresh.len(), expected.len(), "cell count mismatch");
    // Both sides are policy-major over the same app subset, but guard
    // against ordering drift by matching on the full cell key.
    for f in &fresh {
        let g = expected
            .iter()
            .find(|g| g.app == f.app && g.policy == f.policy && g.sb == f.sb)
            .unwrap_or_else(|| panic!("{} {} sb={} missing from golden", f.app, f.policy, f.sb));
        assert_same_cell(f, g);
    }
}

#[test]
fn one_app_matches_the_committed_golden_records() {
    check_apps(vec![AppProfile::by_name("x264").expect("suite app")]);
}

#[test]
#[ignore = "replays all 230 quick-grid cells; run explicitly with -- --ignored"]
fn full_quick_grid_matches_the_committed_golden_records() {
    check_apps(AppProfile::spec2017());
}

#[test]
fn golden_report_parse_round_trips() {
    let gold = golden();
    assert_eq!(gold.records.len(), 230);
    let back = SweepReport::parse(&gold.to_json_string()).expect("round trip");
    assert_eq!(back, gold);
}
