//! End-to-end tune determinism: the same invocation run twice against
//! one cache directory must produce a byte-identical report, with the
//! second run served entirely from cache — the property `spb-cli`'s
//! `tune_rerun` test checks at scale through `spbsim tune`.

use spb_serve::{CacheKey, Lookup};
use spb_sim::config::SimConfig;
use spb_sim::sweep::{run_cells, Supervision, SweepOptions, SweepRecord};
use spb_trace::profile::AppProfile;
use spb_tune::engine::{run_tune, Strategy, TuneOptions};
use spb_tune::report::TuneReport;
use spb_tune::space::TuneSpace;

fn tiny_options(strategy: Strategy) -> TuneOptions {
    let mut base_cfg = SimConfig::quick();
    base_cfg.warmup_uops = 2_000;
    base_cfg.measure_uops = 10_000;
    TuneOptions {
        strategy,
        seed: 7,
        points: 6,
        space: TuneSpace::default(),
        base_cfg,
        apps: vec![AppProfile::by_name("x264").unwrap()],
        sweep: SweepOptions::with_jobs(2),
        supervision: Supervision::with_retries(2),
    }
}

fn report_text(opts: &TuneOptions, cache: &spb_serve::ResultCache) -> (String, u64, u64) {
    let outcome = run_tune(opts, cache);
    let stats = outcome.stats;
    let report = TuneReport::new("tune-test", opts, outcome);
    (
        report.to_json_string_checksummed(),
        stats.cache_hits,
        stats.computed,
    )
}

fn tmp_cache(tag: &str) -> spb_serve::ResultCache {
    let dir = std::env::temp_dir().join(format!("spb-tune-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    spb_serve::ResultCache::open(dir).unwrap()
}

#[test]
fn halving_tune_is_bit_identical_and_fully_cached_on_rerun() {
    let opts = tiny_options(Strategy::Halving);
    let cache = tmp_cache("halving");
    let (first, hits1, computed1) = report_text(&opts, &cache);
    assert!(computed1 > 0, "cold run simulates");
    assert_eq!(hits1, 0, "cold cache has no hits");
    let (second, hits2, computed2) = report_text(&opts, &cache);
    assert_eq!(first, second, "re-run must be byte-identical");
    assert_eq!(computed2, 0, "warm run must be 100% cache hits");
    assert!(hits2 > 0);
    assert!(first.contains("\"frontier\""));
    std::fs::remove_dir_all(cache.dir()).unwrap();
}

#[test]
fn tune_cells_are_shared_between_strategies_through_the_cache() {
    // A grid over the same points a random sample chose hits the same
    // content-addressed keys: cache reuse is by cell, not by tune.
    let cache = tmp_cache("shared");
    let random = tiny_options(Strategy::Random);
    let (_, _, computed_cold) = report_text(&random, &cache);
    assert!(computed_cold > 0);
    let (_, hits_warm, _) = report_text(&random, &cache);
    assert_eq!(hits_warm as usize, random.points, "one hit per point×app");
    std::fs::remove_dir_all(cache.dir()).unwrap();
}

#[test]
fn grid_strategy_respects_canonical_order() {
    let cache = tmp_cache("grid");
    let mut opts = tiny_options(Strategy::Grid);
    opts.points = 3;
    let outcome = run_tune(&opts, &cache);
    let names: Vec<String> = outcome.points.iter().map(|p| p.point.name()).collect();
    assert_eq!(
        names,
        TuneSpace::default()
            .enumerate()
            .iter()
            .take(3)
            .map(|p| p.name())
            .collect::<Vec<_>>()
    );
    assert!(!outcome.frontier.is_empty());
    std::fs::remove_dir_all(cache.dir()).unwrap();
}

#[test]
fn entries_without_objectives_are_recomputed_and_upgraded() {
    // A service-written entry (`from_run`) lacks energy and coherence:
    // a tune recomputes the cell and rewrites the entry with both.
    let cache = tmp_cache("upgrade");
    let mut opts = tiny_options(Strategy::Grid);
    opts.points = 3;
    let (app, base) = (&opts.apps[0], &opts.base_cfg);
    let cells: Vec<(&AppProfile, SimConfig)> = TuneSpace::default().enumerate()[..3]
        .iter()
        .map(|p| (app, base.clone().with_sb(p.sb).with_policy(p.policy)))
        .collect();
    let keys: Vec<CacheKey> = cells
        .iter()
        .map(|(a, c)| CacheKey::for_cell(a.name(), c))
        .collect();
    for (key, run) in keys.iter().zip(run_cells(&cells, &opts.sweep)) {
        let plain = SweepRecord::from_run(&run);
        cache.store(*key, app.name(), &plain).unwrap();
    }
    let computed = |opts: &TuneOptions| report_text(opts, &cache).2;
    assert_eq!(computed(&opts), 3, "plain entries cannot serve a tune");
    for key in &keys {
        let Lookup::Hit(rec) = cache.lookup(*key) else {
            panic!("the entry was not rewritten");
        };
        assert!(rec.energy_nj.is_some() && rec.coh_msgs.is_some(), "{rec:?}");
    }
    assert_eq!(computed(&opts), 0, "the upgraded entries serve the rerun");
    std::fs::remove_dir_all(cache.dir()).unwrap();
}
