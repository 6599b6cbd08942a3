//! The one evaluation every figure reads from.
//!
//! A figure asks an [`Evaluation`] for the suites it needs; the
//! evaluation simulates only the cells it has not seen before and
//! serves the rest from memory. A cell is identified by
//! [`SimConfig::cell_identity`], the text the sweep service's cache key
//! hashes, so two figures that build the same configuration by
//! different routes share one run. The `all` binary passes one
//! evaluation through every figure; `spbsim experiment` gives each run
//! a fresh one.

use crate::grid::{policies, Grid, SB_SIZES};
use crate::Budget;
use spb_sim::config::{PolicyKind, SimConfig};
use spb_sim::suite::SuiteResult;
use spb_sim::sweep::{run_cells, SweepOptions};
use spb_sim::RunResult;
use spb_trace::profile::AppProfile;
use std::collections::{HashMap, HashSet};

/// A memo of simulated cells over fixed base configurations.
pub struct Evaluation {
    base: SimConfig,
    parsec_base: SimConfig,
    opts: SweepOptions,
    runs: HashMap<String, RunResult>,
    requested: usize,
    simulated: usize,
}

impl Evaluation {
    /// An empty evaluation over the base configurations `budget` names.
    pub fn new(budget: Budget, opts: SweepOptions) -> Self {
        Self::with_configs(budget.sim_config(), budget.parsec_sim_config(), opts)
    }

    /// An empty evaluation over explicit base configurations: `base`
    /// for single-threaded suites, `parsec_base` for 8-thread PARSEC.
    pub fn with_configs(base: SimConfig, parsec_base: SimConfig, opts: SweepOptions) -> Self {
        Self {
            base,
            parsec_base,
            opts,
            runs: HashMap::new(),
            requested: 0,
            simulated: 0,
        }
    }

    /// The base configuration of single-threaded suites.
    pub fn base(&self) -> SimConfig {
        self.base.clone()
    }

    /// The base configuration of 8-thread PARSEC suites.
    pub fn parsec_base(&self) -> SimConfig {
        self.parsec_base.clone()
    }

    /// Cells asked for so far, repeats included.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// Cells simulated so far: each distinct cell once.
    pub fn simulated(&self) -> usize {
        self.simulated
    }

    /// Both counts, as `all` and `spbsim experiment` print them.
    pub fn work_line(&self) -> String {
        format!(
            "{} cells requested, {} simulated",
            self.requested, self.simulated
        )
    }

    /// One suite per config, each over every app. The cells not yet
    /// simulated run as one flattened batch, so the worker pool never
    /// drains between suites.
    pub fn suites(&mut self, apps: &[AppProfile], configs: &[SimConfig]) -> Vec<SuiteResult> {
        let keys: Vec<Vec<String>> = configs
            .iter()
            .map(|c| apps.iter().map(|a| c.cell_identity(a.name())).collect())
            .collect();
        let mut missing: Vec<(&AppProfile, SimConfig)> = Vec::new();
        let mut pending = HashSet::new();
        for (cfg, row) in configs.iter().zip(&keys) {
            for (app, key) in apps.iter().zip(row) {
                if !self.runs.contains_key(key) && pending.insert(key) {
                    missing.push((app, cfg.clone()));
                }
            }
        }
        self.requested += apps.len() * configs.len();
        self.simulated += missing.len();
        for ((app, cfg), run) in missing.iter().zip(run_cells(&missing, &self.opts)) {
            self.runs.insert(cfg.cell_identity(app.name()), run);
        }
        let sb_bound: Vec<bool> = apps.iter().map(AppProfile::is_sb_bound).collect();
        keys.iter()
            .map(|row| SuiteResult {
                runs: row.iter().map(|k| self.runs[k].clone()).collect(),
                sb_bound: sb_bound.clone(),
            })
            .collect()
    }

    /// One config over every app.
    pub fn suite(&mut self, apps: &[AppProfile], cfg: &SimConfig) -> SuiteResult {
        self.suites(apps, std::slice::from_ref(cfg)).remove(0)
    }

    /// The main comparison over `apps`: the ideal SB plus every
    /// `policy × SB size` suite of the base configuration.
    pub fn grid(&mut self, apps: Vec<AppProfile>) -> Grid {
        let mut configs = vec![self.base().with_policy(PolicyKind::IdealSb)];
        for p in policies() {
            for &sb in &SB_SIZES {
                configs.push(self.base().with_sb(sb).with_policy(p));
            }
        }
        let mut suites = self.suites(&apps, &configs).into_iter();
        let ideal = suites.next().expect("the ideal suite");
        let results = policies()
            .iter()
            .map(|_| suites.by_ref().take(SB_SIZES.len()).collect())
            .collect();
        Grid {
            apps,
            ideal,
            results,
        }
    }
}
