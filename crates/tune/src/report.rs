//! Pareto-frontier reports: JSON (machine-readable, checksummed,
//! bit-identical across re-runs) and a text table for the terminal.
//!
//! The JSON deliberately excludes everything nondeterministic — wall
//! clock, cache hit/miss counts, worker counts — so running the same
//! tune twice (one cold, one served from cache) produces **byte-equal**
//! files. That property is gated by `tests/tune_determinism.rs` here
//! and, through the `spbsim tune` command line, by `spb-cli`'s
//! `tune_rerun` test; it lets a report's checksum stand in for the
//! whole design-space evaluation.

use crate::engine::{TuneOptions, TuneOutcome};
use spb_sim::sweep::write_atomically;
use spb_stats::hash::{fnv1a64, hex16};
use spb_stats::json::Json;
use std::path::{Path, PathBuf};

/// A finished tune, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Report name (file stem under `results/`).
    pub name: String,
    /// Strategy label (`grid` / `random` / `halving`).
    pub strategy: String,
    /// Sampling seed.
    pub seed: u64,
    /// Candidate count requested (0 = whole space).
    pub points_requested: usize,
    /// Warm-up µops per cell at the full budget.
    pub warmup_uops: u64,
    /// Measured µops per cell at the full budget.
    pub measure_uops: u64,
    /// Workload seed shared by every cell.
    pub workload_seed: u64,
    /// App names every point was scored over, in objective-sum order.
    pub apps: Vec<String>,
    /// The evaluated points, frontier, and failures.
    pub outcome: TuneOutcome,
}

impl TuneReport {
    /// The report of `outcome`, a tune run under `opts`, named `name`.
    pub fn new(name: impl Into<String>, opts: &TuneOptions, outcome: TuneOutcome) -> Self {
        Self {
            name: name.into(),
            strategy: opts.strategy.label().into(),
            seed: opts.seed,
            points_requested: opts.points,
            warmup_uops: opts.base_cfg.warmup_uops,
            measure_uops: opts.base_cfg.measure_uops,
            workload_seed: opts.base_cfg.seed,
            apps: opts.apps.iter().map(|a| a.name().to_string()).collect(),
            outcome,
        }
    }

    /// The report body (everything except the checksum).
    pub fn body_json(&self) -> Json {
        let point_row = |p: &crate::engine::PointOutcome| {
            Json::obj([
                ("point", Json::str(p.point.name())),
                ("policy", Json::str(p.point.policy.label())),
                ("sb", Json::from(p.point.sb)),
                ("pareto", Json::from(p.pareto)),
                ("cycles", Json::from(p.objectives.cycles)),
                ("energy_nj", Json::from(p.objectives.energy_nj)),
                ("coh_msgs", Json::from(p.objectives.coh_msgs)),
                (
                    "cells",
                    Json::arr(p.cells.iter().map(|c| {
                        Json::obj([
                            ("app", Json::str(&c.app)),
                            ("key", Json::str(&c.key)),
                            ("cycles", Json::from(c.cycles)),
                            ("energy_nj", Json::from(c.energy_nj)),
                            ("coh_msgs", Json::from(c.coh_msgs)),
                        ])
                    })),
                ),
            ])
        };
        let frontier_row = |i: &usize| {
            let p = &self.outcome.points[*i];
            Json::obj([
                ("point", Json::str(p.point.name())),
                ("cycles", Json::from(p.objectives.cycles)),
                ("energy_nj", Json::from(p.objectives.energy_nj)),
                ("coh_msgs", Json::from(p.objectives.coh_msgs)),
                (
                    "edp_nj_cycles",
                    Json::from(p.objectives.energy_nj * p.objectives.cycles as f64),
                ),
            ])
        };
        let mut pairs = vec![
            ("name", Json::str(&self.name)),
            ("strategy", Json::str(&self.strategy)),
            ("seed", Json::from(self.seed)),
            ("points_requested", Json::from(self.points_requested)),
            ("warmup_uops", Json::from(self.warmup_uops)),
            ("measure_uops", Json::from(self.measure_uops)),
            ("workload_seed", Json::from(self.workload_seed)),
            ("apps", Json::arr(self.apps.iter().map(Json::str))),
        ];
        if let Some((candidates, survivors)) = self.outcome.screen {
            pairs.push((
                "screen",
                Json::obj([
                    ("candidates", Json::from(candidates)),
                    ("survivors", Json::from(survivors)),
                ]),
            ));
        }
        pairs.push(("evaluated", Json::from(self.outcome.points.len())));
        if !self.outcome.failed.is_empty() {
            pairs.push((
                "failed",
                Json::arr(self.outcome.failed.iter().map(|f| {
                    Json::obj([
                        ("point", Json::str(&f.point)),
                        ("reason", Json::str(&f.reason)),
                    ])
                })),
            ));
        }
        pairs.push((
            "frontier",
            Json::arr(self.outcome.frontier.iter().map(frontier_row)),
        ));
        pairs.push((
            "points",
            Json::arr(self.outcome.points.iter().map(point_row)),
        ));
        Json::obj(pairs)
    }

    /// Compact one-line JSON (the checksum input).
    pub fn to_json_string(&self) -> String {
        format!("{}", self.body_json())
    }

    /// `fnv1a64:<hex>` over the compact body.
    pub fn content_checksum(&self) -> String {
        format!(
            "fnv1a64:{}",
            hex16(fnv1a64(self.to_json_string().as_bytes()))
        )
    }

    /// Pretty JSON with a trailing `"checksum"` field — what
    /// [`TuneReport::save`] writes.
    pub fn to_json_string_checksummed(&self) -> String {
        let mut v = self.body_json();
        if let Json::Obj(pairs) = &mut v {
            pairs.push(("checksum".to_string(), Json::str(self.content_checksum())));
        }
        format!("{v:#}\n")
    }

    /// The terminal rendering: a frontier table plus a one-line summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let o = &self.outcome;
        out.push_str(&format!(
            "tune {} — strategy {} seed {} · {} point(s) evaluated over {} app(s)\n",
            self.name,
            self.strategy,
            self.seed,
            o.points.len(),
            self.apps.len()
        ));
        if let Some((candidates, survivors)) = o.screen {
            out.push_str(&format!(
                "screen: {candidates} candidate(s) at quarter budget, {survivors} survivor(s) at full budget\n"
            ));
        }
        if !o.failed.is_empty() {
            out.push_str(&format!("failed: {} point(s) dropped\n", o.failed.len()));
        }
        out.push_str(&format!(
            "\nPareto frontier ({} of {} points):\n",
            o.frontier.len(),
            o.points.len()
        ));
        out.push_str(&format!(
            "  {:<34} {:>12} {:>14} {:>10} {:>16}\n",
            "point", "cycles", "energy (nJ)", "coh msgs", "EDP (nJ·cyc)"
        ));
        for &i in &o.frontier {
            let p = &o.points[i];
            out.push_str(&format!(
                "  {:<34} {:>12} {:>14.1} {:>10} {:>16.3e}\n",
                p.point.name(),
                p.objectives.cycles,
                p.objectives.energy_nj,
                p.objectives.coh_msgs,
                p.objectives.energy_nj * p.objectives.cycles as f64,
            ));
        }
        out
    }

    /// Writes the checksummed report atomically
    /// ([`write_atomically`]) as `<dir>/<name>.json` and returns the
    /// path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        write_atomically(&path, &self.to_json_string_checksummed())?;
        Ok(path)
    }
}
