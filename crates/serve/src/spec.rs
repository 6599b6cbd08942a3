//! Job specifications: what a client asks the sweep service to run.
//!
//! A [`JobSpec`] is the wire-level description of one sweep: a name, a
//! simulation budget, optional supervision knobs (retry count,
//! per-cell deadline, injected fault rate for chaos testing), and a
//! list of [`CellSpec`]s naming `(app, policy, sb)` cells. It uses the
//! same dependency-free JSON as [`spb_sim::sweep::SweepReport`], so the
//! request and response sides of the protocol share one schema family.

pub use spb_sim::config::Budget;
use spb_sim::config::{PolicyKind, SimConfig};
use spb_stats::json::Json;
use spb_trace::profile::AppProfile;
use spb_trace::SquashConfig;

/// One requested sweep cell: which app, policy, and configured SB size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellSpec {
    /// Application name ([`AppProfile::by_name`]).
    pub app: String,
    /// Policy spelling ([`PolicyKind::parse`]).
    pub policy: String,
    /// Configured SB entries (the *ideal* policy overrides the
    /// effective size regardless).
    pub sb: usize,
}

impl CellSpec {
    /// Every `sbs × policies × apps` cell, SB-major and app-minor.
    pub fn cross(apps: &[String], policies: &[String], sbs: &[usize]) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for &sb in sbs {
            for policy in policies {
                for app in apps {
                    let (app, policy) = (app.clone(), policy.clone());
                    cells.push(CellSpec { app, policy, sb });
                }
            }
        }
        cells
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("app", Json::str(&self.app)),
            ("policy", Json::str(&self.policy)),
            ("sb", Json::from(self.sb)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            app: v
                .get("app")
                .and_then(Json::as_str)
                .ok_or("cell: app must be a string")?
                .to_string(),
            policy: v
                .get("policy")
                .and_then(Json::as_str)
                .ok_or("cell: policy must be a string")?
                .to_string(),
            sb: v
                .get("sb")
                .and_then(Json::as_usize)
                .ok_or("cell: sb must be an integer")?,
        })
    }
}

/// A resolved job: the distinct app profiles plus, per cell in request
/// order, `(profile index, full SimConfig)`.
pub type ResolvedCells = (Vec<AppProfile>, Vec<(usize, SimConfig)>);

/// One sweep job as submitted over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Report name for the result.
    pub name: String,
    /// Simulation budget.
    pub budget: Budget,
    /// Total attempts per cell (1 = no retry).
    pub retry: u32,
    /// Per-attempt deadline in milliseconds (`None` = server default).
    pub deadline_ms: Option<u64>,
    /// Injected transient-fault probability per attempt, in units of
    /// 1/10000 (0 = chaos off). Used by chaos tests.
    pub fault_rate_e4: u32,
    /// Seed for the injected-fault draw.
    pub fault_seed: u64,
    /// Override the budget's warm-up µops (tests use tiny budgets).
    pub warmup_uops: Option<u64>,
    /// Override the budget's measured µops.
    pub measure_uops: Option<u64>,
    /// Override the workload seed.
    pub seed: Option<u64>,
    /// Wrong-path squash model for every cell, as a
    /// [`SquashConfig`] label (absent = model off). Kept as the wire
    /// spelling so old clients and old cache entries are untouched.
    pub squash: Option<String>,
    /// The cells to simulate, in report order.
    pub cells: Vec<CellSpec>,
}

impl JobSpec {
    /// A job with no supervision extras over `cells`.
    pub fn new(name: impl Into<String>, budget: Budget, cells: Vec<CellSpec>) -> Self {
        Self {
            name: name.into(),
            budget,
            retry: 1,
            deadline_ms: None,
            fault_rate_e4: 0,
            fault_seed: 0,
            warmup_uops: None,
            measure_uops: None,
            seed: None,
            squash: None,
            cells,
        }
    }

    /// The full quick grid behind `results/sweep-grid-quick.json`: the
    /// ideal SB plus {at-execute, at-commit, spb} × {14, 28, 56} over
    /// SPEC CPU 2017, in exactly the golden file's record order
    /// (config-major, app-minor).
    pub fn quick_grid() -> Self {
        let apps = AppProfile::spec2017();
        let default_sb = SimConfig::quick().core.sb_entries;
        let mut configs = vec![("ideal", default_sb)];
        for policy in ["at-execute", "at-commit", "spb"] {
            for sb in [14usize, 28, 56] {
                configs.push((policy, sb));
            }
        }
        let cells = configs
            .iter()
            .flat_map(|&(policy, sb)| {
                apps.iter().map(move |a| CellSpec {
                    app: a.name().to_string(),
                    policy: policy.to_string(),
                    sb,
                })
            })
            .collect();
        Self::new("sweep-grid-quick", Budget::Quick, cells)
    }

    /// Serializes the job for the wire.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::str(&self.name)),
            ("budget", Json::str(self.budget.label())),
        ];
        if self.retry != 1 {
            pairs.push(("retry", Json::from(u64::from(self.retry))));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::from(ms)));
        }
        if self.fault_rate_e4 != 0 {
            pairs.push(("fault_rate_e4", Json::from(u64::from(self.fault_rate_e4))));
            pairs.push(("fault_seed", Json::from(self.fault_seed)));
        }
        if let Some(w) = self.warmup_uops {
            pairs.push(("warmup_uops", Json::from(w)));
        }
        if let Some(m) = self.measure_uops {
            pairs.push(("measure_uops", Json::from(m)));
        }
        if let Some(s) = self.seed {
            pairs.push(("seed", Json::from(s)));
        }
        if let Some(sq) = &self.squash {
            pairs.push(("squash", Json::str(sq)));
        }
        pairs.push(("cells", Json::arr(self.cells.iter().map(CellSpec::to_json))));
        Json::obj(pairs)
    }

    /// Parses a job from its wire form.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("job: name must be a string")?
            .to_string();
        let budget = match v.get("budget") {
            None => Budget::default(),
            Some(b) => Budget::parse(b.as_str().ok_or("job: budget must be a string")?)?,
        };
        let retry = match v.get("retry") {
            None => 1,
            Some(r) => u32::try_from(r.as_u64().ok_or("job: retry must be an integer")?)
                .map_err(|_| "job: retry out of range")?,
        };
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(d) => Some(d.as_u64().ok_or("job: deadline_ms must be an integer")?),
        };
        let fault_rate_e4 = match v.get("fault_rate_e4") {
            None => 0,
            Some(r) => u32::try_from(r.as_u64().ok_or("job: fault_rate_e4 must be an integer")?)
                .map_err(|_| "job: fault_rate_e4 out of range")?,
        };
        let fault_seed = match v.get("fault_seed") {
            None => 0,
            Some(s) => s.as_u64().ok_or("job: fault_seed must be an integer")?,
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(x) => Ok(Some(
                    x.as_u64().ok_or(format!("job: {key} must be an integer"))?,
                )),
            }
        };
        let warmup_uops = opt_u64("warmup_uops")?;
        let measure_uops = opt_u64("measure_uops")?;
        let seed = opt_u64("seed")?;
        let squash = match v.get("squash") {
            None => None,
            Some(sq) => {
                let spec = sq.as_str().ok_or("job: squash must be a string")?;
                // Validate at the door so a bad spec is rejected at
                // submission, not when the cell runs.
                SquashConfig::parse(spec).map_err(|e| format!("job: squash: {e}"))?;
                Some(spec.to_string())
            }
        };
        let cells = v
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("job: cells must be an array")?
            .iter()
            .map(CellSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if cells.is_empty() {
            return Err("job: cells must be non-empty".into());
        }
        Ok(Self {
            name,
            budget,
            retry,
            deadline_ms,
            fault_rate_e4,
            fault_seed,
            warmup_uops,
            measure_uops,
            seed,
            squash,
            cells,
        })
    }

    /// The config every cell starts from: the budget's, with the job's
    /// overrides applied. A cell's config is this plus its SB size and
    /// policy.
    pub(crate) fn base_config(&self) -> Result<SimConfig, String> {
        let mut base = self.budget.sim_config();
        if let Some(w) = self.warmup_uops {
            base.warmup_uops = w;
        }
        if let Some(m) = self.measure_uops {
            base.measure_uops = m;
        }
        if let Some(s) = self.seed {
            base.seed = s;
        }
        if let Some(sq) = &self.squash {
            base.squash = SquashConfig::parse(sq).map_err(|e| format!("squash: {e}"))?;
        }
        Ok(base)
    }

    /// Resolves the cell list against the built-in app profiles:
    /// returns the distinct profiles plus, per cell in order, `(profile
    /// index, full SimConfig)`. Errors name the offending cell.
    pub fn resolve(&self) -> Result<ResolvedCells, String> {
        let base = self.base_config()?;
        let mut profiles: Vec<AppProfile> = Vec::new();
        let mut resolved = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let idx = match profiles.iter().position(|p| p.name() == cell.app) {
                Some(i) => i,
                None => {
                    let p = AppProfile::by_name(&cell.app)
                        .map_err(|e| format!("unknown app {:?}: {e}", cell.app))?;
                    profiles.push(p);
                    profiles.len() - 1
                }
            };
            let policy = PolicyKind::parse(&cell.policy)
                .map_err(|e| format!("cell {}/{}: {e}", cell.app, cell.policy))?;
            resolved.push((idx, base.clone().with_sb(cell.sb).with_policy(policy)));
        }
        Ok((profiles, resolved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_through_json() {
        let job = JobSpec {
            name: "unit".into(),
            budget: Budget::Quick,
            retry: 3,
            deadline_ms: Some(60_000),
            fault_rate_e4: 200,
            fault_seed: 7,
            warmup_uops: Some(2_000),
            measure_uops: Some(10_000),
            seed: Some(43),
            squash: Some("rate=0.05,depth=8..32,storm=4,seed=7".into()),
            cells: vec![CellSpec {
                app: "x264".into(),
                policy: "spb".into(),
                sb: 14,
            }],
        };
        let text = job.to_json().to_string();
        assert!(!text.contains('\n'), "wire form is one line: {text}");
        let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, job);

        // Defaults fill in when optional knobs are absent.
        let min = JobSpec::new("m", Budget::Paper, job.cells.clone());
        let back = JobSpec::from_json(&Json::parse(&min.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, min);
        assert_eq!(back.retry, 1);
        assert_eq!(back.fault_rate_e4, 0);
    }

    #[test]
    fn parameterized_policies_survive_the_wire_and_split_cache_keys() {
        // A non-default parameterized spelling round-trips through the
        // wire spec and resolves to the policy it names.
        let job = JobSpec::new(
            "tuned",
            Budget::Quick,
            vec![
                CellSpec {
                    app: "x264".into(),
                    policy: "spb:n=32,dedupe=off,burst=3,frac=0.5".into(),
                    sb: 14,
                },
                CellSpec {
                    app: "x264".into(),
                    policy: "spb-feedback:n=24".into(),
                    sb: 14,
                },
            ],
        );
        let back = JobSpec::from_json(&Json::parse(&job.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, job);
        let (_, resolved) = back.resolve().unwrap();
        assert_eq!(
            resolved[0].1.policy.label(),
            "spb:n=32,dedupe=off,burst=3,frac=0.5"
        );
        assert_eq!(resolved[1].1.policy.label(), "spb-feedback:n=24");

        // Configs differing only in the burst threshold must hash to
        // different cache keys, or the cache would serve one point the
        // other's results.
        let with_burst = |b: &str| {
            let cells = vec![CellSpec {
                app: "x264".into(),
                policy: format!("spb:burst={b}"),
                sb: 14,
            }];
            let job = JobSpec::new("k", Budget::Quick, cells);
            let (_, resolved) = job.resolve().unwrap();
            crate::cache::CacheKey::for_cell("x264", &resolved[0].1)
        };
        assert_ne!(with_burst("3"), with_burst("4"));

        // A typo'd spelling fails resolution with the grammar spelled out.
        let bad = JobSpec::new(
            "bad",
            Budget::Quick,
            vec![CellSpec {
                app: "x264".into(),
                policy: "spb:warp=9".into(),
                sb: 14,
            }],
        );
        let err = bad.resolve().unwrap_err();
        assert!(err.contains("n=1..1024"), "{err}");
    }

    #[test]
    fn squash_specs_survive_the_wire_and_split_cache_keys() {
        let cell = || CellSpec {
            app: "x264".into(),
            policy: "at-execute".into(),
            sb: 14,
        };
        let with_squash = |spec: &str| {
            let mut job = JobSpec::new("sq", Budget::Quick, vec![cell()]);
            job.squash = Some(spec.into());
            job
        };

        // The spec round-trips through the wire…
        let job = with_squash("rate=0.1,depth=8..32,storm=2,seed=5");
        let back = JobSpec::from_json(&Json::parse(&job.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, job);
        // …and resolves into every cell's SimConfig.
        let (_, resolved) = back.resolve().unwrap();
        assert!(resolved[0].1.squash.enabled());
        assert_eq!(
            resolved[0].1.squash,
            SquashConfig::parse("rate=0.1,depth=8..32,storm=2,seed=5").unwrap()
        );

        // Two jobs differing only in the squash *seed* must hash to
        // different cache keys, and a squash job must never collide
        // with the squash-less cell it wraps.
        let key = |job: &JobSpec| {
            let (_, resolved) = job.resolve().unwrap();
            crate::cache::CacheKey::for_cell("x264", &resolved[0].1)
        };
        let k1 = key(&with_squash("rate=0.1,depth=8..32,seed=1"));
        let k2 = key(&with_squash("rate=0.1,depth=8..32,seed=2"));
        let plain = key(&JobSpec::new("p", Budget::Quick, vec![cell()]));
        assert_ne!(k1, k2, "squash seed must split the cache key");
        assert_ne!(k1, plain, "squash cells must not reuse plain results");

        // A rate-0 spec disables the model and keeps the plain key, so
        // old cache entries stay valid.
        assert_eq!(key(&with_squash("rate=0,seed=9")), plain);

        // A malformed spec is rejected at submission time.
        let text = with_squash("rate=2").to_json().to_string();
        assert!(JobSpec::from_json(&Json::parse(&text).unwrap()).is_err());
    }

    #[test]
    fn quick_grid_matches_the_golden_shape() {
        let job = JobSpec::quick_grid();
        assert_eq!(job.cells.len(), 230, "23 apps × (1 ideal + 9 policy/sb)");
        assert_eq!(job.name, "sweep-grid-quick");
        assert_eq!(job.cells[0].policy, "ideal");
        let (profiles, resolved) = job.resolve().unwrap();
        assert_eq!(profiles.len(), 23);
        assert_eq!(resolved.len(), 230);
        // The first block is the ideal suite over all apps in order.
        assert_eq!(profiles[resolved[0].0].name(), job.cells[0].app);
    }

    #[test]
    fn resolve_rejects_unknown_apps_and_policies() {
        let mut job = JobSpec::quick_grid();
        job.cells[0].app = "not-a-benchmark".into();
        assert!(job.resolve().unwrap_err().contains("not-a-benchmark"));
        let mut job = JobSpec::quick_grid();
        job.cells[1].policy = "magic".into();
        assert!(job.resolve().unwrap_err().contains("magic"));
    }

    #[test]
    fn budget_labels_round_trip_and_each_entry_point_keeps_its_default() {
        for b in [Budget::Quick, Budget::Paper] {
            assert_eq!(Budget::parse(b.label()), Ok(b));
        }
        // The wire default: a job without a `budget` field runs quick.
        let job = r#"{"name":"x","cells":[{"app":"x264","policy":"spb","sb":14}]}"#;
        let job = JobSpec::from_json(&Json::parse(job).unwrap()).unwrap();
        assert_eq!(job.budget, Budget::Quick);
        // An experiment binary run without `--quick` spends the paper budget.
        assert_eq!(Budget::parse_args([] as [&str; 0]), Ok(Budget::Paper));
    }

    #[test]
    fn from_json_rejects_malformed_jobs() {
        for bad in [
            r#"{"cells":[]}"#,
            r#"{"name":"x","cells":[]}"#,
            r#"{"name":"x","budget":"warp","cells":[{"app":"a","policy":"p","sb":1}]}"#,
            r#"{"name":"x","cells":[{"app":"a"}]}"#,
        ] {
            assert!(
                JobSpec::from_json(&Json::parse(bad).unwrap()).is_err(),
                "must reject {bad}"
            );
        }
    }
}
