//! Machine-readable benchmark snapshots (`BENCH_*.json`).
//!
//! The harness prints one JSON line per benchmark; this module gives
//! that line a schema (`spb-bench-v1`), collects lines into a snapshot
//! file tagged with the kernel that produced it, and compares two
//! snapshots (the committed `BENCH_BASELINE.json` against a fresh run)
//! with non-blocking regression warnings.

use spb_sim::{KernelMode, PolicyKind, SimConfig, Simulation};
use spb_stats::json::Json;
use spb_trace::profile::AppProfile;
use std::time::Instant;

/// Snapshot schema identifier; bump on layout changes. Derived fields
/// (`mops_per_sec`, `geomean_mops`) are additive — old snapshots parse
/// fine without them, so they do not bump the schema.
pub const SCHEMA: &str = "spb-bench-v1";

/// Warn when a benchmark's minimum regresses by more than this factor.
pub const REGRESSION_TOLERANCE: f64 = 1.15;

/// Fail the bench gate when a benchmark's median regresses more than
/// this factor beyond the snapshot-wide median ratio (see
/// [`BenchSnapshot::gate_failures`]).
pub const GATE_TOLERANCE: f64 = 1.25;

/// One benchmark's timing samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name (`group/id`).
    pub name: String,
    /// Wall time of each timed iteration, in nanoseconds.
    pub samples_ns: Vec<u64>,
    /// Logical elements processed per iteration, if the group declared
    /// a throughput.
    pub elements: Option<u64>,
}

impl BenchRecord {
    /// Fastest sample, in nanoseconds.
    pub(crate) fn min_ns(&self) -> u64 {
        self.samples_ns.iter().copied().min().unwrap_or(0)
    }

    /// Arithmetic mean, in (fractional) nanoseconds.
    pub(crate) fn mean_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.iter().map(|&n| n as f64).sum::<f64>() / self.samples_ns.len() as f64
    }

    /// Median sample, in nanoseconds (midpoint average for even counts).
    pub(crate) fn median_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let mut s = self.samples_ns.clone();
        s.sort_unstable();
        let mid = s.len() / 2;
        if s.len() % 2 == 1 {
            s[mid] as f64
        } else {
            (s[mid - 1] + s[mid]) as f64 / 2.0
        }
    }

    /// Elements per second at the median, if a throughput was declared.
    pub(crate) fn per_sec(&self) -> Option<f64> {
        let med = self.median_ns();
        self.elements
            .filter(|_| med > 0.0)
            .map(|n| n as f64 / (med / 1e9))
    }

    /// Millions of operations per second at the median — the
    /// human-facing throughput number the snapshot records per bench.
    pub(crate) fn mops_per_sec(&self) -> Option<f64> {
        self.per_sec().map(|p| p / 1e6)
    }

    /// The record as a JSON value (one line when rendered compact).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::str(&*self.name)),
            (
                "samples_ns",
                Json::arr(self.samples_ns.iter().map(|&n| Json::from(n))),
            ),
            ("min_ns", Json::from(self.min_ns())),
            ("mean_ns", Json::from(self.mean_ns())),
            ("median_ns", Json::from(self.median_ns())),
        ];
        if let Some(n) = self.elements {
            pairs.push(("elements", Json::from(n)));
        }
        if let Some(m) = self.mops_per_sec() {
            pairs.push(("mops_per_sec", Json::from(m)));
        }
        Json::obj(pairs)
    }

    /// Parses a record back from [`BenchRecord::to_json`]'s layout.
    pub fn from_json(v: &Json) -> Result<BenchRecord, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("record missing \"name\"")?
            .to_string();
        let samples_ns = v
            .get("samples_ns")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("record {name} missing \"samples_ns\""))?
            .iter()
            .map(|s| s.as_u64().ok_or_else(|| format!("{name}: bad sample")))
            .collect::<Result<Vec<u64>, _>>()?;
        if samples_ns.is_empty() {
            return Err(format!("record {name} has no samples"));
        }
        let elements = v.get("elements").and_then(Json::as_u64);
        Ok(BenchRecord {
            name,
            samples_ns,
            elements,
        })
    }
}

/// A set of benchmark records produced by one binary/kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Simulation kernel label (`tick` / `event`) the run used.
    pub kernel: String,
    /// One record per benchmark.
    pub records: Vec<BenchRecord>,
}

impl BenchSnapshot {
    /// Geometric mean of per-bench median throughput (Mops/s), across
    /// records that declared a throughput. The single headline number a
    /// snapshot carries.
    pub(crate) fn geomean_mops(&self) -> Option<f64> {
        let mut log_sum = 0.0;
        let mut n = 0u32;
        for r in &self.records {
            if let Some(m) = r.mops_per_sec() {
                if m > 0.0 {
                    log_sum += m.ln();
                    n += 1;
                }
            }
        }
        (n > 0).then(|| (log_sum / f64::from(n)).exp())
    }

    /// Renders the snapshot as pretty-printed `spb-bench-v1` JSON.
    pub fn to_json_string(&self) -> String {
        let mut pairs = vec![
            ("schema", Json::str(SCHEMA)),
            ("kernel", Json::str(&*self.kernel)),
        ];
        if let Some(g) = self.geomean_mops() {
            pairs.push(("geomean_mops", Json::from(g)));
        }
        pairs.push((
            "benches",
            Json::arr(self.records.iter().map(BenchRecord::to_json)),
        ));
        let v = Json::obj(pairs);
        format!("{v:#}\n")
    }

    /// Parses and schema-validates a snapshot file's contents.
    pub fn parse(text: &str) -> Result<BenchSnapshot, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("expected schema {SCHEMA:?}, found {other:?}")),
        }
        let kernel = v
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or("snapshot missing \"kernel\"")?
            .to_string();
        let records = v
            .get("benches")
            .and_then(Json::as_arr)
            .ok_or("snapshot missing \"benches\"")?
            .iter()
            .map(BenchRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if records.is_empty() {
            return Err("snapshot has no benchmark records".into());
        }
        Ok(BenchSnapshot {
            kernel,
            records,
        })
    }

    /// Geometric-mean speedup of `new` over `self`, across benchmarks
    /// present in both (>1 means `new` is faster). Compares the
    /// **minimum** samples: benches run on shared machines, and
    /// contention only ever inflates a sample, so the minimum is the
    /// least-noisy estimate of true cost.
    pub(crate) fn geomean_speedup(&self, new: &BenchSnapshot) -> Option<f64> {
        let mut log_sum = 0.0;
        let mut n = 0u32;
        for base in &self.records {
            let Some(fresh) = new.records.iter().find(|r| r.name == base.name) else {
                continue;
            };
            let (b, f) = (base.min_ns() as f64, fresh.min_ns() as f64);
            if b > 0.0 && f > 0.0 {
                log_sum += (b / f).ln();
                n += 1;
            }
        }
        (n > 0).then(|| (log_sum / f64::from(n)).exp())
    }

    /// The comparison table of `new` against this baseline: one
    /// min-of-samples ratio line per bench present in both, then the
    /// geometric-mean speedup and throughput lines.
    pub fn comparison(&self, new: &BenchSnapshot) -> String {
        let mut out = String::new();
        for b in &self.records {
            if let Some(n) = new.records.iter().find(|r| r.name == b.name) {
                let (b_ms, n_ms) = (b.min_ns() as f64 / 1e6, n.min_ns() as f64 / 1e6);
                let ratio = b.min_ns() as f64 / (n.min_ns() as f64).max(1.0);
                let name = &b.name;
                out += &format!("{name:<44} {b_ms:>9.2}ms -> {n_ms:>9.2}ms  ({ratio:>5.2}x)\n");
            }
        }
        out += &match self.geomean_speedup(new) {
            Some(g) => format!("geomean speedup: {g:.2}x\n"),
            None => "geomean speedup: no common benchmarks\n".into(),
        };
        if let (Some(b), Some(n)) = (self.geomean_mops(), new.geomean_mops()) {
            out += &format!("geomean throughput: {b:.3} -> {n:.3} Mops/s\n");
        }
        out
    }

    /// Per-benchmark regression warnings: `new` minima more than
    /// [`REGRESSION_TOLERANCE`] above this baseline's. Informational —
    /// callers print them without failing the build.
    pub fn regressions(&self, new: &BenchSnapshot) -> Vec<String> {
        let mut out = Vec::new();
        for base in &self.records {
            let Some(fresh) = new.records.iter().find(|r| r.name == base.name) else {
                out.push(format!("{}: missing from new snapshot", base.name));
                continue;
            };
            let (b, f) = (base.min_ns() as f64, fresh.min_ns() as f64);
            if b > 0.0 && f > b * REGRESSION_TOLERANCE {
                out.push(format!(
                    "{}: min {:.2}ms vs baseline {:.2}ms ({:+.1}%)",
                    base.name,
                    f / 1e6,
                    b / 1e6,
                    (f / b - 1.0) * 100.0
                ));
            }
        }
        out
    }

    /// Blocking gate check: per-bench **min-of-samples** ratios of
    /// `new` over this baseline, calibrated by the snapshot-wide
    /// median of those ratios.
    ///
    /// The calibration makes the gate portable across machines: if the
    /// runner is uniformly 20% slower than the box that recorded the
    /// baseline, every ratio shifts by the same factor and the median
    /// absorbs it. What the gate then catches is a *relative*
    /// regression — a bench that got slower than its peers did — which
    /// is exactly what a code change (as opposed to a machine change)
    /// produces. The per-bench estimator is the minimum sample
    /// (contention only inflates samples, so the minimum is the
    /// least-noisy cost estimate), and [`GATE_TOLERANCE`] is set above
    /// the measured same-code run-to-run spread of those minima on a
    /// noisy shared box (~±15%): a flaky gate teaches people to ignore
    /// it, so the threshold is deliberately coarse and reliable. A
    /// bench exceeding the calibrated limit, or missing from `new`,
    /// is a failure. An empty return means the gate passes.
    pub fn gate_failures(&self, new: &BenchSnapshot) -> Vec<String> {
        let report = self.gate_report(new);
        let mut out: Vec<String> = report
            .missing
            .iter()
            .map(|name| format!("{name}: missing from new snapshot"))
            .collect();
        for b in report.benches.iter().filter(|b| b.failed) {
            out.push(format!(
                "{}: min-sample ratio {:.3} exceeds limit {:.3} \
                 (machine factor {:.3} x tolerance {GATE_TOLERANCE})",
                b.name, b.ratio, report.limit, report.machine,
            ));
        }
        out
    }

    /// The full per-bench view behind [`BenchSnapshot::gate_failures`]:
    /// every common bench with its calibrated ratio and verdict, so a
    /// failing gate is attributable to the specific `app-policy` cells
    /// that regressed instead of a bare summary count.
    pub fn gate_report(&self, new: &BenchSnapshot) -> GateReport {
        let mut report = GateReport::default();
        let mut ratios = Vec::new();
        for base in &self.records {
            let Some(fresh) = new.records.iter().find(|r| r.name == base.name) else {
                report.missing.push(base.name.clone());
                continue;
            };
            let (b, f) = (base.min_ns(), fresh.min_ns());
            if b > 0 && f > 0 {
                ratios.push((base.name.clone(), f as f64 / b as f64));
            }
        }
        if ratios.is_empty() {
            return report;
        }
        let mut sorted: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        report.machine = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        report.limit = report.machine * GATE_TOLERANCE;
        report.benches = ratios
            .into_iter()
            .map(|(name, ratio)| GateBench {
                name,
                ratio,
                failed: ratio > report.limit,
            })
            .collect();
        report
    }
}

/// One bench's verdict in a [`GateReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct GateBench {
    /// Bench name (`quick_grid/<app>-<policy>-sb14`).
    pub name: String,
    /// Min-of-samples ratio of new over baseline (>1 = slower).
    pub ratio: f64,
    /// Whether the ratio exceeds the calibrated limit.
    pub failed: bool,
}

/// Structured result of a gate comparison (see
/// [`BenchSnapshot::gate_report`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Snapshot-wide median ratio — the machine-speed calibration.
    pub machine: f64,
    /// The failure threshold: `machine × GATE_TOLERANCE`.
    pub limit: f64,
    /// Every bench present in both snapshots, in baseline order.
    pub benches: Vec<GateBench>,
    /// Baseline benches absent from the new snapshot (always failures).
    pub missing: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes (no missing benches, nothing over the
    /// limit).
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.benches.iter().all(|b| !b.failed)
    }
}

/// Times every SPEC app × {at-commit, spb} quick cell (SB 14) under
/// `mode` through the public [`Simulation`] entry point: one untimed
/// warm-up run per cell, then `samples` timed runs. `on_record` fires
/// as each cell finishes (progress reporting); the returned snapshot
/// carries every record. The `bench_snapshot` binary's `--out` mode.
pub fn record_quick_grid(
    mode: KernelMode,
    samples: usize,
    mut on_record: impl FnMut(&BenchRecord),
) -> BenchSnapshot {
    let samples = samples.max(1);
    let policies = [
        ("at-commit", PolicyKind::AtCommit),
        ("spb", PolicyKind::spb_default()),
    ];
    let mut records = Vec::new();
    for app in AppProfile::spec2017() {
        for (label, policy) in &policies {
            let cfg = SimConfig::quick()
                .with_sb(14)
                .with_policy(*policy)
                .with_kernel(mode);
            let name = format!("quick_grid/{}-{label}-sb14", app.name());
            let mut samples_ns = Vec::with_capacity(samples);
            let mut uops = 0;
            for timed in 0..=samples {
                let start = Instant::now();
                let r = Simulation::with_config(&app, &cfg).run_or_panic();
                let elapsed = start.elapsed();
                if timed > 0 {
                    samples_ns.push(elapsed.as_nanos() as u64);
                }
                uops = r.uops;
            }
            let rec = BenchRecord {
                name,
                samples_ns,
                elements: Some(uops),
            };
            on_record(&rec);
            records.push(rec);
        }
    }
    BenchSnapshot {
        kernel: mode.label().to_string(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, samples: &[u64]) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            samples_ns: samples.to_vec(),
            elements: Some(1000),
        }
    }

    #[test]
    fn stats_are_exact_on_small_samples() {
        let r = rec("a", &[30, 10, 20]);
        assert_eq!(r.min_ns(), 10);
        assert_eq!(r.mean_ns(), 20.0);
        assert_eq!(r.median_ns(), 20.0);
        let even = rec("b", &[10, 20, 30, 100]);
        assert_eq!(even.median_ns(), 25.0);
        assert_eq!(rec("c", &[2_000_000]).per_sec(), Some(500_000.0));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = BenchSnapshot {
            kernel: "event".into(),
            records: vec![rec("grid/mcf", &[5, 6, 7]), rec("grid/xz", &[1, 2, 3])],
        };
        let text = snap.to_json_string();
        assert_eq!(BenchSnapshot::parse(&text).unwrap(), snap);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_empty_snapshots() {
        assert!(BenchSnapshot::parse("{\"schema\":\"v0\"}").is_err());
        assert!(
            BenchSnapshot::parse("{\"schema\":\"spb-bench-v1\",\"kernel\":\"tick\",\"benches\":[]}")
                .is_err()
        );
        assert!(BenchSnapshot::parse("not json").is_err());
    }

    #[test]
    fn compare_warns_on_regressions_and_computes_geomean() {
        let base = BenchSnapshot {
            kernel: "tick".into(),
            records: vec![rec("a", &[100]), rec("b", &[100]), rec("gone", &[1])],
        };
        let new = BenchSnapshot {
            kernel: "event".into(),
            records: vec![rec("a", &[50]), rec("b", &[130])],
        };
        let warnings = base.regressions(&new);
        assert_eq!(warnings.len(), 2, "{warnings:?}"); // b regressed, gone missing
        assert!(warnings.iter().any(|w| w.starts_with("b:")));
        // geomean of 100/50 and 100/130
        let g = base.geomean_speedup(&new).unwrap();
        assert!((g - (2.0f64 * (100.0 / 130.0)).sqrt()).abs() < 1e-9);
        // The printed table: one ratio line per common bench, then the
        // geomean lines `bench_snapshot --compare` prints.
        let table = base.comparison(&new);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "{table}");
        assert!(lines[0].starts_with("a "), "{table}");
        assert!(lines[0].ends_with("( 2.00x)"), "{table}");
        assert_eq!(lines[2], format!("geomean speedup: {g:.2}x"));
        assert!(lines[3].starts_with("geomean throughput: "), "{table}");
    }

    #[test]
    fn throughput_fields_are_derived_and_serialized() {
        // 1000 elements in a median of 2000ns -> 500 Mops/s.
        let r = rec("a", &[2_000]);
        assert_eq!(r.mops_per_sec(), Some(500.0));
        let snap = BenchSnapshot {
            kernel: "wheel".into(),
            records: vec![rec("a", &[2_000]), rec("b", &[8_000])],
        };
        // geomean of 500 and 125 Mops/s = 250.
        assert!((snap.geomean_mops().unwrap() - 250.0).abs() < 1e-9);
        let text = snap.to_json_string();
        assert!(text.contains("\"mops_per_sec\""), "{text}");
        assert!(text.contains("\"geomean_mops\""), "{text}");
        // Derived fields are additive: the snapshot still round-trips.
        assert_eq!(BenchSnapshot::parse(&text).unwrap(), snap);
    }

    #[test]
    fn gate_calibrates_out_uniform_machine_deltas() {
        let base = BenchSnapshot {
            kernel: "wheel".into(),
            records: vec![rec("a", &[100]), rec("b", &[100]), rec("c", &[100])],
        };
        // Uniformly 30% slower (a different machine): gate passes.
        let uniform = BenchSnapshot {
            kernel: "wheel".into(),
            records: vec![rec("a", &[130]), rec("b", &[130]), rec("c", &[130])],
        };
        assert!(base.gate_failures(&uniform).is_empty());
        // One bench 50% slower than its peers: gate fails exactly it.
        let relative = BenchSnapshot {
            kernel: "wheel".into(),
            records: vec![rec("a", &[100]), rec("b", &[100]), rec("c", &[150])],
        };
        let failures = base.gate_failures(&relative);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("c:"), "{failures:?}");
        // A bench missing from the fresh run always fails the gate.
        let missing = BenchSnapshot {
            kernel: "wheel".into(),
            records: vec![rec("a", &[100]), rec("b", &[100])],
        };
        let failures = base.gate_failures(&missing);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    #[test]
    fn gate_report_names_every_bench_with_a_verdict() {
        let base = BenchSnapshot {
            kernel: "wheel".into(),
            records: vec![rec("a", &[100]), rec("b", &[100]), rec("c", &[100])],
        };
        let relative = BenchSnapshot {
            kernel: "wheel".into(),
            records: vec![rec("a", &[100]), rec("b", &[100]), rec("c", &[150])],
        };
        let report = base.gate_report(&relative);
        assert!(!report.passed());
        // Every common bench appears with its calibrated ratio — the
        // passing ones too, so a failure is attributable per app.
        assert_eq!(report.benches.len(), 3);
        assert_eq!(report.machine, 1.0);
        assert_eq!(report.limit, GATE_TOLERANCE);
        let verdicts: Vec<(&str, bool)> = report
            .benches
            .iter()
            .map(|b| (b.name.as_str(), b.failed))
            .collect();
        assert_eq!(verdicts, vec![("a", false), ("b", false), ("c", true)]);
        assert!((report.benches[2].ratio - 1.5).abs() < 1e-12);
        // The passing direction agrees with the string API.
        let uniform = BenchSnapshot {
            kernel: "wheel".into(),
            records: vec![rec("a", &[130]), rec("b", &[130]), rec("c", &[130])],
        };
        assert!(base.gate_report(&uniform).passed());
    }
}
