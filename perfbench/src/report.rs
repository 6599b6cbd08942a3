//! Metric tables, the result line, spans and the determinism ledger.

use spb_stats::hash::{fnv1a64, hex16};
use spb_stats::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A metric's name and unit, as `BENCHMARK.json` declares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("sim_mops", "Mop/s"),
    m("cells_per_s", "cells/s"),
    m("rtt_p50_ms", "ms"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload (0
/// where the workload does not exercise the layer).
pub const PER_LAYER: &[MetricDef] = &[
    m("trace.ns_per_uop", "ns"),
    m("trace.share", "ratio"),
    m("sim.ns_per_cycle", "ns"),
    m("sim.skip_gain", "x"),
    m("sim.skip_gain_iqr", "x"),
    m("sim.cycles", "count"),
    m("mem.checker_share", "ratio"),
    m("mem.checker_share_iqr", "ratio"),
    m("mem.l2_per_kuop", "1/kuop"),
    m("mem.l3_per_kuop", "1/kuop"),
    m("mem.dram_per_kuop", "1/kuop"),
    m("mem.store_retry_ratio", "ratio"),
    m("mem.invalidations", "count"),
    m("mem.remote_hits", "count"),
    m("mem.coherence_traffic", "count"),
    m("cpu.ipc", "uop/cycle"),
    m("cpu.sb_stall_ratio", "ratio"),
    m("cpu.wrong_path_uops", "count"),
    m("spb.burst_blocks", "count"),
    m("spb.burst_accuracy", "ratio"),
    m("energy.total_uj", "uJ"),
    m("serve.lookup_us", "us"),
    m("serve.store_ms", "ms"),
    m("serve.journal_ms", "ms"),
    m("serve.report_save_ms", "ms"),
    m("serve.client_json_ms", "ms"),
    m("serve.server_ms", "ms"),
    m("serve.hit_ratio", "ratio"),
    m("serve.rtt_p90_ms", "ms"),
    m("host.steal_pct", "%"),
    m("host.oncpu_ratio", "ratio"),
    m("host.speed", "ratio"),
    m("bench.trace_overhead", "ratio"),
];

/// What one run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, or jobs on `serve_warm`).
    pub attempted: u64,
    /// Failure messages, one per failed operation or failed check.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines (sample counts, host noise) printed before
    /// the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed operation or check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Sets a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: exactly the metrics of `table`, in its order.
    ///
    /// # Errors
    ///
    /// A run that attempted no operation, or a metric of the table that
    /// was not measured or is not finite — a bug in the benchmark, never
    /// papered over with a made-up value.
    pub fn result_line(&self, table: &[MetricDef]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut metrics = Vec::with_capacity(table.len());
        for def in table {
            let v = self
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", def.name));
            }
            metrics.push((
                def.name,
                Json::obj([("value", Json::Float(v)), ("unit", Json::str(def.unit))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failures.len())),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string())
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call (`sim.run`, `trace.drain`, `serve.submit`, …).
    pub name: &'static str,
    /// The operation it served (a cell label or job number).
    pub op: String,
    /// Start, microseconds after the recorder was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Spans kept in memory during a traced run and written out at its end.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its value and duration in
    /// seconds.
    pub fn time<T>(&mut self, name: &'static str, op: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let dur = start.elapsed();
        self.spans.push(Span {
            name,
            op: op.to_string(),
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        (value, dur.as_secs_f64())
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as a Chrome `trace_event` file (complete
    /// events, one track).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str("perfbench")),
                ("ph", Json::str("X")),
                ("ts", Json::Float(s.start_us)),
                ("dur", Json::Float(s.dur_us)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(1u64)),
                ("args", Json::obj([("op", Json::str(&s.op))])),
            ])
        });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", Json::obj([("traceEvents", Json::arr(events))]))?;
        f.flush()
    }
}

/// A digest of the running executable's bytes: two runs share it only
/// if they ran the same build.
///
/// # Errors
///
/// The executable cannot be located or read.
pub fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(hex16(fnv1a64(&bytes)))
}

/// Checks `digest` against the ledger's entry for `key`; when there is
/// none and `record` is set, adds it. The ledger holds one
/// `key<TAB>digest` line per (build, workload), so exact counts must
/// repeat in every run of the same build, traced or not and whatever
/// its seed, not only within one run. A run with failed operations
/// passes `record = false`: it is still compared, but never becomes the
/// entry later runs are held to.
///
/// # Errors
///
/// A different digest recorded earlier for `key`, or filesystem errors.
pub fn check_ledger(path: &Path, key: &str, digest: &str, record: bool) -> Result<(), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    for line in text.lines() {
        if let Some((k, d)) = line.split_once('\t') {
            if k == key {
                return if d == digest {
                    Ok(())
                } else {
                    Err(format!(
                        "exact counts differ from an earlier run of the same build \
                         ({key}: earlier {d}, now {digest})"
                    ))
                };
            }
        }
    }
    if !record {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{key}\t{digest}").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(ALL.iter().map(|w| w.name()))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |t: &[MetricDef]| -> Vec<(String, String)> {
            t.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_every_metric_or_fails() {
        let mut o = Outcome::default();
        for d in END_TO_END {
            o.set(d.name, 1.5);
        }
        assert!(o.result_line(END_TO_END).unwrap_err().contains("attempted"));
        o.attempted = 3;
        let line = o.result_line(END_TO_END).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
        let metric = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("s"));
        assert!(o
            .result_line(PER_LAYER)
            .unwrap_err()
            .contains("not measured"));
        o.set("setup_s", f64::NAN);
        assert!(o.result_line(END_TO_END).unwrap_err().contains("finite"));
        o.fail("cell x differs");
        o.set("setup_s", 2.0);
        let v = Json::parse(&o.result_line(END_TO_END).unwrap()).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn ledger_flags_a_differing_repeat() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(crate::STATE_DIR)
            .join(format!("test-ledger-{}", std::process::id()));
        let path = dir.join("ledger.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        // A failed run's digest is not recorded...
        check_ledger(&path, "b1 spec_mem", "ff", false).unwrap();
        // ...so the first clean run sets the entry.
        check_ledger(&path, "b1 spec_mem", "aa", true).unwrap();
        check_ledger(&path, "b1 spec_mem", "aa", true).unwrap();
        check_ledger(&path, "b1 spec_sb", "bb", true).unwrap();
        let e = check_ledger(&path, "b1 spec_mem", "cc", true).unwrap_err();
        assert!(e.contains("differ"), "{e}");
        // A failed run is still compared against it.
        assert!(check_ledger(&path, "b1 spec_sb", "cc", false).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
