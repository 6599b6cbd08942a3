//! The `serve_warm` workload: an in-process `spb_serve::Server` with one
//! worker, its cache filled from the golden quick grid, and one
//! closed-loop client submitting full 230-cell quick-grid jobs through
//! `spb_serve::client`, one connection at a time.

use crate::host::{HostSample, SpeedGauge};
use crate::refs::{parse_report, CellId, RefSet, QUICK_GRID};
use crate::report::{Outcome, Spans};
use crate::stats::{median, percentile, ratio};
use crate::workload::Shuffle;
use spb_serve::{client, Budget, CacheKey, CellSpec, JobSpec, Journal, Lookup, ResultCache};
use spb_serve::{ServeConfig, Server};
use spb_sim::sweep::{SweepRecord, SweepReport};
use spb_stats::json::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Jobs a run submits at least, so that the round-trip p90 always has
/// ten samples beyond it.
const MIN_JOBS: usize = 100;

/// Repetitions of each layer probe in the traced run.
const PROBE_REPS: usize = 50;

/// A filled cache and a bound server: what set-up produces.
pub struct Warm {
    /// The server's state directory.
    dir: PathBuf,
    /// The bound, not yet serving, server.
    server: Server,
    /// The quick-grid cells, in the golden file's order.
    cells: Vec<CellSpec>,
    /// Each cell's identity with its effective SB size, the record a
    /// reply must carry for it.
    ids: Vec<CellId>,
    /// Each cell's cache key.
    keys: Vec<CacheKey>,
    /// The golden records, in the same order.
    records: Vec<SweepRecord>,
    /// The golden records, indexed for checking replies.
    refs: RefSet,
    /// Wall milliseconds of each `ResultCache::store`.
    store_ms: Vec<f64>,
}

/// Set-up: loads and validates the golden quick grid, resolves the
/// quick-grid job, writes every record into a fresh cache under `dir`
/// through `ResultCache::store`, and binds the server.
///
/// # Errors
///
/// Invalid reference records, a grid that does not line up with the
/// job's cells, or filesystem and socket errors.
pub fn setup(root: &Path, dir: &Path) -> Result<Warm, String> {
    let path = root.join(QUICK_GRID);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = parse_report(&text, false).map_err(|e| format!("{}: {e}", path.display()))?;
    let refs = RefSet::from_report(&report)?;
    let job = JobSpec::quick_grid();
    let (profiles, resolved) = job.resolve()?;
    if resolved.len() != report.records.len() {
        return Err(format!(
            "the quick grid has {} records for {} cells",
            report.records.len(),
            resolved.len()
        ));
    }
    let mut keys = Vec::with_capacity(resolved.len());
    let mut ids = Vec::with_capacity(resolved.len());
    for ((pi, cfg), rec) in resolved.iter().zip(&report.records) {
        let app = profiles[*pi].name();
        let id: CellId = (app.to_string(), cfg.policy.label(), cfg.effective_sb());
        if id != (rec.app.clone(), rec.policy.clone(), rec.sb) {
            return Err(format!(
                "golden record {}/{}/{} is out of the quick grid's order",
                rec.app, rec.policy, rec.sb
            ));
        }
        keys.push(CacheKey::for_cell(app, cfg));
        ids.push(id);
    }
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let cache = ResultCache::open(dir.join("cache")).map_err(|e| e.to_string())?;
    let mut store_ms = Vec::with_capacity(keys.len());
    for (key, rec) in keys.iter().zip(&report.records) {
        let start = Instant::now();
        cache
            .store(*key, &rec.app, rec)
            .map_err(|e| format!("cache store: {e}"))?;
        store_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let server = Server::bind(ServeConfig {
        jobs: 1,
        ..ServeConfig::at(dir)
    })
    .map_err(|e| format!("binding the server: {e}"))?;
    Ok(Warm {
        dir: dir.to_path_buf(),
        server,
        cells: job.cells,
        ids,
        keys,
        records: report.records,
        refs,
        store_ms,
    })
}

/// The jobs a run submits: the quick grid with its cell order shuffled
/// afresh for every job, from the workload seed.
struct Jobs<'w> {
    order: Shuffle,
    warm: &'w Warm,
}

impl<'w> Jobs<'w> {
    /// The job stream of workload seed `seed` over `warm`'s cells.
    fn new(seed: u64, warm: &'w Warm) -> Self {
        Self {
            order: Shuffle::new(seed),
            warm,
        }
    }

    /// The next job and, in its cell order, the record each cell must
    /// be answered with.
    fn next_job(&mut self) -> (JobSpec, Vec<&'w CellId>) {
        let order = self.order.order(self.warm.cells.len());
        let cells = order.iter().map(|&i| self.warm.cells[i].clone()).collect();
        let ids = order.iter().map(|&i| &self.warm.ids[i]).collect();
        (
            JobSpec::new("perfbench-serve-warm", Budget::Quick, cells),
            ids,
        )
    }
}

/// What one checked reply carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReplyFacts {
    /// Records returned.
    cells: u64,
    /// Cells served from the cache.
    hits: u64,
    /// Measured µops of the returned records.
    uops: u64,
}

/// Checks a job's reply: a report with a valid checksum, one record per
/// requested cell in request order, each the requested cell (`ids`,
/// SB size included) and equal to its golden record, every cell a cache
/// hit and none computed or failed.
///
/// # Errors
///
/// The first problem found.
fn check_reply(reply: &Json, ids: &[&CellId], refs: &RefSet) -> Result<ReplyFacts, String> {
    let report_json = reply.get("report").ok_or("reply has no report")?;
    if report_json.get("checksum").is_none() {
        return Err("reply report has no checksum".into());
    }
    let report = SweepReport::parse(&report_json.to_string())?;
    let stat = |k: &str| {
        reply
            .get("stats")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
    };
    let hits = stat("cache_hits").ok_or("reply has no cache_hits")?;
    let (computed, failed) = (stat("computed"), stat("failed"));
    if computed != Some(0) || failed != Some(0) || !report.failed.is_empty() {
        return Err(format!(
            "computed {computed:?}, failed {failed:?}: a warm job simulates nothing"
        ));
    }
    if report.records.len() != ids.len() || hits != ids.len() as u64 {
        return Err(format!(
            "{} records and {hits} hits for {} cells",
            report.records.len(),
            ids.len()
        ));
    }
    let mut uops = 0;
    for (rec, &id) in report.records.iter().zip(ids) {
        let (app, policy, sb) = id;
        if (&rec.app, &rec.policy, rec.sb) != (app, policy, *sb) {
            return Err(format!(
                "record {}/{}/{} answers cell {app}/{policy}/{sb}",
                rec.app, rec.policy, rec.sb
            ));
        }
        refs.check(id, rec.cycles, rec.uops, rec.ipc)?;
        uops += rec.uops;
    }
    Ok(ReplyFacts {
        cells: report.records.len() as u64,
        hits,
        uops,
    })
}

/// One submitted job as the client saw it.
struct JobSample {
    rtt_s: f64,
    facts: Option<ReplyFacts>,
    /// Client-side JSON work (request rendering and reply parsing),
    /// timed on traced jobs only.
    client_json_s: Option<f64>,
}

/// Serves `warm` on a scoped thread, hands its address to `client`, and
/// shuts the server down and joins it once `client` returns.
fn with_server<T>(warm: &Warm, client: impl FnOnce(&str) -> T) -> Result<T, String> {
    let addr = warm
        .server
        .addr()
        .map_err(|e| format!("server address: {e}"))?
        .to_string();
    std::thread::scope(|s| {
        let handle = s.spawn(|| warm.server.serve());
        let value = client(&addr);
        let stopped = client::shutdown(&addr);
        let joined = handle.join();
        match (stopped, joined) {
            (Ok(_), Ok(Ok(()))) => Ok(value),
            (Err(e), _) => Err(format!("server shutdown: {e}")),
            (_, Ok(Err(e))) => Err(format!("server: {e}")),
            (_, Err(_)) => Err("server thread panicked".into()),
        }
    })
}

/// Submits jobs until `seconds` have passed and at least [`MIN_JOBS`]
/// returned. With `traced`, every other job also times the client's
/// JSON work and is recorded as a span. With `gauge`, each round trip
/// is converted to reference seconds (see [`SpeedGauge`]) right after
/// it returns; without, it stays in host seconds.
fn submit_jobs(
    addr: &str,
    warm: &Warm,
    seed: u64,
    seconds: f64,
    traced: Option<&mut Spans>,
    mut gauge: Option<&mut SpeedGauge>,
    out: &mut Outcome,
) -> Vec<JobSample> {
    let mut jobs = Jobs::new(seed, warm);
    let mut samples = Vec::new();
    let mut spans = traced;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget || samples.len() < MIN_JOBS {
        let (job, ids) = jobs.next_job();
        let n = samples.len();
        out.attempted += 1;
        let trace_this = spans.is_some() && n % 2 == 1;
        let mut client_json_s = None;
        let (reply, rtt_s) = match spans.as_deref_mut().filter(|_| trace_this) {
            Some(sp) => {
                let request = Instant::now();
                let line =
                    Json::obj([("type", Json::str("sweep")), ("job", job.to_json())]).to_string();
                let request_s = request.elapsed().as_secs_f64();
                std::hint::black_box(line);
                let (reply, rtt) = sp.time("serve.submit", &format!("job {n}"), || {
                    client::submit(addr, &job)
                });
                if let Ok(v) = &reply {
                    let text = v.to_string();
                    let parse = Instant::now();
                    let parsed = Json::parse(&text);
                    client_json_s = Some(request_s + parse.elapsed().as_secs_f64());
                    std::hint::black_box(parsed.is_ok());
                }
                (reply, rtt)
            }
            None => {
                let t = Instant::now();
                let reply = client::submit(addr, &job);
                (reply, t.elapsed().as_secs_f64())
            }
        };
        let rtt_s = match gauge.as_deref_mut() {
            Some(g) => g.reference_secs(rtt_s),
            None => rtt_s,
        };
        let facts = match reply.and_then(|r| check_reply(&r, &ids, &warm.refs)) {
            Ok(f) => Some(f),
            Err(e) => {
                out.fail(format!("job {n}: {e}"));
                None
            }
        };
        samples.push(JobSample {
            rtt_s,
            facts,
            client_json_s,
        });
    }
    samples
}

/// Submits one job and checks its reply: the smoke mode's `serve_warm`
/// operation.
///
/// # Errors
///
/// The server could not be run or stopped.
pub fn run_one(warm: &Warm, out: &mut Outcome) -> Result<(), String> {
    let (job, ids) = Jobs::new(crate::workload::GOLDEN_SEED, warm).next_job();
    let start = Instant::now();
    let reply = with_server(warm, |addr| client::submit(addr, &job))?;
    out.attempted += 1;
    if let Err(e) = reply.and_then(|r| check_reply(&r, &ids, &warm.refs)) {
        out.fail(format!("serve_warm job: {e}"));
    }
    out.note(format!(
        "serve_warm: one {}-cell job in {:.3} s",
        job.cells.len(),
        start.elapsed().as_secs_f64()
    ));
    Ok(())
}

/// Sets the end-to-end metrics of the timed jobs, except `setup_s` and
/// `peak_rss_mb`. Throughput is taken per job (what it returned over its
/// round trip; nothing for a failed job) and reported as the median job,
/// as the simulation workloads report the median pass.
fn set_end_to_end(samples: &[JobSample], out: &mut Outcome) {
    let per_job = |f: &dyn Fn(&ReplyFacts) -> u64| -> Vec<f64> {
        samples
            .iter()
            .map(|s| ratio(s.facts.as_ref().map_or(0, f) as f64, s.rtt_s))
            .collect()
    };
    let cells_per_s = per_job(&|f| f.cells);
    let mops: Vec<f64> = per_job(&|f| f.uops).iter().map(|r| r / 1e6).collect();
    let rtt_ms: Vec<f64> = samples.iter().map(|s| s.rtt_s * 1e3).collect();
    let p50 = percentile(&rtt_ms, 50.0).expect("enough jobs for p50");
    let p90 = percentile(&rtt_ms, 90.0).expect("enough jobs for p90");
    out.set("cells_per_s", median(&cells_per_s).unwrap_or(0.0));
    out.set("sim_mops", median(&mops).unwrap_or(0.0));
    out.set("rtt_p50_ms", p50.value);
    out.note(format!(
        "{} jobs of {} cells, closed loop, 1 client, 1 server worker; every metric is the \
         median job; round trip p50 {:.3} ms and p90 {:.3} ms over {} samples ({} beyond p90)",
        samples.len(),
        samples.first().and_then(|s| s.facts).map_or(0, |f| f.cells),
        p50.value,
        p90.value,
        p90.samples,
        p90.beyond
    ));
}

/// The untraced `serve_warm` run.
///
/// # Errors
///
/// The server could not be run or stopped.
pub fn run_timed(warm: &Warm, seed: u64, seconds: f64, out: &mut Outcome) -> Result<f64, String> {
    let mut gauge = SpeedGauge::new();
    let host = HostSample::now();
    let samples = with_server(warm, |addr| {
        submit_jobs(addr, warm, seed, seconds, None, Some(&mut gauge), out)
    })?;
    let noise = host.noise_since();
    set_end_to_end(&samples, out);
    out.note(format!(
        "host: steal {:.3}%, on-CPU {:.3} of wall (client and server threads), speed {:.3} \
         of the reference core",
        noise.steal_pct,
        noise.oncpu_ratio,
        gauge.mean_speed()
    ));
    Ok(hit_ratio(&samples))
}

fn hit_ratio(samples: &[JobSample]) -> f64 {
    let (hits, cells) = samples
        .iter()
        .filter_map(|s| s.facts)
        .fold((0u64, 0u64), |(h, c), f| (h + f.hits, c + f.cells));
    ratio(hits as f64, cells as f64)
}

/// The traced `serve_warm` run: jobs alternate between untraced and
/// traced, then each serve-layer call is timed on its own: cache
/// lookups on the warm cache, journal appends and report saves in a
/// scratch directory under `scratch`. Returns the hit ratio.
///
/// # Errors
///
/// The server could not be run or stopped, or a probe's directory could
/// not be prepared.
pub fn run_traced(
    warm: &Warm,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<f64, String> {
    let host = HostSample::now();
    let samples = with_server(warm, |addr| {
        submit_jobs(addr, warm, seed, seconds, Some(&mut *spans), None, out)
    })?;
    let noise = host.noise_since();

    let (traced, plain): (Vec<&JobSample>, Vec<&JobSample>) =
        samples.iter().partition(|s| s.client_json_s.is_some());
    let ms = |xs: &[&JobSample], f: &dyn Fn(&JobSample) -> f64| -> f64 {
        median(&xs.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let json = |s: &JobSample| s.client_json_s.unwrap_or(0.0);
    out.set("serve.client_json_ms", ms(&traced, &json));
    out.set("serve.server_ms", ms(&traced, &|s| s.rtt_s - json(s)));
    out.set(
        "bench.trace_overhead",
        ratio(ms(&traced, &|s| s.rtt_s), ms(&plain, &|s| s.rtt_s)),
    );
    let rtt_ms: Vec<f64> = samples.iter().map(|s| s.rtt_s * 1e3).collect();
    let p90 = percentile(&rtt_ms, 90.0).expect("enough jobs for p90");
    out.set("serve.rtt_p90_ms", p90.value);
    out.note(format!(
        "{} jobs ({} traced); round-trip p90 over {} samples ({} beyond)",
        samples.len(),
        traced.len(),
        p90.samples,
        p90.beyond
    ));
    out.set("serve.store_ms", median(&warm.store_ms).unwrap_or(0.0));
    out.set("host.steal_pct", noise.steal_pct);
    out.set("host.oncpu_ratio", noise.oncpu_ratio);
    probe_layers(warm, scratch, out, spans)?;
    Ok(hit_ratio(&samples))
}

/// Times `ResultCache::lookup`, `Journal::accepted` + `done` and
/// `SweepReport::save` one call at a time.
fn probe_layers(
    warm: &Warm,
    scratch: &Path,
    out: &mut Outcome,
    spans: &mut Spans,
) -> Result<(), String> {
    let cache = ResultCache::open(warm.dir.join("cache")).map_err(|e| e.to_string())?;
    let mut lookup_us = Vec::new();
    for _ in 0..3 {
        for key in &warm.keys {
            let (found, secs) = spans.time("serve.lookup", &key.hex(), || cache.lookup(*key));
            lookup_us.push(secs * 1e6);
            if !matches!(found, Lookup::Hit(_)) {
                out.fail(format!("cache lookup {}: {found:?}", key.hex()));
            }
        }
    }
    out.set("serve.lookup_us", median(&lookup_us).unwrap_or(0.0));

    if scratch.exists() {
        std::fs::remove_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    }
    let (mut journal, _) =
        Journal::open(scratch.join("journal.waj")).map_err(|e| format!("journal: {e}"))?;
    let mut jobs = Jobs::new(0, warm);
    let report = SweepReport {
        name: "perfbench-probe".into(),
        records: warm.records.clone(),
        failed: Vec::new(),
        metrics: None,
    };
    let (mut journal_ms, mut save_ms) = (Vec::new(), Vec::new());
    for i in 0..PROBE_REPS {
        let (job, _) = jobs.next_job();
        let id = Journal::job_id(&job);
        let (r, secs) = spans.time("serve.journal", &format!("probe {i}"), || {
            journal.accepted(&id, &job).and_then(|()| journal.done(&id))
        });
        journal_ms.push(secs * 1e3);
        if let Err(e) = r {
            out.fail(format!("journal append: {e}"));
        }
        let (r, secs) = spans.time("serve.report_save", &format!("probe {i}"), || {
            report.save(&scratch.join("reports"))
        });
        save_ms.push(secs * 1e3);
        if let Err(e) = r {
            out.fail(format!("report save: {e}"));
        }
    }
    out.set("serve.journal_ms", median(&journal_ms).unwrap_or(0.0));
    out.set("serve.report_save_ms", median(&save_ms).unwrap_or(0.0));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server reply carrying `records`, as `client::submit` returns it.
    fn reply(records: Vec<SweepRecord>) -> Json {
        let hits = records.len() as u64;
        let report = SweepReport {
            name: "reply".into(),
            records,
            failed: Vec::new(),
            metrics: None,
        };
        Json::obj([
            (
                "report",
                Json::parse(&report.to_json_string_checksummed()).unwrap(),
            ),
            (
                "stats",
                Json::obj([
                    ("cache_hits", Json::from(hits)),
                    ("computed", Json::from(0u64)),
                    ("failed", Json::from(0u64)),
                ]),
            ),
        ])
    }

    #[test]
    fn a_reply_must_answer_each_cell_with_its_own_sb() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join(QUICK_GRID)).unwrap();
        let report = parse_report(&text, false).unwrap();
        let refs = RefSet::from_report(&report).unwrap();
        // Two golden cells that differ only in SB size.
        let (a, b) = report
            .records
            .iter()
            .find_map(|a| {
                let same_but_sb =
                    |r: &&SweepRecord| r.app == a.app && r.policy == a.policy && r.sb != a.sb;
                report.records.iter().find(same_but_sb).map(|b| (a, b))
            })
            .unwrap();
        let id = |r: &SweepRecord| (r.app.clone(), r.policy.clone(), r.sb);
        let (ia, ib) = (id(a), id(b));

        let facts = check_reply(&reply(vec![a.clone(), b.clone()]), &[&ia, &ib], &refs).unwrap();
        assert_eq!((facts.cells, facts.hits), (2, 2));
        // Each record is golden, but answers the other cell.
        let e = check_reply(&reply(vec![b.clone(), a.clone()]), &[&ia, &ib], &refs).unwrap_err();
        assert!(e.contains("answers cell"), "{e}");
        // A golden record for the right cell must still match its numbers.
        let mut wrong = a.clone();
        wrong.cycles += 1;
        wrong.ipc = wrong.uops as f64 / wrong.cycles as f64;
        assert!(check_reply(&reply(vec![wrong]), &[&ia], &refs).is_err());
    }
}
