//! The sweep job server.
//!
//! A [`Server`] listens on a local TCP socket for line-delimited JSON
//! requests (see the crate docs for the protocol), runs sweep jobs one
//! at a time on a supervised worker pool, and answers with
//! [`spb_sim::sweep::SweepReport`]-schema results. The robustness
//! pieces compose here:
//!
//! - every cell goes through the [`crate::cache::CellRunner`], which
//!   probes the [`crate::cache::ResultCache`] first — hits skip
//!   simulation entirely and are bit-identical to a fresh
//!   deterministic run. A cell's key is derived once per base config
//!   and then memoized, so a repeat job (in any cell order) formats its
//!   base config once instead of one `SimConfig` per cell; every hit
//!   still reads and checks its entry file;
//! - misses run under [`spb_sim::sweep::run_cells_supervised`]:
//!   panics/deadlines/injected chaos retry with seeded backoff,
//!   invariant violations fail fast into the report's `failed` array;
//! - the [`crate::journal::Journal`] write-ahead log makes accepted
//!   jobs durable: a `kill -9` mid-sweep is recovered on restart with
//!   only uncached cells re-run;
//! - the job queue is bounded: past the limit, submissions get an
//!   explicit `overloaded` rejection immediately — the server never
//!   accepts work it cannot promise to journal and run.

use crate::cache::{CacheKey, CellRunner, ResultCache, Tally};
use crate::journal::Journal;
use crate::spec::{CellSpec, JobSpec};
use spb_obs::SharedCounters;
use spb_sim::sweep::{ChaosPlan, Supervision, SweepOptions, SweepReport};
use spb_stats::json::Json;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port (the bound
    /// address is reported by [`Server::addr`]).
    pub addr: String,
    /// State directory: holds `cache/`, `journal.waj` and `reports/`.
    pub dir: PathBuf,
    /// Worker threads per sweep.
    pub jobs: usize,
    /// Maximum queued jobs before submissions are shed.
    pub queue_limit: usize,
    /// Default total attempts per cell (jobs may ask for more).
    pub retry: u32,
    /// Default per-attempt deadline (jobs may set their own).
    pub deadline_ms: Option<u64>,
    /// LRU bound on cached cell results (entries, not bytes); `None`
    /// leaves the cache unbounded. Eviction never corrupts: an evicted
    /// cell is a clean miss that recomputes bit-identically.
    pub cache_max_entries: Option<usize>,
}

impl ServeConfig {
    /// Localhost on an ephemeral port, state under `dir`, defaults
    /// everywhere else (workers = available parallelism, queue of 4,
    /// 3 attempts, 5-minute cell deadline).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            dir: dir.into(),
            jobs: spb_sim::sweep::default_jobs(),
            queue_limit: 4,
            retry: 3,
            deadline_ms: Some(300_000),
            cache_max_entries: None,
        }
    }
}

/// The longest request line the server reads, newline included. A
/// full quick-grid job is about 12 KB; a client that sends more
/// without a newline gets an error and the connection is closed, so it
/// cannot grow server memory without bound.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// The most cell keys the server memoizes; past it the memo starts
/// over. The 230-cell quick grid fits many times over.
const KEY_MEMO_ENTRIES: usize = 4096;

/// Cache keys of cells seen in earlier jobs. [`CacheKey::for_cell`]
/// formats the whole `SimConfig` on every call, but a cell's key is a
/// pure function of its job's base config and its [`CellSpec`], so it
/// is derived once per pair. The memo is per cell, not per job, so a
/// repeat job in another cell order still hits.
#[derive(Debug, Default)]
struct KeyMemo {
    /// `Debug` text of the base config the memoized keys belong to; a
    /// job with any other base clears the memo. Every field
    /// [`JobSpec::base_config`] sets takes part through it.
    base: String,
    keys: HashMap<CellSpec, CacheKey>,
}

impl KeyMemo {
    /// The key of every cell of `job`, in request order, and how many
    /// were derived rather than found in the memo. The job is resolved
    /// only when a cell's key is not memoized; a cell that is memoized
    /// resolved before, so a bad cell is still an error here, before
    /// any lookup.
    fn keys(&mut self, job: &JobSpec) -> Result<(Vec<CacheKey>, u64), String> {
        let base = format!("{:?}", job.base_config()?);
        if base != self.base {
            self.keys.clear();
            self.base = base;
        }
        let mut keys: Vec<Option<CacheKey>> = job
            .cells
            .iter()
            .map(|cell| self.keys.get(cell).copied())
            .collect();
        let mut derived = 0;
        if keys.iter().any(Option::is_none) {
            let (profiles, cells) = job.resolve()?;
            for ((slot, cell), (pi, cfg)) in keys.iter_mut().zip(&job.cells).zip(&cells) {
                if slot.is_none() {
                    let key = CacheKey::for_cell(profiles[*pi].name(), cfg);
                    if self.keys.len() >= KEY_MEMO_ENTRIES {
                        self.keys.clear();
                    }
                    self.keys.insert(cell.clone(), key);
                    *slot = Some(key);
                    derived += 1;
                }
            }
        }
        Ok((keys.into_iter().flatten().collect(), derived))
    }
}

/// One queued job; recovered jobs have no reply channel.
struct QueuedJob {
    id: String,
    spec: JobSpec,
    reply: Option<mpsc::SyncSender<String>>,
}

/// The sweep job server. Bind with [`Server::bind`], run with
/// [`Server::serve`] (blocks until a `shutdown` request).
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    cache: ResultCache,
    /// Touched only by the job runner.
    key_memo: Mutex<KeyMemo>,
    journal: Mutex<Journal>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    stats: SharedCounters,
    shutdown: AtomicBool,
}

impl Server {
    /// Opens the state directory (recovering any journaled jobs that
    /// never finished) and binds the listen socket.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and socket errors.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Self> {
        let mut cache = ResultCache::open(cfg.dir.join("cache"))?;
        if let Some(n) = cfg.cache_max_entries {
            cache = cache.with_entry_bound(n);
        }
        let (journal, recovery) = Journal::open(cfg.dir.join("journal.waj"))?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let stats = SharedCounters::new();
        // Register the headline counters up front so health responses
        // list them (as zeros) from the first request.
        for name in [
            "jobs_accepted",
            "jobs_completed",
            "jobs_recovered",
            "jobs_shed",
            "cells_computed",
            "cache_hits",
            "cache_corrupt",
            "cache_keys_derived",
            "cache_entries_read",
            "cache_checksums_rendered",
            "cell_retries",
            "cells_failed",
            "journal_corrupt_lines",
        ] {
            stats.add(name, 0);
        }
        stats.add("journal_corrupt_lines", recovery.corrupt_lines as u64);
        let mut queue = VecDeque::new();
        for (id, spec) in recovery.pending {
            stats.inc("jobs_recovered");
            queue.push_back(QueuedJob {
                id,
                spec,
                reply: None,
            });
        }
        Ok(Self {
            cfg,
            listener,
            cache,
            key_memo: Mutex::default(),
            journal: Mutex::new(journal),
            queue: Mutex::new(queue),
            queue_cv: Condvar::new(),
            stats,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The live service counters (shared with every handler).
    pub fn stats(&self) -> &SharedCounters {
        &self.stats
    }

    /// Accepts connections and runs jobs until a `shutdown` request.
    /// Recovered jobs start executing immediately, before any client
    /// connects.
    ///
    /// # Errors
    ///
    /// Propagates fatal accept-loop errors (per-connection errors are
    /// absorbed).
    pub fn serve(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            scope.spawn(|| self.runner());
            for conn in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    scope.spawn(move || self.handle(stream));
                }
            }
            // Make sure the runner observes shutdown even if the queue
            // is empty.
            self.shutdown.store(true, Ordering::SeqCst);
            self.queue_cv.notify_all();
        });
        Ok(())
    }

    /// One connection: serve line-delimited requests until EOF (or a
    /// shutdown request closes the server). A line longer than
    /// [`MAX_REQUEST_BYTES`] is answered with an error and ends the
    /// connection.
    fn handle(&self, stream: TcpStream) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut write_half = stream;
        let mut line = Vec::new();
        loop {
            line.clear();
            let limit = MAX_REQUEST_BYTES as u64;
            match (&mut reader).take(limit).read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let oversized = line.len() == MAX_REQUEST_BYTES && line.last() != Some(&b'\n');
            let mut reply = if oversized {
                Self::error(format!(
                    "request line longer than {MAX_REQUEST_BYTES} bytes; closing the connection"
                ))
            } else {
                match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => continue,
                    Ok(request) => self.dispatch(request),
                    Err(_) => Self::error("bad request: the line is not UTF-8"),
                }
            };
            reply.push('\n');
            if write_half
                .write_all(reply.as_bytes())
                .and_then(|()| write_half.flush())
                .is_err()
            {
                break;
            }
            if oversized {
                // Send the reply ahead of the close; the rest of the
                // line is never read.
                let _ = write_half.shutdown(std::net::Shutdown::Write);
                break;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
    }

    fn error(message: impl Into<String>) -> String {
        Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::str(message.into())),
        ])
        .to_string()
    }

    /// Routes one request line to its handler and renders the reply
    /// line.
    fn dispatch(&self, request: &str) -> String {
        let parsed = match Json::parse(request) {
            Ok(v) => v,
            Err(e) => return Self::error(format!("bad request: {e}")),
        };
        match parsed.get("type").and_then(Json::as_str) {
            Some("sweep") => match parsed.get("job").map(JobSpec::from_json) {
                Some(Ok(job)) => self.submit(job),
                Some(Err(e)) => Self::error(format!("bad job: {e}")),
                None => Self::error("sweep request needs a job object"),
            },
            Some("health") => self.health(),
            Some("shutdown") => self.begin_shutdown(),
            Some(other) => Self::error(format!(
                "unknown request type {other:?} (valid: sweep, health, shutdown)"
            )),
            None => Self::error("request needs a type field"),
        }
    }

    /// Journals and enqueues a job, then blocks until the runner's
    /// reply. Returns an explicit `overloaded` rejection — never
    /// queues unboundedly, never hangs — when the queue is full.
    fn submit(&self, job: JobSpec) -> String {
        let id = Journal::job_id(&job);
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut queue = self.queue.lock().expect("queue poisoned");
            if queue.len() >= self.cfg.queue_limit {
                self.stats.inc("jobs_shed");
                return Self::error(format!(
                    "overloaded: queue full ({} jobs); resubmit later",
                    queue.len()
                ));
            }
            // Write-ahead: the job becomes durable before it becomes
            // runnable. A journal failure rejects the job outright.
            if let Err(e) = self
                .journal
                .lock()
                .expect("journal poisoned")
                .accepted(&id, &job)
            {
                return Self::error(format!("journal write failed: {e}"));
            }
            queue.push_back(QueuedJob {
                id,
                spec: job,
                reply: Some(tx),
            });
        }
        self.stats.inc("jobs_accepted");
        self.queue_cv.notify_one();
        rx.recv()
            .unwrap_or_else(|_| Self::error("server shut down before the job completed"))
    }

    /// The health/stats endpoint: queue depth plus the live counters as
    /// a metrics registry.
    fn health(&self) -> String {
        let depth = self.queue.lock().expect("queue poisoned").len();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("queue_depth", Json::from(depth)),
            ("metrics", self.stats.to_registry("serve").to_json()),
        ])
        .to_string()
    }

    /// Flags shutdown, wakes the runner, and unblocks the accept loop
    /// with a self-connection.
    fn begin_shutdown(&self) -> String {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        if let Ok(addr) = self.addr() {
            let _ = TcpStream::connect(addr);
        }
        Json::obj([("ok", Json::Bool(true))]).to_string()
    }

    /// The single job runner: pops jobs in order, executes them, and
    /// replies. On shutdown, queued-but-unstarted jobs get an explicit
    /// rejection (they stay journaled as accepted, so a restart
    /// recovers them).
    fn runner(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue poisoned");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        for job in queue.drain(..) {
                            if let Some(reply) = job.reply {
                                let _ = reply
                                    .send(Self::error("server shutting down; job stays journaled"));
                            }
                        }
                        return;
                    }
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self.queue_cv.wait(queue).expect("queue poisoned");
                }
            };
            let reply = self.run_job(&job.spec);
            {
                let mut journal = self.journal.lock().expect("journal poisoned");
                let _ = journal.done(&job.id);
            }
            self.stats.inc("jobs_completed");
            if let Some(tx) = job.reply {
                let _ = tx.send(reply);
            }
        }
    }

    /// Executes one job through the [`CellRunner`]: cache pass,
    /// supervised computation of the misses, cache stores, report
    /// assembly in request order.
    fn run_job(&self, job: &JobSpec) -> String {
        let memoized = self.key_memo.lock().expect("key memo poisoned").keys(job);
        let (keys, derived) = match memoized {
            Ok(k) => k,
            Err(e) => return Self::error(format!("bad job: {e}")),
        };
        self.stats.add("cache_keys_derived", derived);
        let supervision = Supervision {
            max_attempts: job.retry.max(self.cfg.retry).max(1),
            deadline_ms: job.deadline_ms.or(self.cfg.deadline_ms),
            chaos: (job.fault_rate_e4 > 0).then_some(ChaosPlan {
                rate_e4: job.fault_rate_e4,
                seed: job.fault_seed,
            }),
            ..Supervision::default()
        };
        // Worker-pool-sized chunks, each stored (and counted) before
        // the next: a crash mid-job loses at most one chunk of work.
        let runner = CellRunner {
            cache: &self.cache,
            sweep: &SweepOptions::with_jobs(self.cfg.jobs),
            supervision: &supervision,
            chunk: self.cfg.jobs,
            objectives: false,
            probe: true,
        };
        // The job is resolved only if a cell misses: an all-hit job
        // builds no config.
        let (cells, tally) = match runner.run(&keys, || job.resolve(), |step, _| self.count(step)) {
            Ok(done) => done,
            Err(e) => return Self::error(format!("bad job: {e}")),
        };
        let (records, failed): (Vec<_>, Vec<_>) = cells.into_iter().partition(Result::is_ok);
        let records: Vec<_> = records.into_iter().flatten().collect();
        let failed: Vec<_> = failed.into_iter().filter_map(Result::err).collect();
        let job_stats = Json::obj([
            ("cache_hits", Json::from(tally.hits)),
            ("cache_corrupt", Json::from(tally.corrupt)),
            ("computed", Json::from(tally.computed)),
            ("retries", Json::from(tally.retries)),
            ("failed", Json::from(tally.failed)),
        ]);
        let report = SweepReport {
            name: job.name.clone(),
            records,
            failed,
            metrics: Some(Json::obj([("serve_job", job_stats.clone())])),
        };
        // One render serves both copies: the checksummed text goes to
        // reports/ (crash-safe save; the reply does not depend on it
        // succeeding) and the value it was rendered from goes on the
        // wire.
        let (report_json, text) = report.to_json_checksummed();
        let _ = report.save_rendered(&self.cfg.dir.join("reports"), &text);
        drop(text);
        Json::obj([
            ("ok", Json::Bool(true)),
            ("report", report_json),
            ("stats", job_stats),
        ])
        .to_string()
    }

    /// Adds one step of a job's cell pass to the health counters.
    fn count(&self, step: &Tally) {
        for (name, n) in [
            ("cache_hits", step.hits),
            ("cache_corrupt", step.corrupt),
            ("cache_entries_read", step.work.entries_read),
            ("cache_checksums_rendered", step.work.checksums_rendered),
            ("cells_computed", step.computed),
            ("cell_retries", step.retries),
            ("cells_failed", step.failed),
        ] {
            self.stats.add(name, n);
        }
        // Registered only once a store fails, as it always was.
        if step.store_errors > 0 {
            self.stats.add("cache_store_errors", step.store_errors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Budget;
    use spb_stats::hash::mix64;

    /// `job`'s cells in a seeded order.
    fn shuffled(mut job: JobSpec, seed: u64) -> JobSpec {
        let mut order: Vec<(u64, CellSpec)> = job
            .cells
            .drain(..)
            .enumerate()
            .map(|(i, cell)| (mix64(seed ^ i as u64), cell))
            .collect();
        order.sort_by_key(|&(rank, _)| rank);
        job.cells = order.into_iter().map(|(_, cell)| cell).collect();
        job
    }

    /// The keys `CacheKey::for_cell` derives for `job`, in order.
    fn derived_keys(job: &JobSpec) -> Vec<CacheKey> {
        let (profiles, resolved) = job.resolve().unwrap();
        resolved
            .iter()
            .map(|(pi, cfg)| CacheKey::for_cell(profiles[*pi].name(), cfg))
            .collect()
    }

    #[test]
    fn memo_keys_equal_derived_keys_across_jobs_and_orders() {
        let grid = JobSpec::quick_grid;
        let with = |edit: fn(&mut JobSpec)| {
            let mut job = grid();
            edit(&mut job);
            job
        };
        // One server life: each base twice (the repeat in another cell
        // order), bases changing in every field `base_config` sets, and
        // the first base once more at the end.
        let bases = [
            grid(),
            with(|j| j.budget = Budget::Paper),
            with(|j| j.warmup_uops = Some(2_000)),
            with(|j| j.measure_uops = Some(10_000)),
            with(|j| j.seed = Some(43)),
            with(|j| j.squash = Some("rate=0.1,depth=8..32,seed=5".into())),
            grid(),
        ];
        let mut memo = KeyMemo::default();
        for (b, job) in bases.iter().enumerate() {
            for (pass, seed) in [(0, b as u64), (1, 100 + b as u64)] {
                let job = shuffled(job.clone(), seed);
                let (keys, derived) = memo.keys(&job).unwrap();
                assert_eq!(keys, derived_keys(&job), "base {b}, pass {pass}");
                assert_eq!(keys.len(), 230);
                // A new base derives every key; its repeat derives none,
                // so it resolves nothing (`keys` resolves only to derive).
                let cold = pass == 0;
                assert_eq!(derived, if cold { 230 } else { 0 }, "base {b}");
            }
        }
    }

    #[test]
    fn memo_reports_bad_cells_and_stays_bounded() {
        let mut memo = KeyMemo::default();
        let mut job = JobSpec::quick_grid();
        memo.keys(&job).unwrap();
        // Every other cell is memoized; the new, bad one still fails.
        job.cells.push(CellSpec {
            app: "not-a-benchmark".into(),
            policy: "spb".into(),
            sb: 14,
        });
        let err = memo.keys(&job).expect_err("bad cell");
        assert!(err.contains("not-a-benchmark"), "{err}");

        let cells = (1..=KEY_MEMO_ENTRIES + 10)
            .map(|sb| CellSpec {
                app: "x264".into(),
                policy: "at-commit".into(),
                sb,
            })
            .collect();
        let wide = JobSpec::new("wide", Budget::Quick, cells);
        let (keys, _) = memo.keys(&wide).unwrap();
        assert_eq!(keys, derived_keys(&wide));
        assert!(memo.keys.len() <= KEY_MEMO_ENTRIES, "{}", memo.keys.len());
    }
}
