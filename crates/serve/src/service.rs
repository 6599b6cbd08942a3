//! The sweep job server.
//!
//! A [`Server`] listens on a local TCP socket for line-delimited JSON
//! requests (see the crate docs for the protocol), runs sweep jobs one
//! at a time on a supervised worker pool, and answers with
//! [`spb_sim::sweep::SweepReport`]-schema results. The robustness
//! pieces compose here:
//!
//! - every cell goes through the [`crate::cache::ResultCache`] first —
//!   hits skip simulation entirely and are bit-identical to a fresh
//!   deterministic run;
//! - misses run under [`spb_sim::sweep::run_cells_supervised`]:
//!   panics/deadlines/injected chaos retry with seeded backoff,
//!   invariant violations fail fast into the report's `failed` array;
//! - the [`crate::journal::Journal`] write-ahead log makes accepted
//!   jobs durable: a `kill -9` mid-sweep is recovered on restart with
//!   only uncached cells re-run;
//! - the job queue is bounded: past the limit, submissions get an
//!   explicit `overloaded` rejection immediately — the server never
//!   accepts work it cannot promise to journal and run.

use crate::cache::{CacheKey, Lookup, ResultCache};
use crate::journal::Journal;
use crate::spec::JobSpec;
use spb_obs::SharedCounters;
use spb_sim::config::SimConfig;
use spb_sim::sweep::{
    run_cells_supervised, ChaosPlan, Supervision, SweepOptions, SweepRecord, SweepReport,
};
use spb_stats::json::Json;
use spb_trace::profile::AppProfile;
use std::collections::VecDeque;
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

    /// Executes one job: cache pass, supervised computation of the
    /// misses, cache stores, report assembly in request order.
    fn run_job(&self, job: &JobSpec) -> String {
        let (profiles, resolved) = match job.resolve() {
            Ok(r) => r,
            Err(e) => return Self::error(format!("bad job: {e}")),
        };
        let keys: Vec<CacheKey> = resolved
            .iter()
            .map(|(pi, cfg)| CacheKey::for_cell(profiles[*pi].name(), cfg))
            .collect();
        let mut records: Vec<Option<SweepRecord>> = vec![None; resolved.len()];
        let mut misses: Vec<usize> = Vec::new();
        let (mut hits, mut corrupt) = (0u64, 0u64);
        for (i, &key) in keys.iter().enumerate() {
            match self.cache.lookup(key) {
                Lookup::Hit(record) => {
                    hits += 1;
                    records[i] = Some(record);
                }
                Lookup::Miss => misses.push(i),
                Lookup::Corrupt(_) => {
                    corrupt += 1;
                    misses.push(i);
                }
            }
        }
        self.stats.add("cache_hits", hits);
        self.stats.add("cache_corrupt", corrupt);

        let supervision = Supervision {
            max_attempts: job.retry.max(self.cfg.retry).max(1),
            deadline_ms: job.deadline_ms.or(self.cfg.deadline_ms),
            chaos: (job.fault_rate_e4 > 0).then_some(ChaosPlan {
                rate_e4: job.fault_rate_e4,
                seed: job.fault_seed,
            }),
            ..Supervision::default()
        };
        let opts = SweepOptions::with_jobs(self.cfg.jobs);

        // Misses run in worker-pool-sized chunks, and each chunk's
        // results hit the cache (and the counters) before the next one
        // starts: a crash mid-job loses at most one chunk of work, so
        // restart recovery re-simulates only the cells that never made
        // it to disk.
        let (mut computed, mut retries, mut failed_count) = (0u64, 0u64, 0u64);
        let mut failed = Vec::new();
        for miss_chunk in misses.chunks(self.cfg.jobs.max(1)) {
            let cells: Vec<(&AppProfile, SimConfig)> = miss_chunk
                .iter()
                .map(|&i| (&profiles[resolved[i].0], resolved[i].1.clone()))
                .collect();
            let outcomes = run_cells_supervised(&cells, &opts, &supervision);
            let (mut chunk_computed, mut chunk_retries, mut chunk_failed) = (0u64, 0u64, 0u64);
            for ((outcome, attempts), &i) in outcomes.into_iter().zip(miss_chunk) {
                chunk_retries += u64::from(attempts.saturating_sub(1));
                match outcome {
                    Ok(run) => {
                        let record = SweepRecord::from_run(&run);
                        // A store failure is not fatal: the result still
                        // goes into this report, the cell just isn't
                        // durable for the next job.
                        if self
                            .cache
                            .store(keys[i], profiles[resolved[i].0].name(), &record)
                            .is_err()
                        {
                            self.stats.inc("cache_store_errors");
                        }
                        chunk_computed += 1;
                        records[i] = Some(record);
                    }
                    Err(f) => {
                        chunk_failed += 1;
                        failed.push(f);
                    }
                }
            }
            self.stats.add("cells_computed", chunk_computed);
            self.stats.add("cell_retries", chunk_retries);
            self.stats.add("cells_failed", chunk_failed);
            computed += chunk_computed;
            retries += chunk_retries;
            failed_count += chunk_failed;
        }

        let job_stats = Json::obj([
            ("cache_hits", Json::from(hits)),
            ("cache_corrupt", Json::from(corrupt)),
            ("computed", Json::from(computed)),
            ("retries", Json::from(retries)),
            ("failed", Json::from(failed_count)),
        ]);
        let report = SweepReport {
            name: job.name.clone(),
            records: records.into_iter().flatten().collect(),
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
}
