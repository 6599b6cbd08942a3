//! The sweep service survives `kill -9`, end to end, against real
//! `spbsim serve` processes and a real `SIGKILL`:
//!
//! 1. start `spbsim serve --jobs 1` (serial workers, so the kill window
//!    is wide) and submit the full 230-cell quick grid from two
//!    overlapping clients;
//! 2. kill the server mid-sweep, after some cells have been computed
//!    and cached but long before the grid is done;
//! 3. restart it on the same state directory: the journaled jobs are
//!    recovered and finish with only the missing cells re-simulated
//!    (the cache-hit counters prove it);
//! 4. submit the grid once more and check that its 230 records equal
//!    the committed golden `results/sweep-grid-quick.json` in every
//!    simulated field (everything except the host-timing `wall_ms`).

use spb_serve::{client, JobSpec};
use spb_stats::json::Json;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Cells that must be on disk before the kill (one cache store each).
const KILL_AFTER: u64 = 20;
/// Kill before this many cells exist so a real recompute remains.
const KILL_BEFORE: u64 = 200;
const GRID_CELLS: u64 = 230;
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/sweep-grid-quick.json"
);

/// A running `spbsim serve` child; killed on drop so no failure path
/// leaks a server process.
struct ServerProc {
    child: Child,
    addr: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `spbsim serve` on an ephemeral port and parses the bound
/// address from its `serving on HOST:PORT` line.
fn spawn_server(dir: &Path, extra: &[&str]) -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spbsim"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--dir"])
        .arg(dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spbsim serve");
    let mut lines = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut server = ServerProc {
        child,
        addr: String::new(),
    };
    loop {
        let mut line = String::new();
        let n = lines.read_line(&mut line).expect("read server stdout");
        assert!(n > 0, "server exited before binding");
        if let Some(rest) = line.trim().strip_prefix("serving on ") {
            server.addr = rest.to_string();
            break;
        }
    }
    // Keep draining stdout so the server never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    server
}

/// The `serve` counter table out of a health reply.
fn counters(addr: &str) -> Json {
    client::health(addr)
        .expect("health reply")
        .get("metrics")
        .and_then(|m| m.get("serve"))
        .and_then(|c| c.get("counters"))
        .cloned()
        .expect("health reply carries the serve counters")
}

fn counter(table: &Json, name: &str) -> u64 {
    table.get(name).and_then(Json::as_u64).unwrap_or(0)
}

fn stat(reply: &Json, key: &str) -> u64 {
    reply
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX)
}

/// Every record's simulated fields, in order — everything except the
/// host-timing `wall_ms`.
fn grid_numbers(records: &[Json]) -> Vec<Vec<Json>> {
    records
        .iter()
        .map(|r| {
            ["app", "policy", "sb", "cycles", "uops", "ipc"]
                .iter()
                .map(|k| r.get(k).cloned().unwrap_or(Json::Null))
                .collect()
        })
        .collect()
}

fn records(report: Option<&Json>) -> Vec<Json> {
    report
        .and_then(|r| r.get("records"))
        .and_then(Json::as_arr)
        .expect("a report with records")
        .to_vec()
}

#[test]
fn killed_server_recovers_its_jobs_and_serves_the_golden_grid() {
    let golden = Json::parse(&std::fs::read_to_string(GOLDEN).expect("golden grid"))
        .expect("golden grid parses");
    let golden_records = records(Some(&golden));
    assert_eq!(golden_records.len() as u64, GRID_CELLS);

    let dir = std::env::temp_dir().join(format!("spb-serve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Life 1: serial workers keep the sweep slow enough that the kill
    // lands mid-run.
    let server = spawn_server(&dir, &["--jobs", "1"]);
    let job = JobSpec::quick_grid();
    let submitters: Vec<_> = (0..2)
        .map(|_| {
            let (addr, job) = (server.addr.clone(), job.clone());
            std::thread::spawn(move || client::submit(&addr, &job))
        })
        .collect();

    // Kill once enough cells are cached to prove partial recovery, but
    // well before the grid completes.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let computed = counter(&counters(&server.addr), "cells_computed");
        if computed >= KILL_AFTER {
            assert!(
                computed <= KILL_BEFORE,
                "polling too slow: {computed} cells computed before the kill landed"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never reached {KILL_AFTER} computed cells (at {computed})"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(server); // SIGKILL via the Drop guard: no graceful shutdown.
    for t in submitters {
        // Both clients must see an error, not a hang or a bogus reply.
        if let Ok(reply) = t.join().expect("client thread") {
            panic!("client got a reply from a killed server: {reply}");
        }
    }

    // Life 2: restart on the same state. The journaled jobs must be
    // recovered and finish, recomputing only the missing cells.
    let server = spawn_server(&dir, &[]);
    let recovered = counter(&counters(&server.addr), "jobs_recovered");
    assert!(recovered >= 1, "no journaled jobs recovered");
    let deadline = Instant::now() + Duration::from_secs(600);
    let table = loop {
        let table = counters(&server.addr);
        if counter(&table, "jobs_completed") >= recovered {
            break table;
        }
        assert!(
            Instant::now() < deadline,
            "recovered jobs never completed: {table}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    let recomputed = counter(&table, "cells_computed");
    assert!(
        recomputed > 0 && recomputed < GRID_CELLS,
        "expected a partial recompute (0 < cells < {GRID_CELLS}), got {recomputed}: {table}"
    );

    // The final grid request is pure cache hits and equals the golden.
    let reply = client::submit(&server.addr, &job).expect("final grid");
    assert_eq!(stat(&reply, "cache_hits"), GRID_CELLS, "served from cache");
    assert_eq!(stat(&reply, "computed"), 0, "served from cache");
    assert_eq!(stat(&reply, "failed"), 0, "final grid lost cells");
    let (got, want) = (
        grid_numbers(&records(reply.get("report"))),
        grid_numbers(&golden_records),
    );
    assert_eq!(got.len(), want.len(), "final grid size");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "record {i} differs from the golden grid");
    }

    client::shutdown(&server.addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
