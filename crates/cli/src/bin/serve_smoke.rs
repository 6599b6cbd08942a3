//! CI smoke gate for the fault-tolerant sweep service.
//!
//! The scenario the service exists for, end to end, against real
//! processes and a real `SIGKILL`:
//!
//! 1. start `spbsim serve` (serial workers, so the kill window is
//!    wide), submit the full 230-cell quick grid from two overlapping
//!    clients;
//! 2. `kill -9` the server mid-sweep, after some cells have been
//!    computed and cached but long before the grid is done;
//! 3. restart the server on the same state directory and verify the
//!    journaled jobs are recovered and finish with only the missing
//!    cells re-simulated (cache-hit counters prove it);
//! 4. submit the grid once more and check the 230 records are
//!    bit-identical to the committed golden file
//!    `results/sweep-grid-quick.json` (everything except the
//!    host-timing `wall_ms`).
//!
//! Exits 0 and prints `serve_smoke: PASS` on success; prints the
//! failure and exits 1 otherwise.

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

fn main() {
    match run() {
        Ok(()) => println!("serve_smoke: PASS"),
        Err(e) => {
            eprintln!("serve_smoke: FAIL: {e}");
            std::process::exit(1);
        }
    }
}

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
fn spawn_server(dir: &std::path::Path, extra: &[&str]) -> Result<ServerProc, String> {
    let spbsim = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .parent()
        .map(|p| p.join("spbsim"))
        .ok_or("no parent dir for current_exe")?;
    let mut child = Command::new(&spbsim)
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--dir"])
        .arg(dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", spbsim.display()))?;
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut lines = BufReader::new(stdout);
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        let mut line = String::new();
        match lines.read_line(&mut line) {
            Ok(0) => return Err("server exited before binding".into()),
            Ok(_) => {
                print!("  server: {line}");
                if let Some(rest) = line.trim().strip_prefix("serving on ") {
                    break rest.to_string();
                }
            }
            Err(e) => return Err(format!("reading server stdout: {e}")),
        }
        if Instant::now() > deadline {
            return Err("server never printed its address".into());
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Ok(ServerProc { child, addr })
}

/// The `serve` counter table out of a health reply.
fn counters(addr: &str) -> Result<Json, String> {
    client::health(addr)?
        .get("metrics")
        .and_then(|m| m.get("serve"))
        .and_then(|c| c.get("counters"))
        .cloned()
        .ok_or_else(|| "health reply missing serve counters".into())
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

fn run() -> Result<(), String> {
    let golden_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/sweep-grid-quick.json".into());
    let golden_text = std::fs::read_to_string(&golden_path)
        .map_err(|e| format!("golden grid {golden_path}: {e} (run from the repo root)"))?;
    let golden = Json::parse(&golden_text).map_err(|e| format!("golden grid: {e}"))?;
    let golden_records = golden
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("golden grid has no records")?
        .to_vec();
    if golden_records.len() != GRID_CELLS as usize {
        return Err(format!(
            "golden grid holds {} records, expected {GRID_CELLS}",
            golden_records.len()
        ));
    }

    let dir = std::env::temp_dir().join(format!("spb-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = scenario(&dir, &golden_records);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn scenario(dir: &Path, golden_records: &[Json]) -> Result<(), String> {
    // Life 1: serial workers keep the sweep slow enough (a few
    // milliseconds per cell, ~230 cells) that the SIGKILL reliably
    // lands mid-run.
    println!("serve_smoke: life 1 — two overlapping quick-grid clients, then kill -9");
    let server = spawn_server(dir, &["--jobs", "1"])?;
    let job = JobSpec::quick_grid();
    let submitters: Vec<_> = (0..2)
        .map(|i| {
            let addr = server.addr.clone();
            let job = job.clone();
            std::thread::Builder::new()
                .name(format!("client-{i}"))
                .spawn(move || client::submit(&addr, &job))
                .expect("spawn client thread")
        })
        .collect();

    // Kill once enough cells are cached to prove partial recovery, but
    // well before the grid completes.
    let deadline = Instant::now() + Duration::from_secs(120);
    let computed_at_kill = loop {
        let table = counters(&server.addr)?;
        let computed = counter(&table, "cells_computed");
        if computed >= KILL_AFTER {
            if computed > KILL_BEFORE {
                return Err(format!(
                    "polling too slow: {computed} cells computed before the kill landed"
                ));
            }
            break computed;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "server never reached {KILL_AFTER} computed cells (at {computed})"
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    drop(server); // SIGKILL via the Drop guard — no graceful shutdown.
    println!("serve_smoke: killed the server at {computed_at_kill} computed cells");
    for t in submitters {
        // Both clients must observe an error, not a hang or a bogus Ok.
        match t.join().map_err(|_| "client thread panicked")? {
            Err(_) => {}
            Ok(r) => return Err(format!("client got a reply from a killed server: {r}")),
        }
    }

    // Life 2: restart on the same state. The journaled jobs must be
    // recovered and must finish, recomputing only the missing cells.
    println!("serve_smoke: life 2 — restart, recover, verify");
    let server = spawn_server(dir, &[])?;
    let table = counters(&server.addr)?;
    let recovered = counter(&table, "jobs_recovered");
    if recovered < 1 {
        return Err(format!("no journaled jobs recovered: {table}"));
    }
    let deadline = Instant::now() + Duration::from_secs(300);
    let table = loop {
        let table = counters(&server.addr)?;
        if counter(&table, "jobs_completed") >= recovered {
            break table;
        }
        if Instant::now() > deadline {
            return Err(format!("recovered jobs never completed: {table}"));
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let recomputed = counter(&table, "cells_computed");
    if recomputed == 0 || recomputed >= GRID_CELLS {
        return Err(format!(
            "expected a partial recompute (0 < cells < {GRID_CELLS}), got {recomputed}: {table}"
        ));
    }
    println!(
        "serve_smoke: recovered {recovered} job(s), recomputed {recomputed} of {GRID_CELLS} cells"
    );

    // The final grid request is pure cache hits and bit-identical to
    // the committed golden file.
    let reply = client::submit(&server.addr, &job)?;
    if stat(&reply, "cache_hits") != GRID_CELLS || stat(&reply, "computed") != 0 {
        return Err(format!(
            "final grid was not served from cache: hits {} computed {}",
            stat(&reply, "cache_hits"),
            stat(&reply, "computed")
        ));
    }
    if stat(&reply, "failed") != 0 {
        return Err(format!(
            "final grid lost cells: {} failed",
            stat(&reply, "failed")
        ));
    }
    let records = reply
        .get("report")
        .and_then(|r| r.get("records"))
        .and_then(Json::as_arr)
        .ok_or("final reply missing report.records")?
        .to_vec();
    let (got, want) = (grid_numbers(&records), grid_numbers(golden_records));
    if got.len() != want.len() {
        return Err(format!(
            "final grid holds {} records, golden {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if g != w {
            return Err(format!(
                "record {i} differs from golden: got {g:?}, want {w:?}"
            ));
        }
    }
    println!("serve_smoke: all {GRID_CELLS} records bit-identical to the golden grid");

    client::shutdown(&server.addr)?;
    Ok(())
}
