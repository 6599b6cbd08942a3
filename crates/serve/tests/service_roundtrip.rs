//! End-to-end service tests over a real TCP socket: submit/receive,
//! cache hits on resubmission, journal recovery, injected-fault
//! convergence, explicit overload shedding, and bounded request
//! parsing (nesting depth and line length).

use spb_serve::service::MAX_REQUEST_BYTES;
use spb_serve::{client, Budget, CellSpec, JobSpec, ServeConfig, Server};
use spb_sim::sweep::SweepReport;
use spb_stats::json::Json;
use std::path::PathBuf;

/// A fresh state directory per test (and per process, so parallel test
/// binaries never collide).
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spb-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds a server on an ephemeral port and serves it on a background
/// thread. Returns the address; the thread exits on `shutdown`.
fn spawn_server(cfg: ServeConfig) -> String {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.addr().expect("addr").to_string();
    std::thread::spawn(move || server.serve().expect("serve"));
    addr
}

/// A tiny-budget job over a few distinct cells: fast even in debug
/// builds, deterministic like everything else.
fn tiny_job(name: &str) -> JobSpec {
    let cells = [
        ("x264", "spb", 14),
        ("x264", "at-commit", 28),
        ("lbm", "ideal", 56),
    ]
    .iter()
    .map(|&(app, policy, sb)| CellSpec {
        app: app.into(),
        policy: policy.into(),
        sb,
    })
    .collect();
    let mut job = JobSpec::new(name, Budget::Quick, cells);
    job.warmup_uops = Some(2_000);
    job.measure_uops = Some(10_000);
    job
}

fn stat(reply: &Json, key: &str) -> u64 {
    reply
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("reply missing stats.{key}: {reply}"))
}

fn records(reply: &Json) -> Vec<Json> {
    reply
        .get("report")
        .and_then(|r| r.get("records"))
        .and_then(Json::as_arr)
        .expect("reply carries report.records")
        .to_vec()
}

/// The serve counters of a health reply.
fn counters(addr: &str) -> Json {
    client::health(addr)
        .expect("health")
        .get("metrics")
        .and_then(|m| m.get("serve"))
        .and_then(|c| c.get("counters"))
        .cloned()
        .expect("health carries serve counters")
}

#[test]
fn submit_computes_then_resubmission_hits_the_cache() {
    let dir = state_dir("roundtrip");
    let addr = spawn_server(ServeConfig::at(&dir));

    let job = tiny_job("roundtrip");
    let first = client::submit(&addr, &job).expect("first submission");
    assert_eq!(stat(&first, "computed"), 3);
    assert_eq!(stat(&first, "cache_hits"), 0);
    assert_eq!(stat(&first, "failed"), 0);
    let first_records = records(&first);
    assert_eq!(first_records.len(), 3);
    // Records come back in request order.
    assert_eq!(
        first_records[0].get("policy").and_then(Json::as_str),
        Some("spb")
    );

    // The identical job is served entirely from the cache, and the
    // simulated numbers are bit-identical (wall_ms is host timing).
    let second = client::submit(&addr, &job).expect("second submission");
    assert_eq!(stat(&second, "computed"), 0);
    assert_eq!(stat(&second, "cache_hits"), 3);
    for (a, b) in first_records.iter().zip(records(&second)) {
        for key in ["app", "policy", "sb", "cycles", "uops", "ipc"] {
            assert_eq!(a.get(key), b.get(key), "field {key} differs");
        }
    }

    // Health reflects the life of the service so far.
    let counters = counters(&addr);
    assert_eq!(
        counters.get("jobs_completed").and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(
        counters.get("cells_computed").and_then(Json::as_u64),
        Some(3)
    );
    assert_eq!(counters.get("cache_hits").and_then(Json::as_u64), Some(3));

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve-path work counters: keys derived, entry files read and
/// checksums re-derived by rendering.
fn serve_work(addr: &str) -> [u64; 3] {
    let c = counters(addr);
    [
        "cache_keys_derived",
        "cache_entries_read",
        "cache_checksums_rendered",
    ]
    .map(|name| {
        c.get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("health lacks {name}: {c}"))
    })
}

#[test]
fn a_warm_repeat_job_derives_no_keys_and_renders_no_checksums() {
    let dir = state_dir("work");
    let addr = spawn_server(ServeConfig::at(&dir));
    assert_eq!(serve_work(&addr), [0, 0, 0]);

    // Cold: every key is derived; the cache is empty, so no entry is
    // read.
    let job = tiny_job("work");
    let n = job.cells.len() as u64;
    assert_eq!(
        stat(&client::submit(&addr, &job).expect("cold job"), "computed"),
        n
    );
    assert_eq!(serve_work(&addr), [n, 0, 0]);

    // Warm, cells in another order: no key derived, every entry read
    // from disk and checked off its text.
    let mut warm = job.clone();
    warm.cells.reverse();
    warm.cells.rotate_left(1);
    assert_ne!(warm.cells, job.cells);
    let reply = client::submit(&addr, &warm).expect("warm job");
    assert_eq!(stat(&reply, "cache_hits"), n);
    assert_eq!(serve_work(&addr), [n, n, 0]);

    // Another base config derives its keys afresh.
    let mut reseeded = job;
    reseeded.seed = Some(43);
    client::submit(&addr, &reseeded).expect("reseeded job");
    assert_eq!(serve_work(&addr), [2 * n, n, 0]);

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_jobs_recover_across_a_restart() {
    let dir = state_dir("recover");
    let job = tiny_job("recover");

    // First life: accept the job into the journal but "crash" (drop the
    // server without serving) before it runs.
    {
        let server = Server::bind(ServeConfig::at(&dir)).expect("bind");
        let _ = server.addr();
        // Reach into the same journal file the server uses: simulate a
        // client whose accepted job never completed.
        drop(server);
        let (mut journal, recovery) =
            spb_serve::Journal::open(dir.join("journal.waj")).expect("journal");
        assert_eq!(recovery.pending.len(), 0);
        journal
            .accepted(&spb_serve::Journal::job_id(&job), &job)
            .expect("journal accept");
    }

    // Second life: the recovered job runs before any client connects.
    let addr = spawn_server(ServeConfig::at(&dir));
    // Poll health until the recovered job has been computed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let counters = counters(&addr);
        assert_eq!(
            counters.get("jobs_recovered").and_then(Json::as_u64),
            Some(1),
            "the journaled job was requeued on restart"
        );
        if counters.get("jobs_completed").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "recovered job never completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // A client submitting the same job now gets pure cache hits: only
    // the missing cells (none) were recomputed.
    let reply = client::submit(&addr, &job).expect("submit after recovery");
    assert_eq!(stat(&reply, "cache_hits"), 3);
    assert_eq!(stat(&reply, "computed"), 0);

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_faults_converge_with_zero_lost_cells() {
    let dir = state_dir("chaos");
    let addr = spawn_server(ServeConfig::at(&dir));

    // The acceptance rate (0.02) plus a heavier rate that guarantees
    // the retry path is exercised; both must lose zero cells and report
    // zero invariant violations.
    let mut baseline = None;
    for (tag, rate, retry) in [("acceptance", 200, 3), ("heavy", 4_000, 10)] {
        let fresh = state_dir(&format!("chaos-{tag}"));
        let addr = if tag == "acceptance" {
            addr.clone()
        } else {
            spawn_server(ServeConfig::at(&fresh))
        };
        let mut job = tiny_job("chaos");
        job.fault_rate_e4 = rate;
        job.fault_seed = 7;
        job.retry = retry;
        let reply = client::submit(&addr, &job).expect("chaos submission");
        assert_eq!(stat(&reply, "failed"), 0, "{tag}: zero lost cells");
        assert_eq!(stat(&reply, "computed"), 3, "{tag}: every cell computed");
        let recs = records(&reply);
        assert_eq!(recs.len(), 3);
        // Chaos never perturbs simulated numbers: both servers agree
        // bit-for-bit.
        let numbers: Vec<_> = recs
            .iter()
            .map(|r| {
                (
                    r.get("cycles").cloned(),
                    r.get("uops").cloned(),
                    r.get("ipc").cloned(),
                )
            })
            .collect();
        match &baseline {
            None => baseline = Some(numbers),
            Some(b) => assert_eq!(&numbers, b, "{tag}: results drift under chaos"),
        }
        if tag == "heavy" {
            client::shutdown(&addr).expect("shutdown heavy");
            let _ = std::fs::remove_dir_all(&fresh);
        }
    }

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_an_explicit_rejection_never_a_hang() {
    let dir = state_dir("overload");
    let mut cfg = ServeConfig::at(&dir);
    cfg.queue_limit = 0; // everything sheds
    let addr = spawn_server(cfg);

    let started = std::time::Instant::now();
    let err = client::submit(&addr, &tiny_job("shed")).expect_err("must shed");
    assert!(err.contains("overloaded"), "err: {err}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "rejection must be immediate, not a hang"
    );

    // The shed is visible in health, and the server still answers.
    let shed = counters(&addr).get("jobs_shed").and_then(Json::as_u64);
    assert_eq!(shed, Some(1));

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_explicit_errors() {
    let dir = state_dir("badreq");
    let addr = spawn_server(ServeConfig::at(&dir));

    let err = client::request(&addr, &Json::obj([("type", Json::str("warp"))]))
        .expect_err("unknown type");
    assert!(err.contains("unknown request type"), "err: {err}");

    let err = client::request(&addr, &Json::obj([("type", Json::str("sweep"))]))
        .expect_err("missing job");
    assert!(err.contains("job"), "err: {err}");

    let mut bad = tiny_job("bad");
    bad.cells[0].app = "not-a-benchmark".into();
    let err = client::submit(&addr, &bad).expect_err("unknown app");
    assert!(err.contains("not-a-benchmark"), "err: {err}");

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends one raw line on a fresh connection and reads one reply line.
fn raw_request(addr: &str, line: &str) -> Json {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("receive");
    Json::parse(reply.trim()).expect("replies are json")
}

#[test]
fn a_too_deep_request_is_rejected_and_the_next_job_still_runs() {
    let dir = state_dir("deep");
    let addr = spawn_server(ServeConfig::at(&dir));

    // Unbounded recursion on this line would overflow the stack and
    // abort the whole server.
    let reply = raw_request(&addr, &"[".repeat(100_000));
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
    let err = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(err.contains("nesting"), "err: {err}");

    let job = tiny_job("after-deep");
    let reply = client::submit(&addr, &job).expect("the server survived");
    assert_eq!(stat(&reply, "computed"), 3);

    // The report on the wire and the one saved under reports/ come
    // from one render: same checksum, same report, and the saved text
    // is exactly what the report renders to.
    let wire = reply.get("report").expect("reply carries a report");
    let saved_text = std::fs::read_to_string(dir.join("reports/after-deep.json")).unwrap();
    let saved = SweepReport::parse(&saved_text).expect("saved report validates");
    let on_wire = SweepReport::parse(&wire.to_string()).expect("wire report validates");
    assert_eq!(on_wire, saved);
    assert_eq!(
        wire.get("checksum"),
        Json::parse(&saved_text).unwrap().get("checksum")
    );
    assert_eq!(saved.to_json_string_checksummed(), saved_text);
    assert_eq!(
        wire.to_string(),
        Json::parse(&saved_text).unwrap().to_string()
    );

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_endless_request_line_is_cut_off_with_an_error() {
    use std::io::{BufRead, BufReader, Write};
    let dir = state_dir("longline");
    let addr = spawn_server(ServeConfig::at(&dir));

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    // A server that reads on forever fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // A client that never sends a newline: it writes until the server
    // stops reading and closes the connection.
    let sender = std::thread::spawn(move || {
        let chunk = vec![b' '; 1 << 16];
        let mut sent = 0usize;
        while sent <= 2 * MAX_REQUEST_BYTES && writer.write_all(&chunk).is_ok() {
            sent += chunk.len();
        }
        sent
    });
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("an error reply");
    let reply = Json::parse(reply.trim()).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
    let err = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(err.contains("longer than"), "err: {err}");
    // The server closed the connection instead of reading on.
    let mut rest = String::new();
    assert!(matches!(reader.read_line(&mut rest), Ok(0) | Err(_)));
    let sent = sender.join().unwrap();
    assert!(sent <= 2 * MAX_REQUEST_BYTES, "the server kept reading");

    // Other clients are unaffected.
    client::health(&addr).expect("health after the cut-off");
    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
