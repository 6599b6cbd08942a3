//! Cache- and journal-corruption recovery, end to end: flip bytes on
//! disk between server lives, then verify detection, quarantine,
//! recompute, and a final grid bit-identical to the uncached run.

use spb_serve::{client, Budget, CellSpec, JobSpec, ServeConfig, Server};
use spb_stats::json::Json;
use std::path::{Path, PathBuf};

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spb-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(cfg: ServeConfig) -> String {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.addr().expect("addr").to_string();
    std::thread::spawn(move || server.serve().expect("serve"));
    addr
}

fn tiny_job(name: &str) -> JobSpec {
    let cells = [
        ("x264", "spb", 14),
        ("lbm", "at-commit", 28),
        ("gcc", "ideal", 56),
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

/// The simulated fields of every record, in order (everything except
/// the host-timing `wall_ms`).
fn grid_numbers(reply: &Json) -> Vec<Vec<Json>> {
    reply
        .get("report")
        .and_then(|r| r.get("records"))
        .and_then(Json::as_arr)
        .expect("report.records")
        .iter()
        .map(|r| {
            ["app", "policy", "sb", "cycles", "uops", "ipc"]
                .iter()
                .map(|k| r.get(k).cloned().expect("record field"))
                .collect()
        })
        .collect()
}

/// Flips one byte inside every cache entry's cycle digits — valid JSON,
/// wrong content — so only the checksum can catch it.
fn corrupt_cache_entries(cache_dir: &Path) -> usize {
    let mut corrupted = 0;
    for entry in std::fs::read_dir(cache_dir).expect("cache dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read entry");
        let mangled: String = {
            // Find the cycles value and nudge its first digit.
            let needle = "\"cycles\": ";
            let at = text.find(needle).expect("entry has cycles") + needle.len();
            let mut bytes = text.into_bytes();
            bytes[at] = if bytes[at] == b'9' { b'8' } else { b'9' };
            String::from_utf8(bytes).expect("still utf-8")
        };
        std::fs::write(&path, mangled).expect("write mangled entry");
        corrupted += 1;
    }
    corrupted
}

#[test]
fn corrupted_cache_and_journal_recover_to_a_bit_identical_grid() {
    let dir = state_dir("e2e");
    let job = tiny_job("corruption-grid");

    // Life 1: compute the grid uncached; this is the reference.
    let addr = spawn_server(ServeConfig::at(&dir));
    let reference = client::submit(&addr, &job).expect("reference run");
    assert_eq!(stat(&reference, "computed"), 3);
    client::shutdown(&addr).expect("shutdown life 1");

    // Sabotage, part 1: flip a byte in every cached entry.
    let flipped = corrupt_cache_entries(&dir.join("cache"));
    assert_eq!(flipped, 3, "every cell was cached");
    // Sabotage, part 2: mangle the journal's first line and tear the
    // last one mid-record.
    let journal_path = dir.join("journal.waj");
    let text = std::fs::read_to_string(&journal_path).expect("journal");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "journal holds accepted + done");
    let mut mangled: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
    mangled[0] = mangled[0].replacen("accepted", "acceptXd", 1);
    let last = mangled.last_mut().expect("non-empty");
    last.truncate(last.len() / 2);
    std::fs::write(&journal_path, mangled.join("\n")).expect("write mangled journal");

    // Life 2: the server comes back up despite the mangled journal…
    let addr = spawn_server(ServeConfig::at(&dir));
    let health = client::health(&addr).expect("health");
    let counters = health
        .get("metrics")
        .and_then(|m| m.get("serve"))
        .and_then(|c| c.get("counters"))
        .cloned()
        .expect("serve counters");
    assert!(
        counters
            .get("journal_corrupt_lines")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 2,
        "mangled journal lines were detected: {counters}"
    );
    // …and the quarantine file preserves the evidence.
    let quarantined = std::fs::read_to_string(format!("{}.corrupt", journal_path.display()))
        .expect("journal quarantine file");
    assert!(quarantined.contains("acceptXd"));

    // Resubmitting detects every corrupted entry, quarantines it, and
    // recomputes: zero cache hits, full recompute.
    let recovered = client::submit(&addr, &job).expect("recovery run");
    assert_eq!(stat(&recovered, "cache_corrupt"), 3, "all flips detected");
    assert_eq!(stat(&recovered, "cache_hits"), 0);
    assert_eq!(stat(&recovered, "computed"), 3);
    assert_eq!(stat(&recovered, "failed"), 0);

    // The recomputed grid is bit-identical to the uncached reference.
    assert_eq!(grid_numbers(&recovered), grid_numbers(&reference));

    // Quarantined entries are preserved on disk for post-mortem, and
    // the healed cache serves hits again.
    let quarantined_entries = std::fs::read_dir(dir.join("cache"))
        .expect("cache dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".quarantined"))
        .count();
    assert_eq!(quarantined_entries, 3);
    let healed = client::submit(&addr, &job).expect("healed run");
    assert_eq!(stat(&healed, "cache_hits"), 3);
    assert_eq!(stat(&healed, "computed"), 0);
    assert_eq!(grid_numbers(&healed), grid_numbers(&reference));

    client::shutdown(&addr).expect("shutdown life 2");
    let _ = std::fs::remove_dir_all(&dir);
}
