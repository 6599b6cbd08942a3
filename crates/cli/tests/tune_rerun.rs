//! `spbsim tune` is reproducible from its command line: the same
//! seeded 60-point tune run twice against one cache directory computes
//! nothing the second time, writes a byte-identical report, and finds a
//! frontier of at least three points with distinct objectives.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// The budget is large enough for the points to differ: at 2,000 +
/// 20,000 µops every point of this tune scores the same cycles, energy
/// and coherence traffic.
const TUNE: &str = "tune --strategy halving --seed 7 --points 60 \
                    --apps bwaves,x264,roms --warmup 20000 --uops 200000";

/// Runs the tune into `out` and returns its stdout.
fn tune(state: &Path, out: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_spbsim"))
        .args(TUNE.split(' '))
        .arg("--cache")
        .arg(state.join("cache"))
        .arg("--out")
        .arg(state.join(out))
        .args(["--name", "tune-rerun", "--jobs", "2"])
        .output()
        .expect("spawn spbsim tune");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        output.status.success(),
        "spbsim tune failed: {stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The number right after `prefix` on the first line that holds it.
fn number_after(text: &str, prefix: &str) -> Option<u64> {
    let rest = &text[text.find(prefix)? + prefix.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn a_rerun_is_fully_cached_and_byte_identical() {
    let state = std::env::temp_dir().join(format!("spb-tune-rerun-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let cold = tune(&state, "out1");
    let warm = tune(&state, "out2");

    let hits = number_after(&warm, "cache: ").expect("a cache line");
    assert!(
        hits >= 1 && warm.contains(&format!("cache: {hits} hit(s), 0 computed")),
        "the second run recomputed cells:\n{warm}"
    );
    let report = |out: &str| std::fs::read(state.join(out).join("tune-rerun.json")).unwrap();
    assert!(
        report("out1") == report("out2"),
        "reports differ between the cold and the warm run"
    );
    // Each frontier row ends in cycles, energy, coh msgs and EDP.
    let rows = cold
        .lines()
        .skip_while(|l| !l.starts_with("Pareto frontier"));
    let triples: BTreeSet<Vec<&str>> = (rows.skip(2))
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().rev().skip(1).take(3).collect())
        .collect();
    assert!(
        triples.len() >= 3,
        "the frontier has only {} distinct (cycles, energy, coh msgs) triple(s):\n{cold}",
        triples.len()
    );
    let _ = std::fs::remove_dir_all(&state);
}
