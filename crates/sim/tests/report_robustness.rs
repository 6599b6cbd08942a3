//! Property tests: [`SweepReport::parse`] is fed whatever survived a
//! crash or a truncated write, so it must reject arbitrary garbage with
//! an `Err` — never a panic.

use proptest::prelude::*;
use spb_sim::sweep::{CellFailure, SweepRecord, SweepReport};

/// A representative on-disk report: two records plus a failed cell, so
/// every branch of the schema is present in the text being mangled.
fn sample_text() -> String {
    SweepReport {
        name: "prop".into(),
        records: vec![
            SweepRecord {
                app: "x264".into(),
                policy: "spb".into(),
                sb: 14,
                cycles: 123_456,
                uops: 300_000,
                ipc: 2.43,
                wall_ms: 1810.25,
                energy_nj: Some(1234.5),
                coh_msgs: Some(678),
            },
            SweepRecord {
                app: "dedup".into(),
                policy: "at-commit".into(),
                sb: 56,
                cycles: 98_765,
                uops: 240_000,
                ipc: 2.43,
                wall_ms: 905.5,
                energy_nj: None,
                coh_msgs: None,
            },
        ],
        failed: vec![CellFailure {
            app: "gcc".into(),
            policy: "ideal".into(),
            sb: 1024,
            reason: "panic: \"quoted\" and\nnewlined".into(),
            attempts: 2,
        }],
        metrics: None,
    }
    .to_json_string()
}

#[test]
fn sample_report_round_trips() {
    let text = sample_text();
    let report = SweepReport::parse(&text).expect("sample is valid");
    assert_eq!(report.records.len(), 2);
    assert_eq!(report.failed.len(), 1);
    assert_eq!(
        SweepReport::parse(&report.to_json_string()).unwrap(),
        report
    );
}

#[test]
fn every_truncation_parses_without_panicking() {
    // Exhaustive, not sampled: a crashed writer can stop at any byte.
    let text = sample_text();
    for cut in 0..text.len() {
        let prefix = &text[..cut];
        // A prefix that only lost trailing whitespace is still complete;
        // anything shorter must be rejected, never panicked on.
        if !text[cut..].trim().is_empty() {
            assert!(
                SweepReport::parse(prefix).is_err(),
                "truncation at byte {cut} must not parse as a clean report"
            );
        }
    }
}

proptest! {
    /// Flipping arbitrary bytes anywhere in the text never panics the
    /// parser; it either still parses (the flip hit whitespace or a
    /// string's interior) or errors cleanly.
    #[test]
    fn byte_mangled_reports_never_panic(
        positions in proptest::collection::vec(any::<u64>(), 1..8),
        values in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut bytes = sample_text().into_bytes();
        for (p, v) in positions.iter().zip(values.iter()) {
            let i = (*p as usize) % bytes.len();
            bytes[i] = (*v % 256) as u8;
        }
        // Mangling can break UTF-8 too; a non-UTF-8 file errors in the
        // caller's io layer first, so only the Ok path reaches parse.
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = SweepReport::parse(&text);
        }
    }

    /// Splicing the report with itself (simulating a partially
    /// overwritten file) never panics.
    #[test]
    fn spliced_reports_never_panic(a in any::<u64>(), b in any::<u64>()) {
        let text = sample_text();
        let i = (a as usize) % text.len();
        let j = (b as usize) % text.len();
        let spliced = format!("{}{}", &text[..i], &text[j..]);
        let _ = SweepReport::parse(&spliced);
    }
}

/// The committed golden grids survive a parse and a render byte for
/// byte, and the checksummed rendering is the canonical text with the
/// checksum as its last member, exactly where rendering the whole value
/// puts it. A grid file may be in either form: the plain render must
/// equal a file without a `"checksum"` member, the checksummed render
/// one with it (`sweep_report` saves that form).
#[test]
fn golden_grids_render_back_byte_for_byte() {
    use spb_stats::hash::{fnv1a64, hex16};
    use spb_stats::json::Json;
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in ["sweep-grid-quick", "sweep-grid-paper"] {
        let file = std::fs::read_to_string(results.join(format!("{name}.json"))).unwrap();
        let report = SweepReport::parse(&file).unwrap();
        let mut whole = Json::parse(&file).unwrap();
        let Json::Obj(pairs) = &mut whole else {
            panic!("{name}: not an object")
        };
        let has_checksum = matches!(pairs.last(), Some((key, _)) if key == "checksum");
        if has_checksum {
            pairs.pop();
        }
        let text = report.to_json_string();
        assert_eq!(text, format!("{whole:#}\n"), "{name}");

        let checksum = format!("fnv1a64:{}", hex16(fnv1a64(text.as_bytes())));
        assert_eq!(report.content_checksum(), checksum);
        if let Json::Obj(pairs) = &mut whole {
            pairs.push(("checksum".into(), Json::str(checksum)));
        }
        let checksummed = report.to_json_string_checksummed();
        assert_eq!(checksummed, format!("{whole:#}\n"), "{name}");
        let render = if has_checksum { &checksummed } else { &text };
        assert_eq!(*render, file, "{name}");
        assert_eq!(report.to_json_checksummed(), (whole, checksummed.clone()));
        assert_eq!(SweepReport::parse(&checksummed).unwrap(), report);
    }
}
