//! Reference records every simulated result is checked against.
//!
//! Three files, all in the [`SweepReport`] schema:
//!
//! - `results/sweep-grid-paper.json`: the repository's golden SPEC grid
//!   at the paper budget (seed 42), checked by `spec_mem` and `spec_sb`;
//! - `results/sweep-grid-quick.json`: the golden quick grid, which
//!   `serve_warm` loads into the service's cache and checks replies
//!   against;
//! - `perfbench/expected/parsec_mt.json`: the `parsec_mt` cells,
//!   generated under the lock-step `tick` kernel (the executable spec)
//!   and confirmed equal under `wheel`; it must carry a checksum.
//!
//! A loader refuses a truncated or mangled file rather than checking
//! against wrong numbers: the JSON must parse, an embedded checksum
//! must match, every record must be internally consistent (IPC equals
//! µops over cycles) and no cell may appear twice.

use spb_sim::sweep::{SweepRecord, SweepReport};
use spb_stats::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The golden SPEC grid at the paper budget.
pub const PAPER_GRID: &str = "results/sweep-grid-paper.json";
/// The golden SPEC grid at the quick budget.
pub const QUICK_GRID: &str = "results/sweep-grid-quick.json";
/// The `parsec_mt` expected records.
pub const PARSEC_EXPECTED: &str = "perfbench/expected/parsec_mt.json";

/// A cell's identity: application, policy label, effective SB entries.
pub type CellId = (String, String, usize);

/// The numbers a cell must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reference {
    /// Measured cycles.
    cycles: u64,
    /// Measured committed µops.
    uops: u64,
    /// Committed µops per cycle.
    ipc: f64,
}

/// A validated set of reference records, keyed by cell.
#[derive(Debug, Clone)]
pub struct RefSet {
    records: BTreeMap<CellId, Reference>,
}

/// Parses and validates a reference report. With `require_checksum`,
/// a report without an embedded checksum is refused too.
///
/// # Errors
///
/// Names the first problem found.
pub fn parse_report(text: &str, require_checksum: bool) -> Result<SweepReport, String> {
    if require_checksum {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        if v.get("checksum").is_none() {
            return Err("reference file has no checksum".into());
        }
    }
    let report = SweepReport::parse(text)?;
    if !report.failed.is_empty() {
        return Err(format!(
            "{} failed cells in a reference file",
            report.failed.len()
        ));
    }
    if report.records.is_empty() {
        return Err("no records".into());
    }
    for r in &report.records {
        check_consistent(r)?;
    }
    Ok(report)
}

fn check_consistent(r: &SweepRecord) -> Result<(), String> {
    let id = format!("{}/{}/{}", r.app, r.policy, r.sb);
    if r.cycles == 0 || r.uops == 0 {
        return Err(format!("{id}: zero cycles or µops"));
    }
    let expect = r.uops as f64 / r.cycles as f64;
    if !r.ipc.is_finite() || (r.ipc - expect).abs() > 1e-9 * expect {
        return Err(format!(
            "{id}: ipc {} does not equal uops/cycles {expect}",
            r.ipc
        ));
    }
    Ok(())
}

impl RefSet {
    /// Indexes a validated report.
    ///
    /// # Errors
    ///
    /// A cell that appears twice.
    pub fn from_report(report: &SweepReport) -> Result<Self, String> {
        let mut records = BTreeMap::new();
        for r in &report.records {
            let id = (r.app.clone(), r.policy.clone(), r.sb);
            let reference = Reference {
                cycles: r.cycles,
                uops: r.uops,
                ipc: r.ipc,
            };
            if records.insert(id, reference).is_some() {
                return Err(format!("{}/{}/{} appears twice", r.app, r.policy, r.sb));
            }
        }
        Ok(Self { records })
    }

    /// Reads, validates and indexes the reference file at `path`.
    ///
    /// # Errors
    ///
    /// Unreadable, truncated or mangled files, naming the path.
    pub fn load(path: &Path, require_checksum: bool) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        parse_report(&text, require_checksum)
            .and_then(|r| Self::from_report(&r))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Whether `id` has a reference.
    pub fn contains(&self, id: &CellId) -> bool {
        self.records.contains_key(id)
    }

    /// Compares one produced result with its reference.
    ///
    /// # Errors
    ///
    /// A missing reference or any differing number.
    pub fn check(&self, id: &CellId, cycles: u64, uops: u64, ipc: f64) -> Result<(), String> {
        let (app, policy, sb) = id;
        let r = self
            .records
            .get(id)
            .ok_or_else(|| format!("{app}/{policy}/{sb}: no reference record"))?;
        if r.cycles != cycles || r.uops != uops || (r.ipc - ipc).abs() > 1e-12 * r.ipc {
            return Err(format!(
                "{app}/{policy}/{sb}: got cycles {cycles} uops {uops} ipc {ipc}, \
                 reference cycles {} uops {} ipc {}",
                r.cycles, r.uops, r.ipc
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RefSet {
        fn len(&self) -> usize {
            self.records.len()
        }
    }

    fn root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn sample_text(checksummed: bool) -> String {
        let rec = |app: &str, cycles: u64| SweepRecord {
            app: app.into(),
            policy: "spb".into(),
            sb: 14,
            cycles,
            uops: 600_000,
            ipc: 600_000.0 / cycles as f64,
            wall_ms: 0.0,
            energy_nj: None,
            coh_msgs: None,
        };
        let report = SweepReport {
            name: "sample".into(),
            records: vec![rec("bwaves", 185_095), rec("x264", 192_326)],
            failed: Vec::new(),
            metrics: None,
        };
        if checksummed {
            report.to_json_string_checksummed()
        } else {
            report.to_json_string()
        }
    }

    #[test]
    fn committed_reference_files_load() {
        let paper = RefSet::load(&root().join(PAPER_GRID), false).unwrap();
        assert_eq!(paper.len(), 230);
        let quick = RefSet::load(&root().join(QUICK_GRID), false).unwrap();
        assert_eq!(quick.len(), 230);
        let parsec = RefSet::load(&root().join(PARSEC_EXPECTED), true).unwrap();
        assert_eq!(parsec.len(), 10);
        // The anchor cell the golden grid was checked at.
        paper
            .check(
                &("mcf".into(), "at-commit".into(), 14),
                11_256_002,
                600_001,
                600_001.0 / 11_256_002.0,
            )
            .unwrap();
    }

    #[test]
    fn truncated_files_are_refused() {
        let text = sample_text(true);
        for cut in [0, 1, text.len() / 3, text.len() / 2, text.len() - 3] {
            assert!(parse_report(&text[..cut], false).is_err(), "cut at {cut}");
        }
        assert!(parse_report(&text, true).is_ok());
    }

    #[test]
    fn mangled_files_are_refused() {
        // A flipped digit in a checksummed file breaks the checksum.
        let text = sample_text(true);
        let mangled = text.replacen("185095", "185096", 1);
        assert!(parse_report(&mangled, false)
            .unwrap_err()
            .contains("checksum"));
        // Without a checksum, the record no longer agrees with its IPC.
        let plain = sample_text(false);
        let mangled = plain.replacen("185095", "185096", 1);
        assert!(parse_report(&mangled, false).unwrap_err().contains("ipc"));
        // A file that must be checksummed but is not.
        assert!(parse_report(&plain, true).unwrap_err().contains("checksum"));
        // A duplicated cell.
        let dup = plain
            .replacen("x264", "bwaves", 1)
            .replacen("192326", "185095", 1);
        let dup = dup.replacen(
            &format!("{}", 600_000.0 / 192_326.0),
            &format!("{}", 600_000.0 / 185_095.0),
            1,
        );
        let report = parse_report(&dup, false).unwrap();
        assert!(RefSet::from_report(&report).unwrap_err().contains("twice"));
        // Not a report at all.
        assert!(parse_report("{\"name\": \"x\"}", false).is_err());
        assert!(parse_report("{\"name\": \"x\", \"records\": []}", false).is_err());
    }

    #[test]
    fn check_names_the_differing_cell() {
        let report = parse_report(&sample_text(true), true).unwrap();
        let refs = RefSet::from_report(&report).unwrap();
        let id = ("bwaves".to_string(), "spb".to_string(), 14);
        refs.check(&id, 185_095, 600_000, 600_000.0 / 185_095.0)
            .unwrap();
        let e = refs.check(&id, 185_096, 600_000, 1.0).unwrap_err();
        assert!(e.contains("bwaves/spb/14"), "{e}");
        let missing = ("mcf".to_string(), "spb".to_string(), 14);
        assert!(refs
            .check(&missing, 1, 1, 1.0)
            .unwrap_err()
            .contains("no reference"));
    }
}
