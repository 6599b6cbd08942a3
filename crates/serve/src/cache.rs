//! Persistent content-addressed result cache.
//!
//! Every completed cell is stored as one small JSON file keyed by the
//! cell's *content*: application, a digest of the full [`SimConfig`]
//! (policy, SB size, budgets, seed, kernel — everything that can change
//! the numbers), and the simulator code version. Identical cells in
//! later jobs — or after a crash-restart — are served from disk instead
//! of being re-simulated, and because the simulator is deterministic a
//! hit is bit-identical to a fresh run (modulo the non-reproducible
//! `wall_ms` host timing, which is cached as-measured).
//!
//! Robustness contract:
//!
//! - **Atomic writes**: entries are written to a same-directory tmp
//!   file and renamed into place, so a crash mid-store leaves either no
//!   entry or a complete one — never a torn file.
//! - **Per-entry checksums**: each entry embeds an FNV-1a digest of its
//!   canonical body; [`ResultCache::lookup`] re-derives it on read.
//! - **Corruption quarantine**: an unreadable, unparsable, mismatched
//!   or wrong-key entry is renamed to `<name>.quarantined` (kept for
//!   post-mortem) and reported as [`Lookup::Corrupt`] so the caller
//!   recomputes; the service counts these in its health stats.
//! - **Bounded growth**: an optional LRU bound on the entry count
//!   ([`ServeConfig::cache_max_entries`](crate::ServeConfig::cache_max_entries)).
//!   Eviction removes whole entries, never edits them, so it can only
//!   turn a future hit into a miss — and a miss recomputes
//!   bit-identically (the simulator is deterministic). Lookups bump an
//!   entry's file mtime, which is the recency the evictor sorts by.

use crate::CODE_VERSION;
use spb_sim::config::SimConfig;
use spb_sim::sweep::{write_atomically, SweepRecord};
use spb_stats::hash::{fnv1a64, hex16};
use spb_stats::json::Json;
use std::path::{Path, PathBuf};

/// The content-addressed key of one cell result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Derives the key for `(app, cfg)` under the current code version
    /// (`spb-<crate version>-g<N>`). The config digest covers the
    /// `Debug` rendering of the *whole* [`SimConfig`] — any field that
    /// could change the simulated numbers changes the key.
    pub fn for_cell(app: &str, cfg: &SimConfig) -> Self {
        Self(fnv1a64(
            format!("{CODE_VERSION}|{app}|{cfg:?}").as_bytes(),
        ))
    }

    /// The entry's file name under the cache directory.
    pub fn file_name(&self) -> String {
        format!("{}.json", hex16(self.0))
    }

    /// The key as 16 lowercase hex digits (tuner provenance).
    pub fn hex(&self) -> String {
        hex16(self.0)
    }
}

/// The outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A validated entry: the cached record.
    Hit(SweepRecord),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed validation; it has been quarantined
    /// and the caller must recompute. The string says why.
    Corrupt(String),
}

/// A directory of checksummed, atomically-written cell results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    /// Evict least-recently-used entries past this count, if set.
    max_entries: Option<usize>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache at `dir`, unbounded.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            max_entries: None,
        })
    }

    /// Bounds the cache to at most `n` entries (LRU eviction on store).
    pub(crate) fn with_entry_bound(mut self, n: usize) -> Self {
        self.max_entries = Some(n);
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// The checksum of an entry body: FNV-1a over its canonical
    /// pretty text.
    fn body_checksum(body: &Json) -> String {
        format!(
            "fnv1a64:{}",
            hex16(fnv1a64(format!("{body:#}\n").as_bytes()))
        )
    }

    /// Stores `record` under `key` with an embedded checksum, via a
    /// same-directory tmp file and an atomic rename.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a failed store leaves no partial
    /// entry behind.
    pub fn store(&self, key: CacheKey, app: &str, record: &SweepRecord) -> std::io::Result<()> {
        // The canonical body is key provenance plus the record; the
        // checksum covers its pretty text.
        let body = Json::obj([
            ("key", Json::str(hex16(key.0))),
            ("code_version", Json::str(CODE_VERSION)),
            ("app", Json::str(app)),
            ("record", record.to_json()),
        ]);
        let checksum = Self::body_checksum(&body);
        let v = Json::obj([("body", body), ("checksum", Json::str(checksum))]);
        write_atomically(&self.entry_path(key), &format!("{v:#}\n"))?;
        // Best-effort: a failed eviction only leaves the cache larger
        // than asked, never corrupts an entry.
        self.enforce_bounds();
        Ok(())
    }

    /// Validates and returns the entry under `key`, quarantining it on
    /// any corruption.
    pub fn lookup(&self, key: CacheKey) -> Lookup {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => return self.quarantine(&path, format!("unreadable entry: {e}")),
        };
        match Self::validate(key, &text) {
            Ok(record) => {
                // Bump recency so the LRU evictor keeps hot entries.
                // Best-effort: a stale mtime only skews eviction order.
                if self.max_entries.is_some() {
                    if let Ok(f) = std::fs::File::options().write(true).open(&path) {
                        let _ = f.set_modified(std::time::SystemTime::now());
                    }
                }
                Lookup::Hit(record)
            }
            Err(why) => self.quarantine(&path, why),
        }
    }

    fn validate(key: CacheKey, text: &str) -> Result<SweepRecord, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let body = v.get("body").ok_or("missing body")?;
        let stated = v
            .get("checksum")
            .and_then(Json::as_str)
            .ok_or("missing checksum")?;
        let computed = Self::body_checksum(body);
        if stated != computed {
            return Err(format!(
                "checksum mismatch: entry says {stated}, content hashes to {computed}"
            ));
        }
        let entry_key = body.get("key").and_then(Json::as_str).unwrap_or("");
        if entry_key != hex16(key.0) {
            return Err(format!(
                "key mismatch: entry is for {entry_key}, looked up {}",
                hex16(key.0)
            ));
        }
        let version = body.get("code_version").and_then(Json::as_str).unwrap_or("");
        if version != CODE_VERSION {
            return Err(format!(
                "stale code version {version:?} (current {CODE_VERSION:?})"
            ));
        }
        SweepRecord::from_json(body.get("record").ok_or("missing record")?)
    }

    /// Live entries as `(path, mtime)`; excludes quarantined and
    /// in-flight tmp files (both fail the `*.json`, non-dot filter).
    fn live_entries(&self) -> Vec<(PathBuf, std::time::SystemTime)> {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        rd.filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.ends_with(".json") && !name.starts_with('.')
            })
            .filter_map(|e| {
                let mtime = e.metadata().ok()?.modified().ok()?;
                Some((e.path(), mtime))
            })
            .collect()
    }

    /// Deletes least-recently-used entries until the configured bound
    /// holds. Whole-entry deletion only: an evicted key becomes a clean
    /// [`Lookup::Miss`] whose recompute is bit-identical, so eviction
    /// can never corrupt a result.
    fn enforce_bounds(&self) {
        let Some(max) = self.max_entries else {
            return;
        };
        let mut entries = self.live_entries();
        entries.sort_by_key(|&(_, mtime)| mtime);
        let mut count = entries.len();
        for (path, _) in entries {
            if count <= max {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                count -= 1;
            }
        }
    }

    /// Moves a bad entry aside (never deletes evidence) and reports the
    /// reason. If even the rename fails the entry is left in place; the
    /// caller still recomputes.
    fn quarantine(&self, path: &Path, why: String) -> Lookup {
        let mut q = path.as_os_str().to_owned();
        q.push(".quarantined");
        let _ = std::fs::rename(path, PathBuf::from(q));
        Lookup::Corrupt(why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_sim::config::PolicyKind;

    fn record() -> SweepRecord {
        SweepRecord {
            app: "x264".into(),
            policy: "spb".into(),
            sb: 14,
            cycles: 123_456,
            uops: 300_000,
            ipc: 300_000.0 / 123_456.0,
            wall_ms: 10.5,
            energy_nj: Some(4321.25),
            coh_msgs: Some(99),
        }
    }

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("spb-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    fn entry_count(cache: &ResultCache) -> usize {
        cache.live_entries().len()
    }

    fn quarantined_count(cache: &ResultCache) -> usize {
        std::fs::read_dir(cache.dir())
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().ends_with(".quarantined")
            })
            .count()
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = tmp_cache("roundtrip");
        let cfg = SimConfig::quick().with_sb(14).with_policy(PolicyKind::spb_default());
        let key = CacheKey::for_cell("x264", &cfg);
        assert_eq!(cache.lookup(key), Lookup::Miss);
        cache.store(key, "x264", &record()).unwrap();
        assert_eq!(cache.lookup(key), Lookup::Hit(record()));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn store_writes_the_same_entry_bytes_as_ever() {
        // Pinned entry text: existing cache directories stay valid only
        // while a store writes exactly these bytes. (A CODE_VERSION
        // bump changes them, and is meant to invalidate old entries.)
        const ENTRY: &str = r#"{
  "body": {
    "key": "0123456789abcdef",
    "code_version": "spb-0.1.0-g1",
    "app": "x264",
    "record": {
      "app": "x264",
      "policy": "spb-burst(48)",
      "sb": 14,
      "cycles": 123456,
      "uops": 300000,
      "ipc": 2.4300155520995332,
      "wall_ms": 10.5,
      "energy_nj": 4321.25,
      "coh_msgs": 99
    }
  },
  "checksum": "fnv1a64:d945c287b94c0e62"
}
"#;
        let cache = tmp_cache("pinned");
        let key = CacheKey(0x0123_4567_89ab_cdef);
        let record = SweepRecord {
            policy: "spb-burst(48)".into(),
            ..record()
        };
        cache.store(key, "x264", &record).unwrap();
        let text = std::fs::read_to_string(cache.dir().join(key.file_name())).unwrap();
        assert_eq!(text, ENTRY);
        assert_eq!(cache.lookup(key), Lookup::Hit(record));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn keys_separate_configs_and_apps() {
        let base = SimConfig::quick();
        let k = |app: &str, cfg: &SimConfig| CacheKey::for_cell(app, cfg);
        assert_ne!(k("x264", &base), k("lbm", &base));
        assert_ne!(k("x264", &base), k("x264", &base.clone().with_sb(14)));
        let mut seeded = base.clone();
        seeded.seed = 43;
        assert_ne!(k("x264", &base), k("x264", &seeded));
    }

    #[test]
    fn flipped_bytes_are_detected_and_quarantined() {
        let cache = tmp_cache("flip");
        let cfg = SimConfig::quick();
        let key = CacheKey::for_cell("x264", &cfg);
        cache.store(key, "x264", &record()).unwrap();
        let path = cache.dir().join(key.file_name());
        // Flip a digit inside the cycle count: still valid JSON.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("123456", "123457", 1)).unwrap();
        match cache.lookup(key) {
            Lookup::Corrupt(why) => assert!(why.contains("checksum"), "why: {why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The bad entry is quarantined, not deleted; the slot now misses.
        assert_eq!(quarantined_count(&cache), 1);
        assert_eq!(cache.lookup(key), Lookup::Miss);
        // Recompute-and-store heals the slot.
        cache.store(key, "x264", &record()).unwrap();
        assert_eq!(cache.lookup(key), Lookup::Hit(record()));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn truncated_and_garbage_entries_quarantine() {
        let cache = tmp_cache("garbage");
        let cfg = SimConfig::quick();
        let key = CacheKey::for_cell("lbm", &cfg);
        cache.store(key, "lbm", &record()).unwrap();
        let path = cache.dir().join(key.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Corrupt(_)));
        std::fs::write(cache.dir().join(key.file_name()), "not json at all").unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Corrupt(_)));
        assert_eq!(quarantined_count(&cache), 1, "second quarantine overwrote");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn lru_eviction_bounds_entries_and_recompute_is_bit_identical() {
        use std::time::{Duration, SystemTime};
        let cache = tmp_cache("lru").with_entry_bound(4);
        let apps = ["a", "b", "c", "d", "e", "f"];
        let keys: Vec<CacheKey> = apps
            .iter()
            .map(|app| CacheKey::for_cell(app, &SimConfig::quick()))
            .collect();
        // Store the first four with explicit, strictly increasing
        // mtimes so LRU order is deterministic regardless of clock
        // granularity: a oldest ... d newest.
        let base = SystemTime::now() - Duration::from_secs(3600);
        for (i, (app, key)) in apps.iter().zip(&keys).take(4).enumerate() {
            cache.store(*key, app, &record()).unwrap();
            let f = std::fs::File::options()
                .write(true)
                .open(cache.dir().join(key.file_name()))
                .unwrap();
            f.set_modified(base + Duration::from_secs(i as u64)).unwrap();
        }
        assert_eq!(entry_count(&cache), 4);
        // A lookup refreshes "a"'s recency, so it must survive the
        // coming evictions while the untouched "b" does not.
        assert!(matches!(cache.lookup(keys[0]), Lookup::Hit(_)));
        cache.store(keys[4], "e", &record()).unwrap();
        cache.store(keys[5], "f", &record()).unwrap();
        assert_eq!(entry_count(&cache), 4, "bound enforced after stores");
        assert!(
            matches!(cache.lookup(keys[0]), Lookup::Hit(_)),
            "recently-used entry survived eviction"
        );
        assert_eq!(cache.lookup(keys[1]), Lookup::Miss, "LRU entry evicted");
        // Eviction never corrupts: recomputing the evicted cell and
        // re-storing yields a bit-identical hit.
        cache.store(keys[1], "b", &record()).unwrap();
        assert_eq!(cache.lookup(keys[1]), Lookup::Hit(record()));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn bound_evicts_and_spares_quarantined_evidence() {
        // Seed and quarantine through an unbounded handle so the bound
        // cannot evict the entry before the corruption check sees it.
        let unbounded = tmp_cache("zerobound");
        let cache = unbounded.clone().with_entry_bound(0);
        let cfg = SimConfig::quick();
        let key_a = CacheKey::for_cell("a", &cfg);
        let key_b = CacheKey::for_cell("b", &cfg);
        unbounded.store(key_a, "a", &record()).unwrap();
        // Corrupt and quarantine "a"'s entry: quarantined files are
        // evidence, not cache entries — the evictor must not count or
        // delete them.
        let path = cache.dir().join(key_a.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("123456", "999999", 1)).unwrap();
        assert!(matches!(cache.lookup(key_a), Lookup::Corrupt(_)));
        assert_eq!(quarantined_count(&cache), 1);
        // Every store now exceeds the zero-entry bound, so the cache
        // keeps evicting down to nothing — but the quarantined file stays.
        cache.store(key_b, "b", &record()).unwrap();
        assert_eq!(entry_count(&cache), 0, "bound evicts everything");
        assert_eq!(quarantined_count(&cache), 1, "evidence untouched");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn wrong_key_entries_quarantine() {
        let cache = tmp_cache("wrongkey");
        let cfg = SimConfig::quick();
        let key_a = CacheKey::for_cell("x264", &cfg);
        let key_b = CacheKey::for_cell("lbm", &cfg);
        cache.store(key_a, "x264", &record()).unwrap();
        // Simulate a mis-filed entry: key_a's content under key_b's name.
        std::fs::copy(
            cache.dir().join(key_a.file_name()),
            cache.dir().join(key_b.file_name()),
        )
        .unwrap();
        match cache.lookup(key_b) {
            Lookup::Corrupt(why) => assert!(why.contains("key mismatch"), "why: {why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }
}
