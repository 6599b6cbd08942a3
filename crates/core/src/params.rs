//! The first-class SPB parameter space.
//!
//! [`SpbParams`] names every knob of the [`SpbDetector`] — the window
//! `N` and dedupe register of the paper's detector, plus the extension
//! knobs: a saturating-counter burst threshold override, the fraction
//! of the remaining page a burst issues, backward (stack-like) bursts,
//! and cross-page bursts.
//!
//! [`SpbDetector`]: crate::detector::SpbDetector
//!
//! The type is the contract between the CLI/wire policy grammar
//! (`spb:n=32,dedupe=off,burst=3,frac=0.5`) and the detector
//! configuration: `parse_args` and `label_suffix` round-trip exactly,
//! and `spbsim tune` enumerates its dimensions. All fields are plain
//! integers/bools so the type stays `Copy + Eq + Hash` and its `Debug`
//! rendering (which feeds content-addressed cache keys) is total-ordered
//! and stable.

/// Inclusive bounds of the detector window `n`.
pub const N_RANGE: (u32, u32) = (1, 1024);
/// Inclusive bounds of the explicit burst-threshold override (0 = auto).
pub(crate) const BURST_RANGE: (u8, u8) = (1, 15);
/// Inclusive bounds of the page fraction, in thousandths (`frac=0.5` ⇔ 500).
pub(crate) const FRAC_MILLI_RANGE: (u16, u16) = (1, 1000);
/// Inclusive bounds of the cross-page extension.
pub(crate) const CROSS_RANGE: (u32, u32) = (0, 8);

/// One sentence naming every key and its range, used verbatim in every
/// parse error so a bad spelling teaches the full grammar.
pub const KEYS_HELP: &str = "n=1..1024, dedupe=on|off, burst=auto|1..15, \
     frac=(0,1] with at most 3 decimals, backward=on|off, cross=0..8";

/// The full SPB parameter vector.
///
/// `Default` is the paper's shipped configuration (N=48, dedupe on,
/// auto threshold, full-page bursts, forward only, no page crossing):
/// the bare `spb` policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpbParams {
    /// Detector window: the saturating counter is checked every `n`
    /// committed stores (paper default 48).
    pub n: u32,
    /// Suppress duplicate bursts to the same page (the 52-bit dedupe
    /// register of §IV-B).
    pub dedupe: bool,
    /// Explicit saturating-counter threshold a window check must reach
    /// to fire a burst; `0` means the paper's automatic
    /// `max(n/8, 1)` rule.
    pub burst: u8,
    /// Fraction of the remaining page a burst requests, in thousandths
    /// (1000 = the paper's full-page burst; 500 = the nearest half).
    pub frac_milli: u16,
    /// Detect descending runs and burst toward the page start (§IV-A).
    pub backward: bool,
    /// Extend forward bursts this many pages past the page boundary
    /// (footnote 2; virtual-address prefetching only).
    pub cross: u32,
}

impl Default for SpbParams {
    fn default() -> Self {
        Self {
            n: 48,
            dedupe: true,
            burst: 0,
            frac_milli: 1000,
            backward: false,
            cross: 0,
        }
    }
}

impl SpbParams {
    /// A base-detector point: window `n` plus the dedupe switch, every
    /// extended knob at its default.
    pub fn base(n: u32, dedupe: bool) -> Self {
        Self {
            n,
            dedupe,
            ..Self::default()
        }
    }

    /// Whether only base-detector knobs (`n`, `dedupe`) differ from the
    /// defaults. Base-only points keep the cache-key rendering they had
    /// before the extension knobs existed (`Spb { n, dedupe }`).
    pub fn is_base_only(&self) -> bool {
        self.burst == 0 && self.frac_milli == 1000 && !self.backward && self.cross == 0
    }

    /// Validates every field against its documented range.
    pub fn validate(&self) -> Result<(), String> {
        check_range("n", u64::from(self.n), u64::from(N_RANGE.0), u64::from(N_RANGE.1))?;
        if self.burst != 0 {
            check_range(
                "burst",
                u64::from(self.burst),
                u64::from(BURST_RANGE.0),
                u64::from(BURST_RANGE.1),
            )?;
        }
        check_range(
            "frac",
            u64::from(self.frac_milli),
            u64::from(FRAC_MILLI_RANGE.0),
            u64::from(FRAC_MILLI_RANGE.1),
        )?;
        check_range(
            "cross",
            u64::from(self.cross),
            u64::from(CROSS_RANGE.0),
            u64::from(CROSS_RANGE.1),
        )?;
        Ok(())
    }

    /// Parses the `key=value` list after `spb:` — e.g.
    /// `n=32,dedupe=off,burst=3,frac=0.5`. Unlisted keys keep their
    /// paper defaults; every error names the full grammar.
    pub fn parse_args(args: &str) -> Result<Self, String> {
        let mut p = Self::default();
        for item in args.split(',') {
            let item = item.trim();
            if item.is_empty() {
                return Err(format!("empty parameter in {args:?} (valid keys: {KEYS_HELP})"));
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {item:?} (valid keys: {KEYS_HELP})"))?;
            match key {
                "n" => p.n = parse_int("n", value, u64::from(N_RANGE.0), u64::from(N_RANGE.1))? as u32,
                "dedupe" => p.dedupe = parse_switch("dedupe", value)?,
                "burst" => {
                    p.burst = if value == "auto" {
                        0
                    } else {
                        parse_int("burst", value, u64::from(BURST_RANGE.0), u64::from(BURST_RANGE.1))? as u8
                    }
                }
                "frac" => p.frac_milli = parse_frac(value)?,
                "backward" => p.backward = parse_switch("backward", value)?,
                "cross" => {
                    p.cross = parse_int("cross", value, u64::from(CROSS_RANGE.0), u64::from(CROSS_RANGE.1))? as u32
                }
                other => {
                    return Err(format!("unknown spb key {other:?} (valid keys: {KEYS_HELP})"));
                }
            }
        }
        Ok(p)
    }

    /// The canonical `key=value` suffix: only non-default keys, in the
    /// fixed order `n, dedupe, burst, frac, backward, cross`. `None`
    /// when every knob is at its default (the bare `spb` spelling).
    pub fn label_suffix(&self) -> Option<String> {
        let d = Self::default();
        let mut parts = Vec::new();
        if self.n != d.n {
            parts.push(format!("n={}", self.n));
        }
        if self.dedupe != d.dedupe {
            parts.push(format!("dedupe={}", switch_label(self.dedupe)));
        }
        if self.burst != d.burst {
            parts.push(format!("burst={}", self.burst));
        }
        if self.frac_milli != d.frac_milli {
            parts.push(format!("frac={}", frac_label(self.frac_milli)));
        }
        if self.backward != d.backward {
            parts.push(format!("backward={}", switch_label(self.backward)));
        }
        if self.cross != d.cross {
            parts.push(format!("cross={}", self.cross));
        }
        if parts.is_empty() {
            None
        } else {
            Some(parts.join(","))
        }
    }
}

fn check_range(key: &str, v: u64, lo: u64, hi: u64) -> Result<(), String> {
    if v < lo || v > hi {
        return Err(format!("{key}={v} out of range {lo}..{hi} (valid keys: {KEYS_HELP})"));
    }
    Ok(())
}

fn parse_int(key: &str, value: &str, lo: u64, hi: u64) -> Result<u64, String> {
    let v: u64 = value
        .parse()
        .map_err(|_| format!("{key}={value:?} is not an integer (valid keys: {KEYS_HELP})"))?;
    check_range(key, v, lo, hi)?;
    Ok(v)
}

fn parse_switch(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "on" | "true" => Ok(true),
        "off" | "false" => Ok(false),
        other => Err(format!("{key}={other:?} must be on or off (valid keys: {KEYS_HELP})")),
    }
}

fn switch_label(v: bool) -> &'static str {
    if v {
        "on"
    } else {
        "off"
    }
}

/// Parses a page fraction in `(0, 1]` with at most 3 decimal places
/// into thousandths (`0.5` → 500, `1` → 1000).
pub(crate) fn parse_frac(value: &str) -> Result<u16, String> {
    let err = |why: &str| format!("frac={value:?} {why} (valid keys: {KEYS_HELP})");
    let f: f64 = value.parse().map_err(|_| err("is not a number"))?;
    if !(f > 0.0 && f <= 1.0) {
        return Err(err("must be in (0, 1]"));
    }
    let milli = (f * 1000.0).round();
    if (f * 1000.0 - milli).abs() > 1e-9 {
        return Err(err("has more than 3 decimal places"));
    }
    Ok(milli as u16)
}

/// Renders thousandths back to the decimal spelling (`500` → "0.5",
/// `1000` → "1"); the exact inverse of [`parse_frac`].
pub(crate) fn frac_label(frac_milli: u16) -> String {
    if frac_milli == 1000 {
        return "1".to_string();
    }
    let mut s = format!("{:.3}", f64::from(frac_milli) / 1000.0);
    while s.ends_with('0') {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_point_and_base_only() {
        let p = SpbParams::default();
        assert_eq!(p.n, 48);
        assert!(p.dedupe);
        assert!(p.is_base_only());
        assert_eq!(p.label_suffix(), None);
    }

    #[test]
    fn parse_args_round_trips_the_issue_example() {
        let p = SpbParams::parse_args("n=32,dedupe=off,burst=3,frac=0.5").unwrap();
        assert_eq!(p.n, 32);
        assert!(!p.dedupe);
        assert_eq!(p.burst, 3);
        assert_eq!(p.frac_milli, 500);
        assert_eq!(
            p.label_suffix().as_deref(),
            Some("n=32,dedupe=off,burst=3,frac=0.5")
        );
        assert_eq!(SpbParams::parse_args(&p.label_suffix().unwrap()).unwrap(), p);
    }

    #[test]
    fn frac_spellings_round_trip() {
        for (text, milli) in [("1", 1000), ("0.5", 500), ("0.25", 250), ("0.125", 125), ("0.001", 1)] {
            assert_eq!(parse_frac(text).unwrap(), milli, "{text}");
            assert_eq!(parse_frac(&frac_label(milli)).unwrap(), milli, "{milli}");
        }
        assert_eq!(frac_label(500), "0.5");
        assert!(parse_frac("0").is_err());
        assert!(parse_frac("1.5").is_err());
        assert!(parse_frac("0.1234").unwrap_err().contains("3 decimal"));
    }

    #[test]
    fn errors_name_every_key_and_range() {
        for bad in ["n=0", "n=2000", "dedupe=maybe", "burst=16", "frac=2", "cross=9", "zig=1", "n"] {
            let e = SpbParams::parse_args(bad).unwrap_err();
            assert!(e.contains(KEYS_HELP), "error for {bad:?} must teach the grammar: {e}");
        }
    }

    #[test]
    fn burst_auto_spelling_means_zero() {
        assert_eq!(SpbParams::parse_args("burst=auto").unwrap().burst, 0);
        assert_eq!(SpbParams::parse_args("burst=auto").unwrap(), SpbParams::default());
    }

    #[test]
    fn non_base_knobs_disable_base_only() {
        assert!(!SpbParams::parse_args("burst=3").unwrap().is_base_only());
        assert!(!SpbParams::parse_args("frac=0.5").unwrap().is_base_only());
        assert!(!SpbParams::parse_args("backward=on").unwrap().is_base_only());
        assert!(!SpbParams::parse_args("cross=1").unwrap().is_base_only());
        assert!(SpbParams::parse_args("n=8,dedupe=off").unwrap().is_base_only());
    }

    #[test]
    fn detector_carries_every_knob() {
        let p = SpbParams::parse_args("n=16,dedupe=off,burst=5,frac=0.25,backward=on,cross=2").unwrap();
        let d = crate::detector::SpbDetector::new(p);
        assert_eq!(d.threshold(), 5);
        // 58 + 4 + 5-bit store counter + direction bit + threshold and
        // page-fraction registers.
        assert_eq!(d.storage_bits(), 58 + 4 + 5 + 1 + 4 + 10);
    }
}
