//! Run configuration: policy selection and simulation budgets.

use spb_core::params::{SpbParams, KEYS_HELP, N_RANGE};
use spb_core::policy::SpbPolicy;
use spb_cpu::policy::{AtCommitPolicy, AtExecutePolicy, NoPolicy};
use spb_cpu::{CoreConfig, StorePrefetchPolicy};
use spb_mem::MemoryConfig;
use spb_trace::SquashConfig;
use std::fmt;

/// The SB entry count used for the "ideal" configuration (the paper
/// normalizes to a 1024-entry SB).
pub(crate) const IDEAL_SB_ENTRIES: usize = 1024;

/// Which execution kernel drives the cores and the memory system.
///
/// There are two kernels: the lock-step `tick` reference and one
/// skip-ahead kernel. They produce bit-identical [`crate::RunResult`]s
/// (pinned by the golden quick grid and the `spb-verify`
/// kernel-equivalence property) and differ only in wall-clock time.
/// `wheel` and `event` are two spellings of the skip-ahead kernel,
/// kept because the spelling is part of [`SimConfig`]'s `Debug`
/// rendering, which keys the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Lock-step reference kernel: tick every component every cycle.
    Tick,
    /// The skip-ahead kernel under its older cache-key spelling; runs
    /// exactly as [`KernelMode::Wheel`].
    Event,
    /// The skip-ahead kernel (DESIGN.md §12): the memory system
    /// publishes its next wakeup as its state changes and is ticked
    /// only on cycles where it has observable work, cores are probed
    /// only on cycles where nothing committed, and a quiescent probe
    /// jumps to the minimum of the wakeups it read, replaying the
    /// skipped span's accounting in bulk. (Spelled `wheel` for the
    /// timing wheel it once used.)
    #[default]
    Wheel,
}

impl KernelMode {
    /// Parses the CLI spelling (`tick` / `event` / `wheel`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "tick" => Ok(KernelMode::Tick),
            "event" => Ok(KernelMode::Event),
            "wheel" => Ok(KernelMode::Wheel),
            other => Err(format!(
                "unknown kernel '{other}' (valid: tick, event, wheel)"
            )),
        }
    }

    /// Display label (`tick` / `event` / `wheel`).
    pub fn label(&self) -> &'static str {
        match self {
            KernelMode::Tick => "tick",
            KernelMode::Event => "event",
            KernelMode::Wheel => "wheel",
        }
    }
}

/// Which store-prefetch strategy a run uses.
///
/// The SPB family is fully parameterized: `Spb` carries the complete
/// [`SpbParams`] knob vector, and [`PolicyKind::parse`] /
/// [`PolicyKind::label`] round-trip a `key=value` grammar
/// (`spb:n=32,dedupe=off,burst=3,frac=0.5`). The six classic spellings
/// (`none`, `at-execute`, `at-commit`, `spb`, `spb-dynamic`, `ideal`)
/// remain exact aliases of their old meanings, so existing scripts,
/// golden files, and cache keys for default configurations are
/// unchanged.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No store prefetching (gem5 out of the box).
    None,
    /// At-execute (Gharachorloo et al.).
    AtExecute,
    /// At-commit (Intel's documented policy; the paper's baseline).
    AtCommit,
    /// Store-Prefetch Bursts over the full parameter space.
    Spb {
        /// The complete knob vector (window, dedupe, threshold, page
        /// fraction, backward, cross-page).
        params: SpbParams,
    },
    /// The §IV-C dynamic-store-size variant.
    SpbDynamic {
        /// Detector window.
        n: u32,
    },
    /// Feedback-directed SPB: burst size adapts to measured burst
    /// accuracy (Srinath-style FDP over the page fraction).
    SpbFeedback {
        /// Detector window.
        n: u32,
    },
    /// The ideal SB: a 1024-entry SB with at-commit prefetching; no
    /// SB-capacity stalls in practice.
    IdealSb,
}

/// The `Debug` rendering feeds the content-addressed result cache
/// (`spb-serve` hashes `format!("{cfg:?}")`), so it is part of the
/// storage format. Base-only `Spb` points render exactly like the
/// pre-parameterization enum (`Spb { n: 48, dedupe: true }`) to keep
/// every existing cache entry valid; points using extended knobs render
/// the full parameter vector, so any knob difference — including burst
/// threshold alone — yields a distinct key.
impl fmt::Debug for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::None => f.write_str("None"),
            PolicyKind::AtExecute => f.write_str("AtExecute"),
            PolicyKind::AtCommit => f.write_str("AtCommit"),
            PolicyKind::Spb { params } if params.is_base_only() => f
                .debug_struct("Spb")
                .field("n", &params.n)
                .field("dedupe", &params.dedupe)
                .finish(),
            PolicyKind::Spb { params } => f.debug_struct("Spb").field("params", params).finish(),
            PolicyKind::SpbDynamic { n } => f.debug_struct("SpbDynamic").field("n", n).finish(),
            PolicyKind::SpbFeedback { n } => f.debug_struct("SpbFeedback").field("n", n).finish(),
            PolicyKind::IdealSb => f.write_str("IdealSb"),
        }
    }
}

impl PolicyKind {
    /// The paper's SPB configuration.
    pub fn spb_default() -> Self {
        PolicyKind::Spb {
            params: SpbParams::default(),
        }
    }

    /// A base-detector SPB point (window + dedupe, extended knobs at
    /// their defaults).
    pub fn spb(n: u32, dedupe: bool) -> Self {
        PolicyKind::Spb {
            params: SpbParams::base(n, dedupe),
        }
    }

    /// Builds a fresh policy instance for one core.
    pub fn build(&self) -> Box<dyn StorePrefetchPolicy + Send> {
        match *self {
            PolicyKind::None => Box::new(NoPolicy::new()),
            PolicyKind::AtExecute => Box::new(AtExecutePolicy::new()),
            PolicyKind::AtCommit | PolicyKind::IdealSb => Box::new(AtCommitPolicy::new()),
            PolicyKind::Spb { params } => Box::new(SpbPolicy::new(params)),
            PolicyKind::SpbDynamic { n } => Box::new(SpbPolicy::dynamic(n)),
            PolicyKind::SpbFeedback { n } => Box::new(SpbPolicy::feedback(n)),
        }
    }

    /// SB size this policy forces, if any (the ideal SB overrides the
    /// configured size).
    pub fn sb_override(&self) -> Option<usize> {
        matches!(self, PolicyKind::IdealSb).then_some(IDEAL_SB_ENTRIES)
    }

    /// Parses the CLI/wire spelling of a policy.
    ///
    /// The six classic names (`none`, `at-execute`/`exe`,
    /// `at-commit`/`commit`, `spb`, `spb-dynamic`, `ideal`) parse
    /// exactly as they always have. The SPB family additionally takes a
    /// `key=value` list after a colon:
    ///
    /// - `spb:n=32,dedupe=off,burst=3,frac=0.5,backward=on,cross=1`
    /// - `spb-dynamic:n=24`, `spb-feedback:n=24` (window only)
    ///
    /// Every spelling round-trips through [`PolicyKind::label`], so job
    /// specs sent to the sweep service and tuner provenance survive the
    /// wire.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (head, args) = match s.split_once(':') {
            Some((head, args)) => (head, Some(args)),
            None => (s, None),
        };
        let fixed = |kind: PolicyKind| match args {
            None => Ok(kind),
            Some(_) => Err(format!("policy {head:?} takes no parameters")),
        };
        match head {
            "none" => fixed(PolicyKind::None),
            "at-execute" | "exe" => fixed(PolicyKind::AtExecute),
            "at-commit" | "commit" => fixed(PolicyKind::AtCommit),
            "ideal" => fixed(PolicyKind::IdealSb),
            "spb" => Ok(PolicyKind::Spb {
                params: match args {
                    None => SpbParams::default(),
                    Some(args) => SpbParams::parse_args(args)?,
                },
            }),
            "spb-dynamic" => Ok(PolicyKind::SpbDynamic {
                n: parse_window_only(head, args)?,
            }),
            "spb-feedback" => Ok(PolicyKind::SpbFeedback {
                n: parse_window_only(head, args)?,
            }),
            other => Err(format!(
                "unknown policy {other:?} (expected none | at-execute | at-commit | spb[:{KEYS_HELP}] | spb-dynamic[:n=1..1024] | spb-feedback[:n=1..1024] | ideal)"
            )),
        }
    }

    /// Display label used in experiment tables, sweep records, and the
    /// wire spec. Default configurations keep their classic spellings;
    /// non-default points print only their non-default keys in
    /// canonical order, and always satisfy `parse(label()) == self`.
    pub fn label(&self) -> String {
        match *self {
            PolicyKind::None => "none".into(),
            PolicyKind::AtExecute => "at-execute".into(),
            PolicyKind::AtCommit => "at-commit".into(),
            PolicyKind::Spb { params } => match params.label_suffix() {
                None => "spb".into(),
                Some(suffix) => format!("spb:{suffix}"),
            },
            PolicyKind::SpbDynamic { n: 48 } => "spb-dynamic".into(),
            PolicyKind::SpbDynamic { n } => format!("spb-dynamic:n={n}"),
            PolicyKind::SpbFeedback { n: 48 } => "spb-feedback".into(),
            PolicyKind::SpbFeedback { n } => format!("spb-feedback:n={n}"),
            PolicyKind::IdealSb => "ideal".into(),
        }
    }
}

/// Parses the `n=N` parameter list of the single-knob SPB variants.
fn parse_window_only(head: &str, args: Option<&str>) -> Result<u32, String> {
    let Some(args) = args else { return Ok(48) };
    let err = || format!("policy {head:?} takes only n=1..1024, got {args:?} (e.g. {head}:n=24)");
    let value = args.strip_prefix("n=").ok_or_else(err)?;
    let n: u32 = value.parse().map_err(|_| err())?;
    if n < N_RANGE.0 || n > N_RANGE.1 {
        return Err(err());
    }
    Ok(n)
}

/// Everything one run needs.
#[derive(Clone)]
pub struct SimConfig {
    /// Core microarchitecture (Table I / II).
    pub core: CoreConfig,
    /// Memory hierarchy (Table I).
    pub mem: MemoryConfig,
    /// Store-prefetch strategy.
    pub policy: PolicyKind,
    /// µops per core to run before measurement starts (cache warm-up,
    /// the paper's "100 million cycles within the ROI" in miniature).
    pub warmup_uops: u64,
    /// µops per core measured (the paper's 2 billion in miniature).
    pub measure_uops: u64,
    /// Workload seed.
    pub seed: u64,
    /// Forward-progress watchdog: abort the run with a structured
    /// diagnostic if no core commits a µop for this many consecutive
    /// cycles (0 disables — the run may then hang on a livelocked
    /// memory request).
    pub watchdog_cycles: u64,
    /// Which execution kernel to use (bit-identical results either way).
    pub kernel: KernelMode,
    /// Wrong-path squash model ([`SquashConfig::none`] = off: no
    /// injector is constructed and the run is bit-identical to a build
    /// without the speculation model).
    pub squash: SquashConfig,
}

/// Like [`PolicyKind`], the `Debug` rendering is part of the
/// content-addressed cache-key format. A disabled squash model renders
/// exactly like the pre-squash derive (the field is omitted), so every
/// existing cache entry and golden record stays valid; an enabled model
/// appends the squash field, so two configs differing only in squash
/// parameters — including the seed alone — hash to distinct keys.
impl fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("SimConfig");
        d.field("core", &self.core)
            .field("mem", &self.mem)
            .field("policy", &self.policy)
            .field("warmup_uops", &self.warmup_uops)
            .field("measure_uops", &self.measure_uops)
            .field("seed", &self.seed)
            .field("watchdog_cycles", &self.watchdog_cycles)
            .field("kernel", &self.kernel);
        if self.squash.enabled() {
            d.field("squash", &self.squash);
        }
        d.finish()
    }
}

impl SimConfig {
    /// The paper's default configuration: Skylake core, Table I
    /// hierarchy, at-commit prefetching.
    pub fn paper_default() -> Self {
        Self {
            core: CoreConfig::skylake(),
            mem: MemoryConfig::default(),
            policy: PolicyKind::AtCommit,
            warmup_uops: 150_000,
            measure_uops: 600_000,
            seed: 42,
            watchdog_cycles: 2_000_000,
            kernel: KernelMode::Wheel,
            squash: SquashConfig::none(),
        }
    }

    /// A faster configuration for tests and smoke runs.
    ///
    /// Still covers multiple full iterations of every application's
    /// phase list (the longest iteration is ~120k µops).
    pub fn quick() -> Self {
        Self {
            warmup_uops: 40_000,
            measure_uops: 300_000,
            ..Self::paper_default()
        }
    }

    /// The identity text of the cell that runs `app` under this config:
    /// the app name and the `Debug` rendering of the whole config. Every
    /// cell memo and cache key is derived from it, so two routes to one
    /// configuration name one cell.
    pub fn cell_identity(&self, app: &str) -> String {
        format!("{app}|{self:?}")
    }

    /// Returns a copy with a different SB size.
    #[must_use]
    pub fn with_sb(mut self, sb_entries: usize) -> Self {
        self.core.sb_entries = sb_entries;
        self
    }

    /// Returns a copy with a different policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different execution kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Returns a copy with a different wrong-path squash model.
    #[must_use]
    pub fn with_squash(mut self, squash: SquashConfig) -> Self {
        self.squash = squash;
        self
    }

    /// The effective SB size after any policy override.
    pub fn effective_sb(&self) -> usize {
        self.policy.sb_override().unwrap_or(self.core.sb_entries)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// How much simulation to spend: names one of the two base
/// configurations. The sweep service's wire default is
/// [`Budget::Quick`]; an experiment binary run without `--quick`
/// ([`Budget::parse_args`]) spends [`Budget::Paper`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Budget {
    /// [`SimConfig::quick`] — the CI and golden-grid budget.
    #[default]
    Quick,
    /// [`SimConfig::paper_default`] — the budget of the recorded
    /// EXPERIMENTS.md results.
    Paper,
}

impl Budget {
    /// Parses the wire spelling (`quick` / `paper`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "quick" => Ok(Budget::Quick),
            "paper" => Ok(Budget::Paper),
            other => Err(format!("unknown budget {other:?} (valid: quick, paper)")),
        }
    }

    /// The wire spelling.
    pub fn label(self) -> &'static str {
        match self {
            Budget::Quick => "quick",
            Budget::Paper => "paper",
        }
    }

    /// Parses the only option an experiment binary takes, `--quick`, from
    /// argv (default: [`Budget::Paper`]). Any other argument exits with
    /// status 2, as under `spbsim experiment`.
    pub fn from_args() -> Budget {
        Self::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            let bin = std::env::args().next().unwrap_or_default();
            eprintln!("{bin}: {e}");
            std::process::exit(2);
        })
    }

    /// [`Budget::from_args`] over an explicit argument list.
    pub fn parse_args<S: AsRef<str>>(args: impl IntoIterator<Item = S>) -> Result<Budget, String> {
        args.into_iter()
            .try_fold(Budget::Paper, |_, a| match a.as_ref() {
                "--quick" => Ok(Budget::Quick),
                other => Err(format!("unknown argument {other:?}")),
            })
    }

    /// The base configuration this budget names.
    pub fn sim_config(self) -> SimConfig {
        match self {
            Budget::Quick => SimConfig::quick(),
            Budget::Paper => SimConfig::paper_default(),
        }
    }

    /// A scaled-down configuration for 8-thread PARSEC runs, keeping
    /// total simulated work comparable to a single-threaded run.
    pub fn parsec_sim_config(self) -> SimConfig {
        let mut cfg = self.sim_config();
        cfg.warmup_uops /= 4;
        cfg.measure_uops /= 4;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_overrides_sb_size() {
        let cfg = SimConfig::paper_default()
            .with_sb(14)
            .with_policy(PolicyKind::IdealSb);
        assert_eq!(cfg.effective_sb(), IDEAL_SB_ENTRIES);
        let cfg2 = SimConfig::paper_default().with_sb(14);
        assert_eq!(cfg2.effective_sb(), 14);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PolicyKind::spb_default().label(), "spb");
        assert_eq!(PolicyKind::AtCommit.label(), "at-commit");
        assert_eq!(PolicyKind::spb(24, true).label(), "spb:n=24");
        assert_eq!(PolicyKind::spb(24, false).label(), "spb:n=24,dedupe=off");
        assert_eq!(PolicyKind::SpbDynamic { n: 24 }.label(), "spb-dynamic:n=24");
        assert_eq!(PolicyKind::SpbFeedback { n: 48 }.label(), "spb-feedback");
    }

    /// The `Debug` rendering is hashed into content-addressed cache
    /// keys; the default/base-only spellings are pinned to the exact
    /// pre-parameterization output so existing caches stay valid.
    #[test]
    fn debug_rendering_is_cache_stable() {
        assert_eq!(
            format!("{:?}", PolicyKind::spb_default()),
            "Spb { n: 48, dedupe: true }"
        );
        assert_eq!(
            format!("{:?}", PolicyKind::spb(24, false)),
            "Spb { n: 24, dedupe: false }"
        );
        assert_eq!(
            format!("{:?}", PolicyKind::SpbDynamic { n: 48 }),
            "SpbDynamic { n: 48 }"
        );
        assert_eq!(format!("{:?}", PolicyKind::None), "None");
        assert_eq!(format!("{:?}", PolicyKind::IdealSb), "IdealSb");
        // Non-default knobs switch to the full-vector rendering, so any
        // knob difference produces a distinct key.
        let burst3 = PolicyKind::parse("spb:burst=3").unwrap();
        let burst4 = PolicyKind::parse("spb:burst=4").unwrap();
        assert!(format!("{burst3:?}").contains("burst: 3"));
        assert_ne!(format!("{burst3:?}"), format!("{burst4:?}"));
    }

    #[test]
    fn build_produces_matching_policy_names() {
        assert_eq!(PolicyKind::None.build().name(), "none");
        assert_eq!(PolicyKind::AtExecute.build().name(), "at-execute");
        assert_eq!(PolicyKind::AtCommit.build().name(), "at-commit");
        assert_eq!(PolicyKind::spb_default().build().name(), "spb");
        assert_eq!(
            PolicyKind::SpbDynamic { n: 48 }.build().name(),
            "spb-dynamic"
        );
        assert_eq!(
            PolicyKind::SpbFeedback { n: 48 }.build().name(),
            "spb-feedback"
        );
        assert_eq!(PolicyKind::IdealSb.build().name(), "at-commit");
        // Every point of the SPB space builds the one SPB policy.
        assert_eq!(PolicyKind::spb(24, false).build().name(), "spb");
        assert_eq!(
            PolicyKind::parse("spb:burst=3").unwrap().build().name(),
            "spb"
        );
    }

    #[test]
    fn parse_round_trips_standard_labels() {
        for name in ["none", "at-execute", "at-commit", "spb", "ideal"] {
            let p = PolicyKind::parse(name).unwrap();
            assert_eq!(p.label(), name, "label/parse round trip for {name}");
        }
        assert_eq!(
            PolicyKind::parse("spb-dynamic").unwrap(),
            PolicyKind::SpbDynamic { n: 48 }
        );
        assert!(PolicyKind::parse("magic").unwrap_err().contains("magic"));
    }

    #[test]
    fn parse_round_trips_parameterized_labels() {
        for spec in [
            "spb:n=32,dedupe=off,burst=3,frac=0.5",
            "spb:n=8",
            "spb:backward=on,cross=2",
            "spb:frac=0.125",
            "spb-dynamic:n=24",
            "spb-feedback:n=16",
        ] {
            let p = PolicyKind::parse(spec).unwrap();
            assert_eq!(p.label(), spec, "canonical spelling round trip");
            assert_eq!(PolicyKind::parse(&p.label()).unwrap(), p);
        }
        // Non-canonical spellings normalize: defaults drop out of the
        // label, but the parsed value is identical.
        assert_eq!(
            PolicyKind::parse("spb:n=48,dedupe=on").unwrap(),
            PolicyKind::spb_default()
        );
        assert_eq!(PolicyKind::parse("spb:n=48").unwrap().label(), "spb");
    }

    #[test]
    fn parse_errors_teach_the_grammar() {
        let e = PolicyKind::parse("spb:zig=1").unwrap_err();
        assert!(e.contains("n=1..1024") && e.contains("frac"), "{e}");
        let e = PolicyKind::parse("spb:n=0").unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        let e = PolicyKind::parse("spb-dynamic:dedupe=off").unwrap_err();
        assert!(e.contains("only n=1..1024"), "{e}");
        let e = PolicyKind::parse("ideal:n=4").unwrap_err();
        assert!(e.contains("takes no parameters"), "{e}");
        let e = PolicyKind::parse("magic").unwrap_err();
        assert!(
            e.contains("spb-feedback"),
            "unknown-policy error lists every form: {e}"
        );
    }

    /// The squash field participates in the cache-key `Debug`
    /// rendering only when enabled: disabled configs render exactly as
    /// before the speculation model existed (old cache entries stay
    /// valid), and two configs differing only in squash parameters —
    /// even just the seed — render differently.
    #[test]
    fn squash_debug_rendering_is_cache_stable() {
        use spb_trace::SquashConfig;
        let off = SimConfig::quick();
        let rendered = format!("{off:?}");
        assert!(
            !rendered.contains("squash"),
            "disabled squash must not leak into the cache key: {rendered}"
        );
        // rate=0 is also "disabled" regardless of the other knobs.
        let zero = off
            .clone()
            .with_squash(SquashConfig::parse("rate=0,depth=8..32").unwrap());
        assert_eq!(format!("{zero:?}"), rendered);
        let a = off
            .clone()
            .with_squash(SquashConfig::parse("rate=0.05,seed=1").unwrap());
        let b = off
            .clone()
            .with_squash(SquashConfig::parse("rate=0.05,seed=2").unwrap());
        assert!(format!("{a:?}").contains("squash"));
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), rendered);
    }

    #[test]
    fn quick_is_smaller_than_paper_default() {
        assert!(SimConfig::quick().measure_uops < SimConfig::paper_default().measure_uops);
    }

    #[test]
    fn kernel_mode_parses_and_defaults_to_wheel() {
        assert_eq!(SimConfig::paper_default().kernel, KernelMode::Wheel);
        assert_eq!(KernelMode::default(), KernelMode::Wheel);
        assert_eq!(KernelMode::parse("tick"), Ok(KernelMode::Tick));
        assert_eq!(KernelMode::parse("event"), Ok(KernelMode::Event));
        assert_eq!(KernelMode::parse("wheel"), Ok(KernelMode::Wheel));
        let e = KernelMode::parse("warp").unwrap_err();
        assert!(e.contains("tick") && e.contains("wheel"), "{e}");
        assert_eq!(KernelMode::Tick.label(), "tick");
        assert_eq!(KernelMode::Wheel.label(), "wheel");
    }

    /// `event` runs the same skip-ahead kernel as `wheel`, but its
    /// spelling stays in the cache key, so existing entries stay valid.
    #[test]
    fn event_kernel_cache_key_is_unchanged() {
        assert_eq!(
            format!("{:?}", SimConfig::quick().with_kernel(KernelMode::Event)),
            "SimConfig { core: CoreConfig { dispatch_width: 4, commit_width: 4, rob_entries: 224, iq_entries: 97, lq_entries: 72, sb_entries: 56, int_regs: 180, fp_regs: 180, redirect_penalty: 12, coalescing: false }, mem: MemoryConfig { cores: 1, l1_size: 32768, l1_ways: 8, l1_latency: 4, l2_size: 1048576, l2_ways: 16, l2_latency: 14, l3_size: 16777216, l3_ways: 16, l3_latency: 36, mshrs_per_core: 64, dram: DramConfig { latency: 175, row_hit_latency: 130, service_interval: 4, channels: 2, row_blocks: 128 }, prefetcher: Stride, burst_issue_per_cycle: 4, remote_penalty: 40, fault: FaultConfig { seed: 0, ack_delay_rate: 0.0, ack_delay_cycles: 0, dram_spike_rate: 0.0, dram_spike_cycles: 0, mshr_exhaust_rate: 0.0, burst_drop_rate: 0.0 }, checker_interval: 16384 }, policy: AtCommit, warmup_uops: 40000, measure_uops: 300000, seed: 42, watchdog_cycles: 2000000, kernel: Event }"
        );
    }
}
