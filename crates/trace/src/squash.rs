//! Seeded misprediction model: wrong-path store streams and squashes.
//!
//! The paper's policies differ in *when* they expose a store to the
//! memory system: at-commit waits until the store is architectural,
//! at-execute and SPB act while it is still speculative. That gap only
//! matters when speculation is wrong — a squashed wrong-path store burst
//! has already pulled remote lines into M state by the time the pipeline
//! recovers, which is exactly the footprint the transient-execution
//! literature (ret2spec, speculative buffer overflows) exploits.
//!
//! [`SquashConfig`] describes a deterministic misprediction workload:
//! with probability `rate` a branch *group* (groups of `storm`
//! consecutive branches, so storms of back-to-back squashes can be
//! modeled) mispredicts, and each misprediction fetches a run of
//! `depth_min..=depth_max` wrong-path stores before the squash.
//! [`SquashInjector`] wraps any [`TraceSource`] and splices those runs —
//! marked with [`MicroOp::is_wrong_path`] — into the stream after the
//! triggering branch. Wrong-path stores target a reserved address region
//! disjoint from every application footprint and disjoint per core, one
//! fresh page span per episode, so every speculatively-touched block is
//! attributable and never architecturally stored.
//!
//! Everything is a pure function of `(seed, core, branch index, episode
//! index)`: the trigger stream does not depend on the depth draws, so
//! deepening the depth distribution never changes *which* branches
//! squash — the property the monotonicity tests in `spb-verify` rely on.
//! With `rate == 0` no draw is ever made and the injector is never even
//! constructed by the simulator, keeping the baseline bit-identical.

use crate::op::{MicroOp, OpKind, BLOCKS_PER_PAGE, BLOCK_BYTES, PAGE_BYTES};
use crate::TraceSource;
use spb_stats::hash::mix64;

/// Base of the reserved wrong-path address region (well above every
/// synthetic application footprint, which top out below a terabyte).
const WRONG_PATH_BASE: u64 = 0x6000_0000_0000;
/// Address span reserved per core (1 TiB): episodes never collide
/// across cores.
const WRONG_PATH_CORE_SPAN: u64 = 1 << 40;
/// Synthetic PC for injected wrong-path stores (outside every
/// [`crate::region::CodeRegion`] window used by the generators).
const WRONG_PATH_PC: u64 = 0xDEAD_0000;
/// Fixed-point denominator for the trigger rate (1e-4 resolution).
const RATE_DENOM: u64 = 10_000;

/// Stateless draw: a well-mixed 64-bit hash of `(a, b)`.
fn hash2(a: u64, b: u64) -> u64 {
    mix64(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A seeded misprediction workload description.
///
/// The canonical textual form round-trips through
/// [`SquashConfig::parse`] / [`SquashConfig::label`]:
///
/// ```
/// use spb_trace::squash::SquashConfig;
///
/// let p = SquashConfig::parse("rate=0.05,depth=8..32,storm=4,ret2spec=on,seed=7").unwrap();
/// assert_eq!(SquashConfig::parse(&p.label()).unwrap(), p);
/// assert!(p.enabled());
/// assert!(!SquashConfig::none().enabled());
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct SquashConfig {
    /// Probability that a branch group mispredicts (0.0 disables the
    /// model entirely; resolution 1e-4).
    pub rate: f64,
    /// Minimum wrong-path stores per squash episode.
    pub depth_min: u32,
    /// Maximum wrong-path stores per squash episode (inclusive).
    pub depth_max: u32,
    /// Branches per trigger group: one draw covers `storm` consecutive
    /// branches, so a hit produces that many back-to-back episodes — a
    /// squash storm. `1` = independent branches.
    pub storm: u32,
    /// ret2spec-style mode: wrong-path stores walk *downward* (a
    /// corrupted return-stack speculation writing down the stack)
    /// instead of upward memcpy-style.
    pub ret2spec: bool,
    /// Seed for the trigger and depth draws (salted per core).
    pub seed: u64,
}

impl SquashConfig {
    /// The disabled model: no draws, no injection, bit-identical runs.
    pub fn none() -> Self {
        Self {
            rate: 0.0,
            depth_min: 8,
            depth_max: 32,
            storm: 1,
            ret2spec: false,
            seed: 0,
        }
    }

    /// Whether any squash episode can ever trigger.
    pub fn enabled(&self) -> bool {
        self.rate > 0.0 && self.depth_max > 0
    }

    /// The trigger rate in fixed-point tenth-of-percent units.
    pub fn threshold(&self) -> u64 {
        (self.rate * RATE_DENOM as f64).round() as u64
    }

    /// Canonical textual form (see [`SquashConfig::parse`]).
    pub fn label(&self) -> String {
        format!(
            "rate={},depth={}..{},storm={},ret2spec={},seed={}",
            self.rate,
            self.depth_min,
            self.depth_max,
            self.storm,
            if self.ret2spec { "on" } else { "off" },
            self.seed
        )
    }

    /// Parses `key=value` pairs: `rate=0.05,depth=8..32,storm=4,`
    /// `ret2spec=on,seed=7`. Omitted keys keep the [`SquashConfig::none`]
    /// defaults (so `rate=0.1` alone is a valid spec); `parse(label())`
    /// is the identity.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key and its valid range.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = Self::none();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("squash spec {part:?}: expected key=value"))?;
            match key {
                "rate" => {
                    let r: f64 = value
                        .parse()
                        .map_err(|_| format!("squash rate {value:?}: expected a number"))?;
                    if !(0.0..=1.0).contains(&r) {
                        return Err(format!("squash rate {r} out of range 0.0..=1.0"));
                    }
                    cfg.rate = r;
                }
                "depth" => {
                    let (lo, hi) = value
                        .split_once("..")
                        .ok_or_else(|| format!("squash depth {value:?}: expected MIN..MAX"))?;
                    cfg.depth_min = lo
                        .parse()
                        .map_err(|_| format!("squash depth min {lo:?}: expected an integer"))?;
                    cfg.depth_max = hi
                        .parse()
                        .map_err(|_| format!("squash depth max {hi:?}: expected an integer"))?;
                    if cfg.depth_min > cfg.depth_max {
                        return Err(format!(
                            "squash depth {}..{}: min exceeds max",
                            cfg.depth_min, cfg.depth_max
                        ));
                    }
                    if cfg.depth_max > 4096 {
                        return Err(format!(
                            "squash depth max {} out of range 0..=4096",
                            cfg.depth_max
                        ));
                    }
                }
                "storm" => {
                    let s: u32 = value
                        .parse()
                        .map_err(|_| format!("squash storm {value:?}: expected an integer"))?;
                    if s == 0 || s > 1024 {
                        return Err(format!("squash storm {s} out of range 1..=1024"));
                    }
                    cfg.storm = s;
                }
                "ret2spec" => {
                    cfg.ret2spec = match value {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(format!("squash ret2spec {other:?}: expected on or off"))
                        }
                    };
                }
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| format!("squash seed {value:?}: expected an integer"))?;
                }
                other => {
                    return Err(format!(
                    "unknown squash key {other:?}; valid keys: rate, depth, storm, ret2spec, seed"
                ))
                }
            }
        }
        Ok(cfg)
    }

    /// Whether branch number `branch_idx` (0-based, per core) triggers a
    /// squash episode for `core`. Pure: independent of the depth draws.
    pub fn triggers(&self, core: usize, branch_idx: u64) -> bool {
        let threshold = self.threshold();
        if threshold == 0 {
            return false;
        }
        let salt = hash2(self.seed, core as u64 + 1);
        let group = branch_idx / u64::from(self.storm);
        hash2(salt, group) % RATE_DENOM < threshold
    }
}

impl std::fmt::Debug for SquashConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SquashConfig({})", self.label())
    }
}

/// One planned wrong-path store run: `depth` stores starting at `start`,
/// stepping by `step` bytes (negative in ret2spec mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrongPathRun {
    /// Number of wrong-path stores in the run.
    pub depth: u32,
    /// Byte address of the first store.
    pub start: u64,
    /// Byte step between consecutive stores (±[`BLOCK_BYTES`]).
    pub step: i64,
}

impl WrongPathRun {
    /// The byte address of store number `i` of the run.
    pub fn addr(&self, i: u32) -> u64 {
        (self.start as i64 + self.step * i64::from(i)) as u64
    }

    /// Every cache block the run touches, in store order.
    pub fn blocks(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.depth).map(|i| self.addr(i) / BLOCK_BYTES)
    }
}

/// The pure address/depth plan for one core's squash episodes.
///
/// Both [`SquashInjector`] (live, inside the simulated front end) and
/// the leak oracle in `spb-verify` (offline, replaying the first `E`
/// episodes) walk this plan, which is what makes the oracle exact:
/// episode `i` deterministically maps to a depth and a fresh, private
/// page span.
#[derive(Debug, Clone)]
pub struct EpisodePlan {
    cfg: SquashConfig,
    salt: u64,
    region_base: u64,
    episodes: u64,
    pages_used: u64,
}

impl EpisodePlan {
    /// The plan for `core` under `cfg`.
    pub fn new(cfg: &SquashConfig, core: usize) -> Self {
        Self {
            cfg: *cfg,
            salt: hash2(cfg.seed, core as u64 + 1),
            region_base: WRONG_PATH_BASE + core as u64 * WRONG_PATH_CORE_SPAN,
            episodes: 0,
            pages_used: 0,
        }
    }

    /// Plans the next episode: a depth draw plus a fresh page span no
    /// earlier episode (of any core) touches.
    pub fn next_episode(&mut self) -> WrongPathRun {
        let span = u64::from(self.cfg.depth_max - self.cfg.depth_min) + 1;
        let depth = self.cfg.depth_min + (hash2(self.salt ^ 0xD3_17, self.episodes) % span) as u32;
        self.episodes += 1;
        let pages = u64::from(depth).div_ceil(BLOCKS_PER_PAGE).max(1);
        let first_page = self.pages_used;
        self.pages_used += pages;
        let lo = self.region_base + first_page * PAGE_BYTES;
        if self.cfg.ret2spec {
            // Stack-like: walk downward from the top of the span.
            WrongPathRun {
                depth,
                start: lo + pages * PAGE_BYTES - BLOCK_BYTES,
                step: -(BLOCK_BYTES as i64),
            }
        } else {
            // memcpy-like: walk upward from the bottom.
            WrongPathRun {
                depth,
                start: lo,
                step: BLOCK_BYTES as i64,
            }
        }
    }

    /// Episodes planned so far.
    pub(crate) fn planned(&self) -> u64 {
        self.episodes
    }
}

/// Wraps a [`TraceSource`], splicing wrong-path store runs in after
/// triggering branches (see the module docs for the model).
///
/// The wrapped stream's *correct-path* ops are exactly the inner
/// stream's ops, in order: injection never consumes or reorders an
/// inner op, so committed work is independent of the squash model.
pub struct SquashInjector<T> {
    inner: T,
    cfg: SquashConfig,
    core: usize,
    plan: EpisodePlan,
    branches_seen: u64,
    /// Remaining wrong-path stores of the active episode.
    pending: u32,
    run: WrongPathRun,
}

impl<T: TraceSource> SquashInjector<T> {
    /// Wraps `inner` with the squash model for `core`.
    pub fn new(inner: T, cfg: SquashConfig, core: usize) -> Self {
        Self {
            inner,
            cfg,
            core,
            plan: EpisodePlan::new(&cfg, core),
            branches_seen: 0,
            pending: 0,
            run: WrongPathRun {
                depth: 0,
                start: 0,
                step: 0,
            },
        }
    }

    /// Episodes triggered so far.
    pub fn episodes(&self) -> u64 {
        self.plan.planned()
    }
}

impl<T: TraceSource> TraceSource for SquashInjector<T> {
    fn next_op(&mut self) -> Option<MicroOp> {
        if self.pending > 0 {
            let i = self.run.depth - self.pending;
            self.pending -= 1;
            let addr = self.run.addr(i);
            return Some(
                MicroOp::new(OpKind::Store { addr, size: 8 }, WRONG_PATH_PC).with_wrong_path(),
            );
        }
        let op = self.inner.next_op()?;
        if matches!(op.kind(), OpKind::Branch { .. }) {
            let idx = self.branches_seen;
            self.branches_seen += 1;
            if self.cfg.triggers(self.core, idx) {
                self.run = self.plan.next_episode();
                self.pending = self.run.depth;
            }
        }
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed finite op sequence.
    struct Fixed(std::vec::IntoIter<MicroOp>);
    impl TraceSource for Fixed {
        fn next_op(&mut self) -> Option<MicroOp> {
            self.0.next()
        }
    }

    fn branchy(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    MicroOp::new(OpKind::Branch { mispredict: false }, 0x100 + i as u64)
                } else {
                    MicroOp::new(OpKind::IntAlu { latency: 1 }, 0x100 + i as u64)
                }
            })
            .collect()
    }

    #[test]
    fn label_parse_round_trip() {
        for spec in [
            "rate=0.05,depth=8..32,storm=4,ret2spec=on,seed=7",
            "rate=0.2",
            "rate=0.0001,depth=1..1,storm=1,ret2spec=off,seed=0",
            "",
        ] {
            let p = SquashConfig::parse(spec).unwrap();
            assert_eq!(SquashConfig::parse(&p.label()).unwrap(), p, "{spec}");
        }
    }

    #[test]
    fn parse_rejects_bad_specs_with_named_keys() {
        for (spec, needle) in [
            ("rate=2.0", "rate"),
            ("rate=x", "rate"),
            ("depth=9..3", "min exceeds max"),
            ("depth=8", "MIN..MAX"),
            ("depth=0..9000", "4096"),
            ("storm=0", "storm"),
            ("ret2spec=maybe", "ret2spec"),
            ("seed=abc", "seed"),
            ("bogus=1", "valid keys"),
            ("rate", "key=value"),
        ] {
            let err = SquashConfig::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn none_is_disabled_and_triggers_nothing() {
        let cfg = SquashConfig::none();
        assert!(!cfg.enabled());
        assert!((0..10_000).all(|i| !cfg.triggers(0, i)));
    }

    #[test]
    fn rate_zero_injector_is_a_passthrough() {
        let ops = branchy(200);
        let mut plain = Fixed(ops.clone().into_iter());
        let mut wrapped = SquashInjector::new(Fixed(ops.into_iter()), SquashConfig::none(), 0);
        loop {
            let (a, b) = (plain.next_op(), wrapped.next_op());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn injection_preserves_the_correct_path_stream() {
        let cfg = SquashConfig::parse("rate=0.5,depth=4..8,seed=3").unwrap();
        let ops = branchy(300);
        let mut wrapped = SquashInjector::new(Fixed(ops.clone().into_iter()), cfg, 0);
        let mut correct = Vec::new();
        let mut wrong = 0u32;
        while let Some(op) = wrapped.next_op() {
            if op.is_wrong_path() {
                assert!(op.kind().is_store());
                wrong += 1;
            } else {
                correct.push(op);
            }
        }
        assert_eq!(correct, ops, "inner stream must pass through untouched");
        assert!(wrong >= 4, "rate 0.5 over 100 branches must trigger");
        assert!(wrapped.episodes() > 0);
    }

    #[test]
    fn trigger_stream_is_independent_of_depth() {
        let shallow = SquashConfig::parse("rate=0.3,depth=1..2,seed=9").unwrap();
        let deep = SquashConfig::parse("rate=0.3,depth=64..128,seed=9").unwrap();
        for core in 0..3 {
            for i in 0..5_000 {
                assert_eq!(shallow.triggers(core, i), deep.triggers(core, i));
            }
        }
    }

    #[test]
    fn storms_trigger_consecutive_branch_groups() {
        let cfg = SquashConfig::parse("rate=0.2,storm=8,seed=1").unwrap();
        // Every branch in a triggered group of 8 triggers with it.
        let mut any_group = None;
        for g in 0..1_000 {
            if cfg.triggers(0, g * 8) {
                any_group = Some(g);
                break;
            }
        }
        let g = any_group.expect("rate 0.2 must trigger within 1000 groups");
        for b in g * 8..(g + 1) * 8 {
            assert!(cfg.triggers(0, b));
        }
    }

    #[test]
    fn episode_plan_spans_are_disjoint_and_in_the_reserved_region() {
        let cfg = SquashConfig::parse("rate=1,depth=1..200,seed=5").unwrap();
        let mut seen = std::collections::HashSet::new();
        for core in 0..2 {
            let mut plan = EpisodePlan::new(&cfg, core);
            for _ in 0..100 {
                let run = plan.next_episode();
                assert!(run.depth >= 1 && run.depth <= 200);
                for b in run.blocks() {
                    assert!(b * BLOCK_BYTES >= WRONG_PATH_BASE, "block {b:#x}");
                    assert!(seen.insert(b), "block {b:#x} reused across episodes");
                }
            }
        }
    }

    #[test]
    fn ret2spec_walks_downward() {
        let cfg = SquashConfig::parse("rate=1,depth=16..16,ret2spec=on,seed=2").unwrap();
        let mut plan = EpisodePlan::new(&cfg, 0);
        let run = plan.next_episode();
        assert_eq!(run.step, -(BLOCK_BYTES as i64));
        let blocks: Vec<u64> = run.blocks().collect();
        assert!(blocks.windows(2).all(|w| w[1] + 1 == w[0]), "{blocks:?}");
    }

    #[test]
    fn plans_are_deterministic() {
        let cfg = SquashConfig::parse("rate=0.1,depth=4..64,seed=11").unwrap();
        let mut a = EpisodePlan::new(&cfg, 1);
        let mut b = EpisodePlan::new(&cfg, 1);
        for _ in 0..50 {
            assert_eq!(a.next_episode(), b.next_episode());
        }
    }

    #[test]
    fn debug_renders_the_label() {
        let cfg = SquashConfig::parse("rate=0.05,seed=3").unwrap();
        assert_eq!(
            format!("{cfg:?}"),
            "SquashConfig(rate=0.05,depth=8..32,storm=1,ret2spec=off,seed=3)"
        );
    }
}
