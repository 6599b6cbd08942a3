//! The speculative-leak oracle: a squash-aware flat model of wrong-path
//! ownership traffic.
//!
//! The squash model ([`spb_trace::squash`]) gives every wrong-path
//! episode a fresh, private page span no other episode (of any core)
//! ever touches, and no wrong-path block is ever architecturally
//! stored. That makes the leak *flat-model computable*: replaying each
//! core's [`EpisodePlan`] for exactly the episodes whose squash
//! resolved inside the measured window yields, with no
//! microarchitecture at all, the exact set of blocks a per-store
//! speculative policy (at-execute) pulls into M state and abandons —
//! and a hard upper bound (the page spans) on what any burst policy
//! (the SPB family, whose wrong-path detector only ever bursts into
//! the remainder of an episode page) can leak.
//!
//! [`check_run`] diffs a real [`RunResult`] against that model:
//!
//! - **conservation** (per-store policies): every wrong-path store's
//!   RFO either tagged a block (`spec_leaked_m_blocks`) or was still
//!   queued at the squash and dropped (`spec_dropped`) — the two must
//!   sum to the flat model's store count exactly;
//! - **bound** (every policy): leaked + dropped blocks never exceed
//!   the episodes' page spans, and the spans themselves never exceed
//!   `squashes × ceil(depth_max / blocks-per-page) × blocks-per-page`
//!   (the window-N × page-fraction × storm bound stated in DESIGN.md
//!   §13 — pessimistically assuming the detector fires on every page);
//! - **attribution exactness**: episode blocks are cold and private,
//!   so every tagged block cost exactly one RFO and zero coherence
//!   messages, and (in fault-free runs) exactly one DRAM fill;
//! - **passivity**: policies that never issue speculative RFOs
//!   (none / at-commit / ideal) must leak nothing.
//!
//! A run with the squash model disabled must report every speculative
//! counter as zero — that degenerate case is what makes squash-rate-0
//! the executable spec of "the model is off".

use spb_sim::{CoreWindow, PolicyKind, RunResult, SimConfig};
use spb_trace::op::BLOCKS_PER_PAGE;
use spb_trace::squash::EpisodePlan;
use spb_trace::SquashConfig;
use std::collections::HashSet;
use std::fmt;

/// What the flat model predicts for the measured window of one run.
#[derive(Debug, Clone, Default)]
pub struct LeakPrediction {
    /// Squash episodes resolved inside the measured window (all cores).
    pub episodes: u64,
    /// Wrong-path stores those episodes performed — the exact leak of a
    /// per-store speculative policy with nothing queued at squash time.
    pub stored_blocks: u64,
    /// Total blocks in the episodes' page spans — the hard ceiling for
    /// any policy that bursts within episode pages.
    pub span_blocks: u64,
    /// The exact flat leaked set: every block the measured episodes'
    /// wrong-path stores touched.
    pub blocks: HashSet<u64>,
}

/// A discrepancy between the flat model and a real run.
#[derive(Debug, Clone)]
pub struct LeakFailure {
    /// Which property failed.
    pub property: &'static str,
    /// Human-readable diff.
    pub detail: String,
}

impl fmt::Display for LeakFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leak oracle [{}]: {}", self.property, self.detail)
    }
}

impl std::error::Error for LeakFailure {}

/// A passed check with the numbers it compared, for reporting.
#[derive(Debug, Clone)]
pub struct LeakReport {
    /// The flat-model prediction the run was checked against.
    pub prediction: LeakPrediction,
    /// Names of the properties that held.
    pub checks: Vec<&'static str>,
}

/// Per-episode block ceiling: an episode of at most `depth_max` stores
/// spans at most this many blocks, and the wrong-path detector never
/// bursts outside an episode's pages.
pub(crate) fn per_episode_block_bound(cfg: &SquashConfig) -> u64 {
    u64::from(cfg.depth_max).div_ceil(BLOCKS_PER_PAGE).max(1) * BLOCKS_PER_PAGE
}

/// Replays each core's [`EpisodePlan`] and accumulates the episodes in
/// `[warmup_squashes, warmup_squashes + squashes)` — exactly the ones
/// whose squash resolved inside the measured window, which is where the
/// simulator attributes their waste (tags survive the warm-up stats
/// reset precisely so that attribution lands with the squash).
pub(crate) fn predict_leak(cfg: &SquashConfig, windows: &[CoreWindow]) -> LeakPrediction {
    let mut p = LeakPrediction::default();
    for (core, w) in windows.iter().enumerate() {
        let mut plan = EpisodePlan::new(cfg, core);
        for episode in 0..w.warmup_squashes + w.squashes {
            let run = plan.next_episode();
            if episode < w.warmup_squashes {
                continue; // attributed into warm-up stats, then reset
            }
            p.episodes += 1;
            p.stored_blocks += u64::from(run.depth);
            p.span_blocks += u64::from(run.depth).div_ceil(BLOCKS_PER_PAGE).max(1) * BLOCKS_PER_PAGE;
            p.blocks.extend(run.blocks());
        }
    }
    p
}

/// How a policy participates in wrong-path speculation.
enum SpecClass {
    /// Issues one speculative RFO per wrong-path store (at-execute).
    PerStore,
    /// Bursts into episode pages via the wrong-path detector (SPB).
    Burst,
    /// Never issues speculative RFOs (none / at-commit / ideal).
    Passive,
}

fn classify(policy: &PolicyKind) -> SpecClass {
    match policy {
        PolicyKind::AtExecute => SpecClass::PerStore,
        PolicyKind::Spb { .. } | PolicyKind::SpbDynamic { .. } | PolicyKind::SpbFeedback { .. } => {
            SpecClass::Burst
        }
        PolicyKind::None | PolicyKind::AtCommit | PolicyKind::IdealSb => SpecClass::Passive,
    }
}

/// Checks a run's speculative-waste counters against the flat model.
///
/// # Errors
///
/// Returns the first failed property with the compared numbers.
pub fn check_run(cfg: &SimConfig, r: &RunResult) -> Result<LeakReport, Box<LeakFailure>> {
    let fail = |property: &'static str, detail: String| {
        Err(Box::new(LeakFailure { property, detail }))
    };
    let m = &r.mem;
    let mut checks = Vec::new();

    if !cfg.squash.enabled() {
        // The degenerate case is an exact spec: the model off means no
        // speculative counter may ever move.
        let all = [
            m.spec_rfos_issued,
            m.spec_wasted_rfos,
            m.spec_wasted_coh_msgs,
            m.spec_leaked_m_blocks,
            m.spec_wasted_dram,
            m.spec_squashes,
            m.spec_dropped,
            r.cpu.squash_episodes,
            r.cpu.wrong_path_stores_injected,
        ];
        if all.iter().any(|&c| c != 0) {
            return fail(
                "disabled-model-is-silent",
                format!("squash model disabled but speculative counters moved: {all:?}"),
            );
        }
        checks.push("disabled-model-is-silent");
        return Ok(LeakReport {
            prediction: LeakPrediction::default(),
            checks,
        });
    }

    let pred = predict_leak(&cfg.squash, &r.per_core);

    let squashes: u64 = r.per_core.iter().map(|w| w.squashes).sum();
    if m.spec_squashes != squashes || r.cpu.squash_episodes != squashes {
        return fail(
            "squash-accounting",
            format!(
                "per-core squashes {squashes} vs mem {} vs cpu {}",
                m.spec_squashes, r.cpu.squash_episodes
            ),
        );
    }
    checks.push("squash-accounting");

    // Episode blocks are cold and private: each tagged block cost
    // exactly one RFO and no coherence traffic.
    if m.spec_wasted_rfos != m.spec_leaked_m_blocks {
        return fail(
            "one-rfo-per-leaked-block",
            format!(
                "wasted RFOs {} != leaked M blocks {}",
                m.spec_wasted_rfos, m.spec_leaked_m_blocks
            ),
        );
    }
    checks.push("one-rfo-per-leaked-block");
    if m.spec_wasted_coh_msgs != 0 {
        return fail(
            "private-episodes-move-no-coherence",
            format!("wasted coherence messages {}", m.spec_wasted_coh_msgs),
        );
    }
    checks.push("private-episodes-move-no-coherence");

    let fault_free =
        m.faults_dram_spiked == 0 && m.faults_ack_delayed == 0 && m.faults_mshr_denied == 0;
    if fault_free && m.spec_wasted_dram != m.spec_leaked_m_blocks {
        return fail(
            "one-fill-per-leaked-block",
            format!(
                "wasted DRAM fills {} != leaked M blocks {} in a fault-free run",
                m.spec_wasted_dram, m.spec_leaked_m_blocks
            ),
        );
    }
    if fault_free {
        checks.push("one-fill-per-leaked-block");
    }

    // The hard ceiling, for every policy: nothing speculative escapes
    // the episodes' page spans.
    if m.spec_leaked_m_blocks + m.spec_dropped > pred.span_blocks {
        return fail(
            "page-span-bound",
            format!(
                "leaked {} + dropped {} exceeds the episodes' span of {} blocks",
                m.spec_leaked_m_blocks, m.spec_dropped, pred.span_blocks
            ),
        );
    }
    checks.push("page-span-bound");
    let ceiling = pred.episodes * per_episode_block_bound(&cfg.squash);
    if pred.span_blocks > ceiling {
        return fail(
            "per-episode-bound",
            format!(
                "episode spans {} exceed squashes {} x per-episode bound {}",
                pred.span_blocks,
                pred.episodes,
                per_episode_block_bound(&cfg.squash)
            ),
        );
    }
    checks.push("per-episode-bound");

    match classify(&cfg.policy) {
        SpecClass::PerStore => {
            // Conservation: every wrong-path store's RFO either tagged
            // its block or was dropped from the queue at the squash.
            if m.spec_leaked_m_blocks + m.spec_dropped != pred.stored_blocks {
                return fail(
                    "per-store-conservation",
                    format!(
                        "leaked {} + dropped {} != flat model's {} wrong-path stores",
                        m.spec_leaked_m_blocks, m.spec_dropped, pred.stored_blocks
                    ),
                );
            }
            checks.push("per-store-conservation");
        }
        SpecClass::Burst => {
            // The detector needs a run of `n` stores before it bursts,
            // so it can never leak more than the span minus nothing —
            // the page-span bound above is the contract; here we add
            // that a burst policy leaks at most what per-store would
            // have spanned.
            if m.spec_leaked_m_blocks > pred.span_blocks {
                return fail(
                    "burst-span-bound",
                    format!(
                        "burst policy leaked {} of a {}-block span",
                        m.spec_leaked_m_blocks, pred.span_blocks
                    ),
                );
            }
            checks.push("burst-span-bound");
        }
        SpecClass::Passive => {
            if m.spec_rfos_issued != 0 || m.spec_leaked_m_blocks != 0 || m.spec_dropped != 0 {
                return fail(
                    "passive-policies-leak-nothing",
                    format!(
                        "passive policy issued {} spec RFOs, leaked {}, dropped {}",
                        m.spec_rfos_issued, m.spec_leaked_m_blocks, m.spec_dropped
                    ),
                );
            }
            checks.push("passive-policies-leak-nothing");
        }
    }

    Ok(LeakReport {
        prediction: pred,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_sim::Simulation;
    use spb_trace::profile::AppProfile;

    fn squash_cfg(policy: PolicyKind, spec: &str) -> SimConfig {
        SimConfig::quick()
            .with_sb(14)
            .with_policy(policy)
            .with_squash(SquashConfig::parse(spec).unwrap())
    }

    #[test]
    fn per_store_policy_matches_the_flat_model_exactly() {
        let app = AppProfile::by_name("x264").unwrap();
        let cfg = squash_cfg(PolicyKind::AtExecute, "rate=0.1,depth=8..32,storm=2,seed=5");
        let r = Simulation::with_config(&app, &cfg).run().unwrap();
        assert!(r.mem.spec_leaked_m_blocks > 0, "storms leaked something");
        let report = check_run(&cfg, &r).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.checks.contains(&"per-store-conservation"));
        assert!(report.prediction.stored_blocks >= r.mem.spec_leaked_m_blocks);
    }

    #[test]
    fn spb_policy_stays_inside_the_span_bound() {
        let app = AppProfile::by_name("x264").unwrap();
        // Window 8 with depth up to 64: the wrong-path detector fires.
        let cfg = squash_cfg(
            PolicyKind::parse("spb:n=8").unwrap(),
            "rate=0.1,depth=16..64,storm=2,seed=5",
        );
        let r = Simulation::with_config(&app, &cfg).run().unwrap();
        assert!(
            r.mem.spec_leaked_m_blocks > 0,
            "the wrong-path detector bursts under deep storms"
        );
        let report = check_run(&cfg, &r).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.checks.contains(&"burst-span-bound"));
    }

    #[test]
    fn passive_policy_leaks_nothing() {
        let app = AppProfile::by_name("gcc").unwrap();
        let cfg = squash_cfg(PolicyKind::AtCommit, "rate=0.2,depth=8..32,seed=3");
        let r = Simulation::with_config(&app, &cfg).run().unwrap();
        assert!(r.cpu.squash_episodes > 0, "squashes still happen");
        let report = check_run(&cfg, &r).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.checks.contains(&"passive-policies-leak-nothing"));
    }

    #[test]
    fn disabled_model_is_the_zero_spec() {
        let app = AppProfile::by_name("gcc").unwrap();
        let cfg = SimConfig::quick();
        let r = Simulation::with_config(&app, &cfg).run().unwrap();
        let report = check_run(&cfg, &r).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.checks, vec!["disabled-model-is-silent"]);
        assert_eq!(report.prediction.episodes, 0);
    }

    #[test]
    fn a_doctored_leak_count_is_caught() {
        // Negative control at the accounting level: an off-by-one in
        // the leaked-block counter breaks conservation.
        let app = AppProfile::by_name("x264").unwrap();
        let cfg = squash_cfg(PolicyKind::AtExecute, "rate=0.1,depth=8..32,storm=2,seed=5");
        let mut r = Simulation::with_config(&app, &cfg).run().unwrap();
        r.mem.spec_leaked_m_blocks += 1;
        let err = check_run(&cfg, &r).expect_err("conservation must catch the doctoring");
        assert!(
            err.to_string().contains("one-rfo-per-leaked-block"),
            "{err}"
        );
        // Doctoring both sides of the RFO identity still trips the
        // per-store conservation law.
        r.mem.spec_wasted_rfos += 1;
        r.mem.spec_wasted_dram += 1;
        let err = check_run(&cfg, &r).expect_err("still caught");
        assert!(err.to_string().contains("per-store-conservation"), "{err}");
    }

    #[test]
    fn prediction_replays_the_injector_exactly() {
        // The flat set must contain every block of every measured
        // episode and nothing else: spot-check sizes and region.
        let cfg = SquashConfig::parse("rate=1,depth=4..16,seed=2").unwrap();
        let windows = [
            CoreWindow {
                warmup_squashes: 3,
                squashes: 5,
                ..CoreWindow::default()
            },
            CoreWindow {
                warmup_squashes: 0,
                squashes: 2,
                ..CoreWindow::default()
            },
        ];
        let p = predict_leak(&cfg, &windows);
        assert_eq!(p.episodes, 7);
        assert_eq!(p.blocks.len() as u64, p.stored_blocks, "fresh spans never collide");
        assert!(p.span_blocks >= p.stored_blocks);
        assert!(p.span_blocks <= p.episodes * per_episode_block_bound(&cfg));
    }
}
