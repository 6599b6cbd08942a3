//! A seeded coherence interleaving fuzzer for [`spb_mem::MemorySystem`].
//!
//! The fuzzer bypasses the CPU model entirely and drives the memory
//! system's public API — loads, store drains, RFO prefetches from every
//! origin, SPB page bursts, and time advances — in a pseudo-random but
//! fully deterministic interleaving derived from a single seed. A pool
//! of *shared* blocks (fought over by every core) and *private* blocks
//! (per core) steers the schedule toward the interesting coherence
//! traffic: invalidations, ownership downgrades, remote forwards, and
//! racing RFOs.
//!
//! Time itself is fuzzed through a two-source wakeup schedule (one
//! deadline per source, clamped to the last advance point): steps
//! register the memory system's own contractual wakeup
//! ([`spb_mem::MemorySystem::wake_at`]) alongside a decoy source,
//! cancel registrations at random, and fire due wakeups **late** by a
//! small skew before ticking. Firing early is sound by design; firing
//! late breaks bit-identity with the reference kernels but must never
//! break coherence — which is exactly what the after-every-step checker
//! establishes. The schedule is also audited after each firing: a due
//! wakeup it failed to consume is reported as a failure.
//!
//! After **every** step the full coherence invariant checker runs
//! ([`spb_mem::MemorySystem::check_invariants`]), and a thorough sweep
//! ([`spb_mem::MemorySystem::check_invariants_thorough`]) closes the
//! run. A bounded [`FaultConfig`] can be layered on top, and
//! [`FuzzConfig::mutate_at`] arms a test-only "lost directory owner"
//! protocol mutation mid-run to prove the checker actually bites.
//!
//! Failures are deterministic: a [`FuzzFailure`] carries the seed and
//! step, [`minimize`] shrinks the schedule to (near-)minimal length,
//! and `spbsim verify fuzz --seed N --steps M` replays it exactly.

use spb_mem::{FaultConfig, MemoryConfig, MemorySystem, RfoOrigin};
use spb_stats::hash::mix64;
use std::fmt;

/// Blocks in the contended pool that every core touches.
const SHARED_BLOCKS: u64 = 24;
/// Private blocks per core.
const PRIVATE_BLOCKS: u64 = 24;
/// Base block of the shared pool (arbitrary, away from zero).
const SHARED_BASE: u64 = 0x4000;
/// Base block of core `c`'s private pool: `PRIVATE_BASE + c * 0x1000`.
const PRIVATE_BASE: u64 = 0x8000;
/// Wake source id for the memory system's contractual wakeup.
const MEM_ID: usize = 0;
/// Wake source id for the decoy registration (register/cancel churn).
const DECOY_ID: usize = 1;

/// One fuzzing schedule, fully determined by its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Seed for the action/operand stream.
    pub seed: u64,
    /// Number of scheduler steps.
    pub steps: u32,
    /// Cores in the memory system.
    pub cores: usize,
    /// Uniform fault rate in 1e-4 units (0 disables fault injection;
    /// e.g. `250` = 2.5 % per fault site). Kept integral so the config
    /// stays `Eq` and bit-replayable.
    pub fault_rate_e4: u32,
    /// Arm the test-only "lost directory owner" protocol mutation at
    /// this step, if set. Kept as an absolute step (not a fraction of
    /// `steps`) so that shrinking the schedule replays the same prefix.
    pub mutate_at: Option<u32>,
    /// Mix wrong-path speculation into the schedule: spec-tagged RFO
    /// runs, speculative page bursts, and squash resolutions that can
    /// land mid-drain or mid-burst.
    pub squash: bool,
    /// Arm the test-only "forgot to untag a speculative line" mutation
    /// at this step, if set (needs `squash` to have tagged something).
    pub spec_mutate_at: Option<u32>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            steps: 2_048,
            cores: 4,
            fault_rate_e4: 0,
            mutate_at: None,
            squash: false,
            spec_mutate_at: None,
        }
    }
}

impl FuzzConfig {
    /// The exact CLI invocation that replays this schedule.
    pub fn repro(&self) -> String {
        let mut s = format!(
            "spbsim verify fuzz --seed {} --steps {} --cores {}",
            self.seed, self.steps, self.cores
        );
        if self.fault_rate_e4 > 0 {
            s.push_str(&format!(" --fault-rate-e4 {}", self.fault_rate_e4));
        }
        if let Some(at) = self.mutate_at {
            s.push_str(&format!(" --mutate-at {at}"));
        }
        if self.squash {
            s.push_str(" --squash");
        }
        if let Some(at) = self.spec_mutate_at {
            s.push_str(&format!(" --spec-mutate-at {at}"));
        }
        s
    }
}

/// Counters for one completed (violation-free) fuzz run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzStats {
    /// Steps executed.
    pub steps: u32,
    /// Demand loads issued.
    pub loads: u64,
    /// Store drains attempted.
    pub drains: u64,
    /// RFO prefetches issued (all origins).
    pub prefetches: u64,
    /// Page bursts enqueued.
    pub bursts: u64,
    /// Cycles advanced.
    pub cycles: u64,
    /// Scheduled wakeups fired (possibly with late skew).
    pub wakeups: u64,
    /// Wrong-path (spec-tagged) RFO prefetches issued.
    pub spec_prefetches: u64,
    /// Squash resolutions attributed.
    pub squashes: u64,
}

impl FuzzStats {
    /// Merge another run's counters into this one.
    pub fn absorb(&mut self, other: &FuzzStats) {
        self.steps += other.steps;
        self.loads += other.loads;
        self.drains += other.drains;
        self.prefetches += other.prefetches;
        self.bursts += other.bursts;
        self.cycles += other.cycles;
        self.wakeups += other.wakeups;
        self.spec_prefetches += other.spec_prefetches;
        self.squashes += other.squashes;
    }
}

/// A coherence invariant violation found by the fuzzer, with everything
/// needed to replay it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The schedule that failed.
    pub config: FuzzConfig,
    /// Step at which the violation was detected (== `config.steps` when
    /// only the closing thorough sweep caught it).
    pub step: u32,
    /// Human-readable violation report from the checker.
    pub violation: String,
    /// Smallest failing step count found by [`minimize`], if it ran.
    pub minimized_steps: Option<u32>,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "coherence violation at step {} of seed {:#x}:",
            self.step, self.config.seed
        )?;
        writeln!(f, "  {}", self.violation)?;
        if let Some(n) = self.minimized_steps {
            let short = FuzzConfig {
                steps: n,
                ..self.config
            };
            writeln!(f, "  minimized to {n} steps")?;
            writeln!(f, "  replay: {}", short.repro())?;
        } else {
            writeln!(f, "  replay: {}", self.config.repro())?;
        }
        Ok(())
    }
}

impl std::error::Error for FuzzFailure {}

/// splitmix64 — the same generator family the fault plan uses, seeded
/// independently per run. [`mix64`] adds the golden-ratio increment
/// before it mixes, so mixing the current state and then stepping it is
/// exactly splitmix64's "step, then mix".
struct Rng(u64);

/// splitmix64's state increment (the golden ratio, as a 64-bit fraction).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(GOLDEN_GAMMA) ^ 0x5bf0_3635_16f9_a3c1)
    }

    fn next(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        out
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The fuzzer's wakeup schedule: at most one deadline per source
/// ([`MEM_ID`], [`DECOY_ID`]). Registrations clamp up to `base`, the
/// last advance point (a request in the past means "wake now").
#[derive(Default)]
struct Deadlines {
    at: [Option<u64>; 2],
    base: u64,
}

impl Deadlines {
    /// Registers (or re-registers) source `id` to wake at `at`.
    fn register(&mut self, id: usize, at: u64) {
        self.at[id] = Some(at.max(self.base));
    }

    /// Moves the advance point to `now`, consuming every deadline
    /// `<= now`.
    fn advance_to(&mut self, now: u64) {
        self.base = now;
        self.at = self.at.map(|d| d.filter(|&t| t > now));
    }

    /// The earliest pending deadline, if any.
    fn next_wake(&self) -> Option<u64> {
        self.at.iter().flatten().min().copied()
    }
}

/// Runs one fuzzing schedule to completion.
///
/// # Errors
///
/// Returns a [`FuzzFailure`] (without minimization — see [`minimize`])
/// if any step trips the coherence invariant checker, if the memory
/// system's own periodic checker latched a violation, or if the closing
/// thorough sweep fails.
///
/// # Panics
///
/// Panics if `config.cores` is zero.
pub fn run_one(config: &FuzzConfig) -> Result<FuzzStats, Box<FuzzFailure>> {
    assert!(config.cores > 0, "fuzzing needs at least one core");
    let mem_cfg = MemoryConfig {
        cores: config.cores,
        // The schedule checks invariants after every step itself; the
        // periodic checker stays on as a belt-and-braces latch.
        checker_interval: 1_024,
        fault: if config.fault_rate_e4 > 0 {
            FaultConfig::uniform(
                f64::from(config.fault_rate_e4) / 10_000.0,
                config.seed ^ 0xFA17,
            )
        } else {
            FaultConfig::none()
        },
        ..MemoryConfig::default()
    };
    let mut mem = MemorySystem::new(mem_cfg);
    let mut rng = Rng::new(config.seed);
    let mut stats = FuzzStats::default();
    let mut now = 0u64;
    let mut mutation_armed = false;
    let mut spec_mutation_armed = false;
    let mut wakeups = Deadlines::default();
    mem.tick(now);

    for step in 0..config.steps {
        // Arm at the first step >= mutate_at where a stable writable
        // line exists (early on, every line is still in flight).
        if !mutation_armed && config.mutate_at.is_some_and(|at| step >= at) {
            mutation_armed = mem.seed_lost_owner_mutation(now).is_some();
        }
        // Likewise for the forgot-to-untag mutation: it needs a
        // resident speculatively tagged line to corrupt.
        if !spec_mutation_armed && config.spec_mutate_at.is_some_and(|at| step >= at) {
            spec_mutation_armed = mem.seed_forget_untag_mutation(now).is_some();
        }
        let fail = |violation: String| {
            Box::new(FuzzFailure {
                config: *config,
                step,
                violation,
                minimized_steps: None,
            })
        };
        let core = rng.below(config.cores as u64) as usize;
        let addr = pick_block(&mut rng, core) * 64 + (rng.below(8) * 8);
        // With squash steps enabled the roll space widens; the first
        // 100 outcomes keep their weights, so the baseline actions
        // still dominate the schedule.
        let roll = if config.squash {
            rng.below(118)
        } else {
            rng.below(100)
        };
        match roll {
            0..=34 => {
                mem.load(core, addr, now);
                stats.loads += 1;
            }
            35..=62 => {
                mem.store_drain(core, addr, now);
                stats.drains += 1;
            }
            63..=76 => {
                let origin = RfoOrigin::ALL[rng.below(3) as usize]; // skip CachePrefetcher
                mem.store_prefetch(core, addr, addr >> 4, now, origin);
                stats.prefetches += 1;
            }
            77..=84 => {
                let base = pick_block(&mut rng, core);
                let len = 1 + rng.below(8);
                mem.enqueue_burst(core, base..base + len, now);
                stats.bursts += 1;
            }
            85..=88 => {
                // Wakeup registration churn: the memory system's own
                // contractual wake, plus (half the time) a decoy up to
                // 512 cycles out, re-registering over whatever it held
                // before.
                wakeups.register(MEM_ID, mem.wake_at(now));
                if rng.below(2) == 0 {
                    wakeups.register(DECOY_ID, now + 1 + rng.below(512));
                }
            }
            89..=90 => {
                wakeups.at[rng.below(2) as usize] = None; // cancel
            }
            91..=99 => {
                if let Some(w) = wakeups.next_wake() {
                    // Fire the due wakeup — sometimes LATE by a small
                    // skew. Tardiness breaks bit-identity with the
                    // reference kernels, but coherence must survive it;
                    // the after-step checker below is the judge.
                    let target = now.max(w + rng.below(4));
                    stats.cycles += target - now;
                    now = target;
                    wakeups.advance_to(now);
                    mem.tick(now);
                    stats.wakeups += 1;
                    if let Some(t) = wakeups.next_wake() {
                        if t <= now {
                            return Err(fail(format!(
                                "wakeup schedule kept a due wakeup: next_wake {t} <= now {now}"
                            )));
                        }
                    }
                } else {
                    for _ in 0..=rng.below(8) {
                        now += 1;
                        mem.tick(now);
                        stats.cycles += 1;
                    }
                }
            }
            100..=109 => {
                // A wrong-path store run: spec-tagged RFOs the squash
                // will later attribute (or an architectural drain will
                // untag first — both must stay coherent).
                let base = pick_block(&mut rng, core);
                let len = 1 + rng.below(6);
                for i in 0..len {
                    let origin = RfoOrigin::ALL[rng.below(3) as usize];
                    let _ =
                        mem.store_prefetch_spec(core, (base + i) * 64, 0xDEAD_0000, now, origin);
                }
                stats.spec_prefetches += len;
            }
            110..=113 => {
                // A speculative page burst; a later squash can land
                // while part of it is still queued (mid-burst drop).
                let base = pick_block(&mut rng, core);
                let len = 1 + rng.below(8);
                mem.enqueue_burst_spec(core, base..base + len, now);
                stats.bursts += 1;
            }
            _ => {
                // The squash resolves on `core`: drop its queued
                // speculative burst entries and charge its tags.
                mem.attribute_squash(core, now);
                stats.squashes += 1;
            }
        }
        stats.steps += 1;
        if let Err(v) = mem.check_invariants(now) {
            return Err(fail(v.to_string()));
        }
        if let Some(v) = mem.take_violation() {
            return Err(fail(v.to_string()));
        }
    }

    if let Err(v) = mem.check_invariants_thorough(now) {
        return Err(Box::new(FuzzFailure {
            config: *config,
            step: config.steps,
            violation: v.to_string(),
            minimized_steps: None,
        }));
    }
    Ok(stats)
}

/// Picks a block: half the time from the shared (contended) pool, half
/// from the core's private region.
fn pick_block(rng: &mut Rng, core: usize) -> u64 {
    if rng.below(2) == 0 {
        SHARED_BASE + rng.below(SHARED_BLOCKS)
    } else {
        PRIVATE_BASE + core as u64 * 0x1000 + rng.below(PRIVATE_BLOCKS)
    }
}

/// Shrinks a failing schedule to (near-)minimal length.
///
/// The scheduler is a pure function of `(seed, step)`, so truncating
/// `steps` replays an identical prefix; the smallest failing length is
/// found by bisection. (The closing thorough sweep can make shorter
/// prefixes fail too — bisection still converges on *a* minimal failing
/// length, just not always the globally smallest one.)
///
/// Returns the failure annotated with `minimized_steps`, or the
/// original failure if the full run no longer reproduces (which would
/// itself indicate nondeterminism and should never happen).
pub fn minimize(failure: &FuzzFailure) -> FuzzFailure {
    let mut lo = 1u32;
    // The violation was detected at `failure.step`, so steps = step + 1
    // must already fail; start the bracket there.
    let mut hi = (failure.step + 1).min(failure.config.steps.max(1));
    let fails_at = |steps: u32| {
        run_one(&FuzzConfig {
            steps,
            ..failure.config
        })
        .err()
    };
    if fails_at(hi).is_none() {
        return failure.clone();
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails_at(mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut minimized = fails_at(lo).map(|f| *f).unwrap_or_else(|| failure.clone());
    minimized.minimized_steps = Some(lo);
    minimized
}

/// Runs `count` schedules with consecutive seeds starting at
/// `base.seed`, stopping (and minimizing) at the first failure.
///
/// # Errors
///
/// The first failing seed's minimized [`FuzzFailure`].
pub fn run_seeds(base: &FuzzConfig, count: u64) -> Result<FuzzStats, Box<FuzzFailure>> {
    let mut total = FuzzStats::default();
    for i in 0..count {
        let cfg = FuzzConfig {
            seed: base.seed + i,
            ..*base
        };
        match run_one(&cfg) {
            Ok(s) => total.absorb(&s),
            Err(f) => return Err(Box::new(minimize(&f))),
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_is_deterministic() {
        let cfg = FuzzConfig {
            seed: 7,
            steps: 512,
            ..FuzzConfig::default()
        };
        let a = run_one(&cfg).expect("clean schedule");
        let b = run_one(&cfg).expect("clean schedule");
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.drains, b.drains);
        assert_eq!(a.prefetches, b.prefetches);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn a_batch_of_seeds_is_violation_free() {
        let base = FuzzConfig {
            seed: 100,
            steps: 384,
            ..FuzzConfig::default()
        };
        let stats = run_seeds(&base, 8).expect("no violations");
        assert_eq!(stats.steps, 8 * 384);
        assert!(stats.drains > 0 && stats.loads > 0 && stats.bursts > 0);
    }

    #[test]
    fn wakeup_skew_steps_fire_and_stay_coherent() {
        // The register/cancel/fire-late scheduler actions must actually
        // run (not just be reachable) and must never trip the checker.
        let base = FuzzConfig {
            seed: 4_000,
            steps: 768,
            ..FuzzConfig::default()
        };
        let stats = run_seeds(&base, 8).expect("wakeup skew must not break coherence");
        assert!(
            stats.wakeups > 0,
            "no scheduled wakeup ever fired: {stats:?}"
        );
        assert!(stats.cycles > 0);
    }

    #[test]
    fn faulty_seeds_stay_coherent() {
        // Fault injection perturbs timing, never correctness.
        let base = FuzzConfig {
            seed: 900,
            steps: 384,
            fault_rate_e4: 250,
            ..FuzzConfig::default()
        };
        run_seeds(&base, 4).expect("faults must not break coherence");
    }

    #[test]
    fn squash_steps_stay_coherent_across_256_seeds() {
        // The headline soak for the speculation model: wrong-path RFO
        // runs, speculative bursts and mid-anything squashes across 256
        // seeds, with the invariant checker after every step and the
        // schedule's next_wake audit live the whole time.
        let base = FuzzConfig {
            seed: 20_000,
            steps: 160,
            squash: true,
            ..FuzzConfig::default()
        };
        let stats = run_seeds(&base, 256).expect("squash steps must not break coherence");
        assert!(
            stats.spec_prefetches > 0,
            "spec runs actually fired: {stats:?}"
        );
        assert!(stats.squashes > 0, "squashes actually resolved: {stats:?}");
        assert!(stats.wakeups > 0, "wakeup audit was exercised: {stats:?}");
    }

    #[test]
    fn squash_steps_survive_fault_injection() {
        let base = FuzzConfig {
            seed: 31_000,
            steps: 384,
            squash: true,
            fault_rate_e4: 250,
            ..FuzzConfig::default()
        };
        run_seeds(&base, 4).expect("faults plus speculation must stay coherent");
    }

    #[test]
    fn the_forget_untag_mutation_is_caught_and_replayable() {
        // Negative control: a controller that performs a store on a
        // speculatively tagged line but forgets to untag it must trip
        // InvariantKind::SpeculativeLeak, and the failure must carry a
        // replayable repro line.
        let cfg = FuzzConfig {
            seed: 11,
            steps: 1_024,
            squash: true,
            spec_mutate_at: Some(64),
            ..FuzzConfig::default()
        };
        let failure = run_one(&cfg).expect_err("a forgotten untag must trip the checker");
        assert!(
            failure.violation.contains("speculative-leak"),
            "wrong violation: {}",
            failure.violation
        );
        assert!(failure.config.repro().contains("--squash"));
        assert!(failure.config.repro().contains("--spec-mutate-at 64"));
        // Deterministic replay of the exact failing schedule.
        let replay = run_one(&cfg).expect_err("replay fails identically");
        assert_eq!(replay.step, failure.step);
        let minimized = minimize(&failure);
        assert!(minimized.minimized_steps.expect("minimization ran") <= failure.step + 1);
    }

    #[test]
    fn the_lost_owner_mutation_is_caught_and_minimized() {
        let cfg = FuzzConfig {
            seed: 3,
            steps: 1_024,
            mutate_at: Some(200),
            ..FuzzConfig::default()
        };
        let failure = run_one(&cfg).expect_err("a lost owner must trip the checker");
        assert!(failure.step >= 200);
        let minimized = minimize(&failure);
        let n = minimized.minimized_steps.expect("minimization ran");
        assert!(n <= failure.step + 1);
        // The minimized schedule replays.
        let replay = run_one(&FuzzConfig { steps: n, ..cfg });
        assert!(replay.is_err(), "minimized schedule must still fail");
        assert!(minimized.to_string().contains("replay: spbsim verify fuzz"));
    }
}
