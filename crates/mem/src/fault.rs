//! Deterministic fault injection for the memory hierarchy.
//!
//! The paper's whole argument rests on SPB degrading *gracefully* when
//! ownership prefetches are late, denied, or stolen (the `IM`/`PF_IM`
//! races of Figure 4). This module makes that adversarial timing
//! reproducible: a seeded [`FaultPlan`] decides, per event, whether to
//!
//! - **delay a prefetch ack** (the `GetPFx` response arrives late),
//! - **spike DRAM latency** (a fill suddenly costs hundreds of extra
//!   cycles, as under heavy co-runner traffic),
//! - **force MSHR exhaustion** (a prefetch finds no free fill buffer and
//!   must wait in the L1 controller's queue), or
//! - **drop an SPB burst request** outright (the controller sheds load),
//!
//! and [`crate::system::MemorySystem`] applies the outcome at the
//! matching injection point. Decisions are a pure function of the seed
//! and a per-site event counter, so a faulty run is exactly as
//! reproducible as a clean one.
//!
//! With every rate at zero ([`FaultConfig::none`], the default) the plan
//! is disabled and the injection points are never consulted: a run with
//! faults off is bit-identical to one built before this module existed.
//!
//! # Examples
//!
//! ```
//! use spb_mem::fault::{FaultConfig, FaultPlan};
//!
//! let mut plan = FaultPlan::new(FaultConfig::uniform(1.0, 7));
//! assert!(plan.config().enabled());
//! assert!(plan.dram_spike().is_some(), "rate 1.0 always fires");
//! assert!(FaultPlan::new(FaultConfig::none()).dram_spike().is_none());
//! ```

/// Rates and magnitudes of the injectable faults.
///
/// Rates are probabilities in `[0, 1]` evaluated independently per
/// event. The default ([`FaultConfig::none`]) disables everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic decision stream.
    pub seed: u64,
    /// Probability that a store-prefetch ack is delayed.
    pub ack_delay_rate: f64,
    /// Extra cycles a delayed ack arrives late.
    pub ack_delay_cycles: u64,
    /// Probability that a DRAM fill pays a latency spike.
    pub dram_spike_rate: f64,
    /// Extra cycles a spiked DRAM fill costs.
    pub dram_spike_cycles: u64,
    /// Probability that a prefetch finds the MSHR file "full" even when
    /// entries are free (transient fill-buffer denial).
    pub mshr_exhaust_rate: f64,
    /// Probability that a block popped from the SPB burst queue is
    /// dropped instead of issued.
    pub burst_drop_rate: f64,
}

impl FaultConfig {
    /// All rates zero: no faults, zero perturbation.
    pub fn none() -> Self {
        Self {
            seed: 0,
            ack_delay_rate: 0.0,
            ack_delay_cycles: 0,
            dram_spike_rate: 0.0,
            dram_spike_cycles: 0,
            mshr_exhaust_rate: 0.0,
            burst_drop_rate: 0.0,
        }
    }

    /// Every fault kind at the same `rate`, with representative
    /// magnitudes (a delayed ack costs ~a DRAM round trip, a DRAM spike
    /// roughly doubles the fill).
    pub fn uniform(rate: f64, seed: u64) -> Self {
        Self {
            seed,
            ack_delay_rate: rate,
            ack_delay_cycles: 200,
            dram_spike_rate: rate,
            dram_spike_cycles: 400,
            mshr_exhaust_rate: rate,
            burst_drop_rate: rate,
        }
    }

    /// Whether any fault can ever fire.
    pub fn enabled(&self) -> bool {
        self.ack_delay_rate > 0.0
            || self.dram_spike_rate > 0.0
            || self.mshr_exhaust_rate > 0.0
            || self.burst_drop_rate > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// How many faults of each kind actually fired (observability; these
/// also feed the `faults_*` counters in
/// [`crate::system::MemStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Prefetch acks delayed.
    pub acks_delayed: u64,
    /// DRAM fills spiked.
    pub dram_spikes: u64,
    /// Prefetches denied an MSHR entry.
    pub mshr_exhausted: u64,
    /// SPB burst blocks dropped.
    pub bursts_dropped: u64,
}

/// Decision sites, kept distinct so the streams for different fault
/// kinds never alias even when consulted in different orders.
#[derive(Debug, Clone, Copy)]
enum Site {
    AckDelay = 1,
    DramSpike = 2,
    MshrExhaust = 3,
    BurstDrop = 4,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded, deterministic fault decision stream.
///
/// Each query hashes `(seed, site, per-site counter)`, so the k-th
/// decision of each kind is fixed by the seed alone — independent of
/// simulated time and of the other fault kinds.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    draws: [u64; 5],
    counts: FaultCounts,
}

impl FaultPlan {
    /// A plan following `config`.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            config,
            draws: [0; 5],
            counts: FaultCounts::default(),
        }
    }

    /// The configuration driving this plan.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Faults fired so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Resets the fired-fault counters (end of warm-up). The decision
    /// stream itself keeps advancing — determinism comes from the draw
    /// counters, which are never reset.
    pub(crate) fn reset_counts(&mut self) {
        self.counts = FaultCounts::default();
    }

    fn roll(&mut self, site: Site, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let i = site as usize;
        let n = self.draws[i];
        self.draws[i] += 1;
        let h = splitmix64(self.config.seed ^ ((i as u64) << 56) ^ n);
        // Map to [0, 1): 53 explicitly-random bits, like rand's f64.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// Extra cycles to add to a store-prefetch ack, if this one is hit.
    pub(crate) fn ack_delay(&mut self) -> Option<u64> {
        if self.roll(Site::AckDelay, self.config.ack_delay_rate) {
            self.counts.acks_delayed += 1;
            Some(self.config.ack_delay_cycles)
        } else {
            None
        }
    }

    /// Extra cycles to add to a DRAM fill, if this one is hit.
    pub fn dram_spike(&mut self) -> Option<u64> {
        if self.roll(Site::DramSpike, self.config.dram_spike_rate) {
            self.counts.dram_spikes += 1;
            Some(self.config.dram_spike_cycles)
        } else {
            None
        }
    }

    /// Whether this prefetch is denied an MSHR entry (forced to queue).
    pub fn mshr_exhausted(&mut self) -> bool {
        let hit = self.roll(Site::MshrExhaust, self.config.mshr_exhaust_rate);
        if hit {
            self.counts.mshr_exhausted += 1;
        }
        hit
    }

    /// Whether this SPB burst block is dropped instead of issued.
    pub(crate) fn drop_burst_block(&mut self) -> bool {
        let hit = self.roll(Site::BurstDrop, self.config.burst_drop_rate);
        if hit {
            self.counts.bursts_dropped += 1;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let mut p = FaultPlan::new(FaultConfig::none());
        for _ in 0..1000 {
            assert!(p.ack_delay().is_none());
            assert!(p.dram_spike().is_none());
            assert!(!p.mshr_exhausted());
            assert!(!p.drop_burst_block());
        }
        assert_eq!(p.counts(), FaultCounts::default());
        assert!(!p.config().enabled());
    }

    #[test]
    fn rate_one_always_fires() {
        let mut p = FaultPlan::new(FaultConfig::uniform(1.0, 3));
        assert_eq!(p.ack_delay(), Some(200));
        assert_eq!(p.dram_spike(), Some(400));
        assert!(p.mshr_exhausted());
        assert!(p.drop_burst_block());
        assert_eq!(
            p.counts(),
            FaultCounts {
                acks_delayed: 1,
                dram_spikes: 1,
                mshr_exhausted: 1,
                bursts_dropped: 1
            }
        );
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let mut p = FaultPlan::new(FaultConfig::uniform(0.3, seed));
            (0..256).map(|_| p.drop_burst_block()).collect()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10), "different seeds diverge");
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let mut p = FaultPlan::new(FaultConfig::uniform(0.25, 42));
        let fired = (0..10_000).filter(|_| p.mshr_exhausted()).count();
        let rate = fired as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn sites_use_independent_streams() {
        // Consuming one stream must not shift another.
        let mut a = FaultPlan::new(FaultConfig::uniform(0.5, 11));
        let mut b = FaultPlan::new(FaultConfig::uniform(0.5, 11));
        for _ in 0..100 {
            let _ = a.ack_delay();
        }
        let seq_a: Vec<bool> = (0..64).map(|_| a.drop_burst_block()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.drop_burst_block()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn identical_configs_give_identical_plans() {
        // Two plans built from the same config must agree decision for
        // decision under an arbitrary interleaving of all four fault
        // sites — the property resumable sweeps and the fuzzer rely on.
        let mut a = FaultPlan::new(FaultConfig::uniform(0.3, 77));
        let mut b = FaultPlan::new(FaultConfig::uniform(0.3, 77));
        for i in 0..512 {
            match i % 4 {
                0 => assert_eq!(a.ack_delay(), b.ack_delay()),
                1 => assert_eq!(a.dram_spike(), b.dram_spike()),
                2 => assert_eq!(a.mshr_exhausted(), b.mshr_exhausted()),
                _ => assert_eq!(a.drop_burst_block(), b.drop_burst_block()),
            }
        }
        assert_eq!(a.counts(), b.counts());
        assert_ne!(
            a.counts(),
            FaultCounts::default(),
            "the plan actually fired"
        );
    }

    #[test]
    fn seed_and_rate_both_shape_the_plan() {
        let stream = |rate: f64, seed: u64| -> Vec<bool> {
            let mut p = FaultPlan::new(FaultConfig::uniform(rate, seed));
            (0..256).map(|_| p.mshr_exhausted()).collect()
        };
        assert_eq!(stream(0.4, 21), stream(0.4, 21));
        assert_ne!(stream(0.4, 21), stream(0.4, 22), "seed changes the plan");
        assert_ne!(stream(0.4, 21), stream(0.9, 21), "rate changes the plan");
    }

    #[test]
    fn reset_counts_keeps_the_stream_position() {
        let mut p = FaultPlan::new(FaultConfig::uniform(0.5, 5));
        let mut q = FaultPlan::new(FaultConfig::uniform(0.5, 5));
        let _ = p.dram_spike();
        let _ = q.dram_spike();
        p.reset_counts();
        assert_eq!(p.counts(), FaultCounts::default());
        // Post-reset decisions continue where they left off.
        for _ in 0..32 {
            assert_eq!(p.dram_spike(), q.dram_spike());
        }
    }
}
