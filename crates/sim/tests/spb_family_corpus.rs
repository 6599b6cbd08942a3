//! Equivalence corpus for the SPB policy family.
//!
//! Every SPB spelling — the paper's `spb`, its extension knobs, the
//! §IV-C `spb-dynamic` store-size variant and the accuracy-driven
//! `spb-feedback` ladder — is pinned by FNV-1a digests of every
//! simulated field of whole runs. The plain digests were recorded
//! before the family was folded into one policy type; the storm
//! digests when wrong-path stores moved onto the committed path's
//! detector rule. Synthetic stores are all 8 bytes wide, so
//! whole runs cannot tell `spb-dynamic` from plain SPB; the property
//! at the end checks it against [`DynamicModel`] over mixed store sizes.

use proptest::prelude::*;
use spb_mem::{MemoryConfig, MemorySystem};
use spb_obs::{Collector, EventKind};
use spb_sim::{PolicyKind, SimConfig, Simulation};
use spb_stats::hash::{fnv1a64, hex16};
use spb_trace::profile::AppProfile;
use spb_trace::SquashConfig;

/// Upward wrong-path runs of up to 96 stores: deep enough to close the
/// wrong-path window of every policy below.
const STORM: &str = "rate=0.05,depth=16..96,storm=4,ret2spec=off,seed=7";

/// `(app, policy, plain digest, digest under STORM)` for two SB-bound
/// SPEC apps and one 8-thread PARSEC app.
#[rustfmt::skip]
const CORPUS: [(&str, &str, &str, &str); 21] = [
    ("bwaves", "spb", "f610c646e570793d", "7e629aeb9127d0d7"),
    ("bwaves", "spb:n=24,dedupe=off", "bce9da4762b27221", "994737b2615f6d32"),
    ("bwaves", "spb:burst=3,frac=0.5,backward=on,cross=2", "debcc91b90dd051f", "3728b3b15018ae66"),
    ("bwaves", "spb-dynamic", "6452413f28ed0991", "d0bbda13cf16a883"),
    ("bwaves", "spb-dynamic:n=16", "a56370e77c5356a5", "8b7ef948740823a4"),
    ("bwaves", "spb-feedback", "54f66805b4722285", "ea971d567a29981f"),
    ("bwaves", "spb-feedback:n=24", "5b2670cd8ed5e29e", "16882f45e7e6108c"),
    ("roms", "spb", "4d630bfa1d6d7538", "f40d398ae1bc058c"),
    ("roms", "spb:n=24,dedupe=off", "8505cf257f074cd4", "757f3dbcbadb651e"),
    ("roms", "spb:burst=3,frac=0.5,backward=on,cross=2", "52c08dfcd6ce5e30", "db7edb5186e73a9d"),
    ("roms", "spb-dynamic", "6ed4c6a08428647c", "3a7652353879a700"),
    ("roms", "spb-dynamic:n=16", "c0b55fcdaaea58d2", "81fbdc17a80a361e"),
    ("roms", "spb-feedback", "8f8ad2fae8c7c41a", "82de3864f68f433c"),
    ("roms", "spb-feedback:n=24", "56770e5e4cc5e30b", "e4293fb164c05149"),
    ("bodytrack", "spb", "d8e012110edd45b1", "ef91886904a55ff6"),
    ("bodytrack", "spb:n=24,dedupe=off", "e5e8a788201b8efd", "00ff0b93b80a4674"),
    ("bodytrack", "spb:burst=3,frac=0.5,backward=on,cross=2", "ab3c5ef69cd1b0bd", "76d76d27cbef9804"),
    ("bodytrack", "spb-dynamic", "fdcc02e80959ccd5", "c54fef8443c6ce8a"),
    ("bodytrack", "spb-dynamic:n=16", "0f699400ef72c6db", "a56fbb3c76dd0375"),
    ("bodytrack", "spb-feedback", "0b3f7202e95a0b0f", "66c915d30bdf51e3"),
    ("bodytrack", "spb-feedback:n=24", "471a8389ec4f6c6c", "9864796ba8b6b759"),
];

/// FNV-1a over every simulated field of a run at SB 14 and a small
/// budget. `wall_ms` (host time), `kernel` (how the run was computed)
/// and `metrics` (a view of the fields below) are left out.
fn digest(app: &str, policy: &str, storm: bool) -> String {
    let mut cfg = SimConfig::quick()
        .with_sb(14)
        .with_policy(PolicyKind::parse(policy).unwrap());
    cfg.warmup_uops = 5_000;
    cfg.measure_uops = 20_000;
    if storm {
        cfg = cfg.with_squash(SquashConfig::parse(STORM).unwrap());
    }
    let r = Simulation::with_config(&AppProfile::by_name(app).unwrap(), &cfg).run_or_panic();
    if storm {
        assert!(
            r.mem.spec_rfos_issued > 0,
            "{app} {policy}: no wrong-path burst"
        );
    }
    let text = format!(
        "{}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.app,
        r.policy,
        r.sb_entries,
        r.cycles,
        r.uops,
        r.topdown,
        r.cpu,
        r.mem,
        r.per_core,
        r.sb_residency,
        r.burst_lengths,
        r.energy,
    );
    hex16(fnv1a64(text.as_bytes()))
}

#[test]
fn spb_family_runs_match_their_recorded_digests() {
    let actual: Vec<_> = CORPUS
        .iter()
        .map(|&(app, policy, ..)| {
            (
                app,
                policy,
                digest(app, policy, false),
                digest(app, policy, true),
            )
        })
        .collect();
    let expected: Vec<_> = CORPUS
        .iter()
        .map(|&(app, policy, plain, storm)| (app, policy, plain.to_string(), storm.to_string()))
        .collect();
    assert_eq!(actual, expected, "SPB family digests moved");
}

/// The §IV-C dynamic SPB detector, written out on its own: the paper's
/// three-register rule with dedupe, checked against `n / (64 / S)`.
/// Every `n` stores, the window's mean store size is rounded up to a
/// power of two; `S` (initially 8) takes that value once two
/// consecutive windows agree on it.
struct DynamicModel {
    n: u32,
    size: u8,
    prev_window_size: u8,
    size_sum: u64,
    size_count: u32,
    last_block: u64,
    sat: u8,
    count: u32,
    burst_page: Option<u64>,
}

impl DynamicModel {
    /// Returns the burst as `(first block, blocks)`.
    fn observe(&mut self, addr: u64, size: u8) -> Option<(u64, u64)> {
        self.size_sum += u64::from(size.max(1));
        self.size_count += 1;
        if self.size_count == self.n {
            let window_size = ((self.size_sum / u64::from(self.n)) as u8)
                .max(1)
                .next_power_of_two();
            if window_size == self.prev_window_size {
                self.size = window_size;
            }
            self.prev_window_size = window_size;
            self.size_sum = 0;
            self.size_count = 0;
        }
        let threshold = (u64::from(self.n) / (64 / u64::from(self.size))).clamp(1, 15) as u8;
        let block = addr / 64;
        self.sat = match block.wrapping_sub(self.last_block) {
            0 => self.sat,
            1 => (self.sat + 1).min(15),
            _ => 0,
        };
        self.last_block = block;
        if self.count < self.n {
            self.count += 1;
            return None;
        }
        let fired = self.sat >= threshold;
        self.sat = 0;
        self.count = 0;
        let page = block / 64;
        if !fired || block % 64 == 63 || self.burst_page == Some(page) {
            return None;
        }
        self.burst_page = Some(page);
        Some((block + 1, 63 - block % 64))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `spb-dynamic:n=N` bursts exactly when, and exactly what,
    /// [`DynamicModel`] does over streams of `(size, stores, jump)`
    /// segments: contiguous 1–16-byte stores, then a skip ahead.
    #[test]
    fn dynamic_policy_matches_the_store_size_model(
        n in (0usize..6).prop_map(|i| [4u32, 8, 16, 24, 48, 64][i]),
        segs in proptest::collection::vec((1u8..=16, 1u64..400, (0usize..4).prop_map(|i| [0u64, 64, 4096, 1 << 20][i])), 1..24),
    ) {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let collector = Collector::new();
        mem.set_observer(collector.observer());
        let mut policy = PolicyKind::SpbDynamic { n }.build();
        let mut model = DynamicModel {
            n, size: 8, prev_window_size: 8, size_sum: 0, size_count: 0,
            last_block: 0, sat: 0, count: 0, burst_page: None,
        };
        let (mut addr, mut now, mut expected) = (1u64 << 26, 0u64, Vec::new());
        for (size, stores, jump) in segs {
            for _ in 0..stores {
                policy.on_store_commit(&mut mem, 0, addr, size, 0x400, now);
                if let Some((first, blocks)) = model.observe(addr, size) {
                    expected.push((now, (first * 64) & !0xfff, blocks));
                }
                addr += u64::from(size);
                now += 1;
            }
            addr += jump;
        }
        let bursts: Vec<_> = collector
            .take()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::BurstDetected { page, blocks } => Some((e.cycle, page, u64::from(blocks))),
                _ => None,
            })
            .collect();
        prop_assert_eq!(bursts, expected);
    }
}
