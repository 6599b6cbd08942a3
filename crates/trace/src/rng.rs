//! Deterministic pseudo-random numbers for workload generation.
//!
//! The workspace builds fully offline, so the `rand`/`rand_chacha`
//! crates are unavailable; this module provides the small RNG surface
//! the generators need (seeding, Bernoulli draws, range sampling) on a
//! xoshiro256** core. Workload generation only needs *deterministic,
//! well-mixed* streams — cryptographic quality is irrelevant — and every
//! stream is fully determined by its `u64` seed, which keeps the
//! simulator's end-to-end determinism guarantee intact.

use spb_stats::hash::mix64;
use std::ops::{Range, RangeInclusive};

/// A deterministic xoshiro256** generator seeded from a `u64`.
///
/// # Examples
///
/// ```
/// use spb_trace::rng::TraceRng;
///
/// let mut a = TraceRng::seed_from_u64(42);
/// let mut b = TraceRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRng {
    s: [u64; 4],
}

impl TraceRng {
    /// Expands `seed` into the full generator state via splitmix64 (the
    /// reference seeding procedure for the xoshiro family).
    pub fn seed_from_u64(seed: u64) -> Self {
        // The i-th splitmix64 output is `mix64` of `seed + i·γ`.
        let gamma = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            s: [0, 1, 2, 3].map(|i| mix64(seed.wrapping_add(gamma(i)))),
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits of entropy).
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub(crate) fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Draws exactly what [`TraceRng::gen_bool`] draws for the
    /// probability `chance` was made from, with an integer compare in
    /// place of the float conversion.
    #[inline]
    pub(crate) fn chance(&mut self, chance: Chance) -> bool {
        (self.next_u64() >> 11) < chance.0
    }

    /// A uniform value in `range` (half-open or inclusive, `u64` or
    /// `usize`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "cannot sample from an empty range");
        // Multiply-shift (Lemire) keeps bias negligible for the small
        // bounds workload generation uses.
        (((u128::from(self.next_u64())) * u128::from(bound)) >> 64) as u64
    }
}

/// A probability precomputed for [`TraceRng::chance`].
///
/// `gen_bool(p)` tests `m · 2⁻⁵³ < p` for the 53-bit draw `m`. Both
/// sides are exact in `f64`, so the test equals `m < ⌈p · 2⁵³⌉` over
/// the integers, which is the threshold stored here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chance(u64);

impl Chance {
    /// The threshold for probability `p` (`NaN` and `p ≤ 0` never hit,
    /// `p ≥ 1` always does, exactly as with [`TraceRng::gen_bool`]).
    pub(crate) const fn new(p: f64) -> Self {
        const SCALE: u64 = 1 << 53;
        Self(if p >= 1.0 {
            SCALE
        } else if p > 0.0 {
            (p * SCALE as f64).ceil() as u64
        } else {
            0
        })
    }
}

/// Ranges [`TraceRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut TraceRng) -> Self::Output;
}

impl SampleRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut TraceRng) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.below(self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<u64> {
    type Output = u64;
    fn sample(self, rng: &mut TraceRng) -> u64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range");
        let span = end.wrapping_sub(start).wrapping_add(1);
        if span == 0 {
            return rng.next_u64();
        }
        start + rng.below(span)
    }
}

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut TraceRng) -> usize {
        assert!(self.start < self.end, "empty range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SampleRange for RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut TraceRng) -> usize {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range");
        start + rng.below((end - start + 1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = TraceRng::seed_from_u64(7);
        let mut b = TraceRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TraceRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TraceRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0usize..=3);
            assert!(w <= 3);
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = TraceRng::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
        assert!(!(0..1000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn chance_draws_exactly_what_gen_bool_draws() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let mut probs = vec![0.0, -1.0, f64::NAN, tiny, 1e-300, 0.0005, 0.08, 0.5];
        probs.extend([below_one, 1.0, 2.0, 3.0 / (1u64 << 53) as f64]);
        let mut pick = TraceRng::seed_from_u64(5);
        probs.extend((0..64).map(|_| pick.next_f64()));
        for p in probs {
            let c = Chance::new(p);
            let mut a = TraceRng::seed_from_u64(p.to_bits());
            let mut b = a.clone();
            for _ in 0..2_000 {
                assert_eq!(a.chance(c), b.gen_bool(p), "p = {p:e}");
            }
        }
        // The threshold is exact at the 53-bit grid and just off it.
        let grid = 1.0 / (1u64 << 53) as f64;
        assert_eq!(Chance::new(3.0 * grid), Chance(3));
        assert_eq!(Chance::new(3.5 * grid), Chance(4));
        assert_eq!(Chance::new(below_one), Chance((1 << 53) - 1));
    }

    #[test]
    fn full_domain_inclusive_range_works() {
        let mut rng = TraceRng::seed_from_u64(3);
        let _ = rng.gen_range(0u64..=u64::MAX);
    }
}
