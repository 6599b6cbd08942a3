//! A self-contained, `std`-only stand-in for the subset of the
//! [proptest](https://docs.rs/proptest) API this workspace uses.
//!
//! The build environment is fully offline (no crates.io registry), so
//! the real `proptest` cannot be fetched. This crate re-implements just
//! enough of its surface — the [`proptest!`] macro, integer-range and
//! tuple strategies, `prop_map`, [`collection::vec`], `any::<T>()`, and
//! the `prop_assert*` macros — that the existing property tests compile
//! and run unchanged.
//!
//! Semantics differ from the real proptest in two deliberate ways:
//!
//! - **No shrinking.** A failing case reports the generated inputs and
//!   the case seed, but does not minimize them.
//! - **Fully deterministic.** Case generation is seeded from the test
//!   name and case index, so every run (and every machine) explores the
//!   same inputs. Failures are therefore always reproducible.

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Number of generated cases per property unless overridden with
/// `#![proptest_config(ProptestConfig::with_cases(n))]`.
pub(crate) const DEFAULT_CASES: u32 = 48;

/// Runner configuration (only the case count is modelled).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// How many random cases to generate per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: DEFAULT_CASES,
        }
    }
}

/// Deterministic split-mix/xoshiro-style PRNG used for case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// Seeds the generator (xoshiro256** seeded via splitmix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
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

    /// Uniform value in `[0, bound)` (`bound` > 0; modulo method — fine
    /// for test-case generation).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// A source of values for one property argument.
///
/// The associated-type shape matches real proptest closely enough that
/// `impl Strategy<Value = T>` return types keep working.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (proptest's `prop_map`).
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                start + rng.below(span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, usize);

// u64 needs its own impl: the span itself can overflow u64.
impl Strategy for Range<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below(self.end - self.start)
    }
}

impl Strategy for RangeInclusive<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut TestRng) -> u64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy");
        let span = end.wrapping_sub(start).wrapping_add(1);
        if span == 0 {
            return rng.next_u64();
        }
        start + rng.below(span)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// A strategy producing any value of `T` (proptest's `any::<T>()`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Generates arbitrary values of `T` over its whole domain.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any(std::marker::PhantomData)
}

impl Strategy for Any<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Strategy for Any<u32> {
    type Value = u32;
    fn generate(&self, rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s with elements from `element` and a length
    /// drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates vectors whose length lies in `len` (proptest's
    /// `collection::vec`).
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Best-effort extraction of the human-readable message from a panic
/// payload (`assert!` and `panic!` produce `String` or `&'static str`).
#[doc(hidden)]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("<non-string panic payload>")
}

/// Runs `f` once per case with a deterministic per-case RNG.
///
/// On panic the failure is re-raised with the property name, failing
/// case index, and case seed *in the panic message itself*, so a CI log
/// that captures nothing but the panic is enough to reproduce: seed a
/// [`TestRng::seed_from_u64`] with the printed seed and re-run the body.
///
/// # Panics
///
/// Panics if any case's body panics.
pub fn run_cases<F: FnMut(&mut TestRng)>(config: ProptestConfig, name: &str, mut f: F) {
    // FNV-1a over the test name so each property explores its own space.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for case in 0..config.cases {
        let seed = h ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::seed_from_u64(seed);
        let result = catch_unwind(AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = result {
            panic!(
                "property {name:?} failed at case {case} of {} (seed {seed:#x}): {}",
                config.cases,
                panic_message(payload.as_ref()),
            );
        }
    }
}

/// Declares deterministic property tests (subset of proptest's macro).
///
/// Supports an optional `#![proptest_config(...)]` header, doc comments
/// and attributes per property, and `arg in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases($cfg, stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                    let __case = format!(
                        concat!("(", $(stringify!($arg), " = {:?}, ",)* ")"),
                        $(&$arg),*
                    );
                    let __outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || $body),
                    );
                    if let Err(payload) = __outcome {
                        // Fold the generated inputs into the payload so the
                        // outer `run_cases` panic carries inputs + seed.
                        ::std::panic::panic_any(format!(
                            "failing inputs {__case}: {}",
                            $crate::panic_message(payload.as_ref()),
                        ));
                    }
                });
            }
        )*
    };
}

/// Asserts a condition inside a property (panics with the message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property (panics with the message).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property (panics with the message).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// The glob-importable prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{ProptestConfig, Strategy, TestRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = Strategy::generate(&(5u32..17), &mut rng);
            assert!((5..17).contains(&v));
            let w = Strategy::generate(&(3usize..=9), &mut rng);
            assert!((3..=9).contains(&w));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = collection::vec(0u64..1000, 1..50);
        let mut a = TestRng::seed_from_u64(99);
        let mut b = TestRng::seed_from_u64(99);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    fn prop_map_applies() {
        let strat = (0u64..10).prop_map(|v| v * 8);
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(strat.generate(&mut rng) % 8, 0);
        }
    }

    proptest! {
        /// The macro itself works end to end.
        #[test]
        fn macro_smoke(x in 1u64..100, v in collection::vec(0u32..7, 1..20)) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(!v.is_empty());
            for e in v {
                prop_assert!(e < 7, "element {e} escaped range");
            }
        }
    }

    /// A failing property's panic message alone must be enough to
    /// reproduce it: it names the property, the failing case index, and
    /// the case seed, plus the assertion's own message.
    #[test]
    fn failure_panic_message_carries_seed_and_case() {
        let payload = std::panic::catch_unwind(|| {
            crate::run_cases(ProptestConfig::with_cases(16), "demo_property", |rng| {
                let v = rng.below(1000);
                assert!(v % 7 != 3, "value {v} hit the bad residue");
            });
        })
        .expect_err("the property must fail within 16 cases");
        let msg = crate::panic_message(payload.as_ref()).to_string();
        assert!(
            msg.contains("demo_property"),
            "panic names the property: {msg}"
        );
        assert!(
            msg.contains("failed at case "),
            "panic carries the case index: {msg}"
        );
        assert!(msg.contains("seed 0x"), "panic carries the seed: {msg}");
        assert!(
            msg.contains("bad residue"),
            "panic keeps the original assertion message: {msg}"
        );
        // The printed seed really reproduces the failure.
        let seed_hex = msg
            .split("seed 0x")
            .nth(1)
            .and_then(|s| s.split(')').next())
            .expect("seed parses back out of the message");
        let seed = u64::from_str_radix(seed_hex, 16).expect("hex seed");
        let mut rng = TestRng::seed_from_u64(seed);
        assert_eq!(rng.below(1000) % 7, 3, "replaying the seed re-fails");
    }

    /// The macro path folds the generated inputs into the panic message.
    #[test]
    fn macro_failure_reports_inputs_in_panic() {
        proptest! {
            fn inner_always_fails(x in 10u64..20) {
                prop_assert!(x < 10, "x was {x}");
            }
        }
        let payload =
            std::panic::catch_unwind(inner_always_fails).expect_err("property always fails");
        let msg = crate::panic_message(payload.as_ref()).to_string();
        assert!(
            msg.contains("failing inputs (x = "),
            "inputs appear in the panic: {msg}"
        );
        assert!(
            msg.contains("inner_always_fails"),
            "property name appears: {msg}"
        );
    }
}
