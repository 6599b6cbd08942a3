//! Small deterministic hashing helpers.
//!
//! The workspace builds fully offline, so there is no `sha2`/`blake3`;
//! the robustness layers need only *deterministic, well-distributed,
//! reproducible* digests, not cryptographic ones:
//!
//! - [`fnv1a64`] fingerprints byte strings — sweep-report content
//!   checksums, content-addressed cache keys, journal line checksums.
//! - [`mix64`] (the splitmix64 finalizer) turns a composite seed into
//!   an independent-looking 64-bit value — seeded retry jitter, chaos
//!   injection draws.
//! - [`hex16`] renders a digest in the fixed-width form the on-disk
//!   formats embed.
//!
//! None of these are collision-resistant against an adversary; they
//! detect *accidental* corruption (truncated writes, flipped bytes) and
//! derive *reproducible* pseudo-random streams. That is exactly the
//! contract the sweep service needs.
//!
//! # Examples
//!
//! ```
//! use spb_stats::hash::{fnv1a64, hex16, mix64};
//!
//! let d = fnv1a64(b"x264|spb|14");
//! assert_eq!(d, fnv1a64(b"x264|spb|14"), "deterministic");
//! assert_eq!(hex16(d).len(), 16);
//! assert_ne!(mix64(1), mix64(2));
//! ```

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`.
///
/// Stable across platforms and releases: the constants are pinned, so
/// digests embedded in on-disk artifacts stay comparable.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

/// Streaming 64-bit FNV-1a: writing a byte string in pieces, in order,
/// gives the same digest as [`fnv1a64`] over the whole string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv1a64 {
    /// Hashes `bytes` after everything written so far.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of everything written.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The splitmix64 finalizer: a bijective mixer that turns structured
/// input (`seed ^ index ^ attempt`, say) into a value with no visible
/// structure. Bijective ⇒ distinct inputs give distinct outputs.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Renders a 64-bit digest as 16 lowercase hex digits (zero-padded).
pub fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streamed_fnv_equals_the_one_shot_digest() {
        let text = b"{\n  \"cycles\": 123456\n}\n";
        for split in 0..=text.len() {
            let mut h = Fnv1a64::default();
            h.write(&text[..split]);
            h.write(&text[split..]);
            assert_eq!(h.finish(), fnv1a64(text), "split at {split}");
        }
    }

    #[test]
    fn fnv_distinguishes_small_perturbations() {
        let base = fnv1a64(b"{\"cycles\":123456}");
        assert_ne!(base, fnv1a64(b"{\"cycles\":123457}"));
        assert_ne!(base, fnv1a64(b"{\"cycles\":12345}"));
    }

    #[test]
    fn mix64_is_injective_on_a_sample_and_spreads_bits() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
        // Consecutive inputs should not produce consecutive outputs.
        assert!(mix64(1).abs_diff(mix64(2)) > 1 << 20);
    }

    #[test]
    fn hex16_round_trips() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            let s = hex16(v);
            assert_eq!(s.len(), 16);
            assert_eq!(u64::from_str_radix(&s, 16), Ok(v));
        }
        assert_eq!(hex16(0xdead_beef), "00000000deadbeef");
    }
}
