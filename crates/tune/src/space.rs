//! The design space: which policy points a tune explores.
//!
//! A [`TunePoint`] is one `(policy, SB size)` pair; a [`TuneSpace`]
//! names the value lists of each dimension and enumerates their cross
//! product in a fixed, documented order, so "point #17 of the default
//! space" means the same configuration on every machine, forever.
//! Seeded sampling is a deterministic Fisher–Yates shuffle of that
//! enumeration (splitmix-style [`mix64`] stream), so a `(seed, points)`
//! pair names the same sample on every run.

use spb_core::params::SpbParams;
use spb_sim::config::PolicyKind;
use spb_stats::hash::mix64;

/// One candidate configuration: a policy and the SB size it runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunePoint {
    /// The (possibly parameterized) policy.
    pub policy: PolicyKind,
    /// SB entries.
    pub sb: usize,
}

impl TunePoint {
    /// `label@sbN`, the point's display / provenance name.
    pub fn name(&self) -> String {
        format!("{}@sb{}", self.policy.label(), self.sb)
    }
}

/// The dimension lists a tune crosses.
///
/// Enumeration order (the contract the grid strategy and the seeded
/// shuffle are defined over):
///
/// 1. Base SPB points: `n` (outer) × `dedupe` × `burst` × `frac` ×
///    `sb` (inner), each list in its given order.
/// 2. Dynamic-S points: `n` × `sb`.
/// 3. Feedback points: `n` × `sb`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneSpace {
    /// Detector windows.
    pub n: Vec<u32>,
    /// Dedupe on/off.
    pub dedupe: Vec<bool>,
    /// Burst-threshold overrides (0 = the paper's auto rule).
    pub burst: Vec<u8>,
    /// Page fractions in thousandths (1000 = full page).
    pub frac: Vec<u16>,
    /// SB sizes.
    pub sb: Vec<usize>,
    /// Include the §IV-C dynamic-S variant rows.
    pub dynamic: bool,
    /// Include the FDP-style feedback variant rows.
    pub feedback: bool,
}

impl Default for TuneSpace {
    /// The default space: the paper's N sweep crossed with the extended
    /// knobs, plus both adaptive variants — 612 points.
    fn default() -> Self {
        Self {
            n: vec![8, 16, 24, 32, 48, 64],
            dedupe: vec![true, false],
            burst: vec![0, 2, 4, 8],
            frac: vec![1000, 750, 500, 250],
            sb: vec![14, 28, 56],
            dynamic: true,
            feedback: true,
        }
    }
}

impl TuneSpace {
    /// Total number of points the space enumerates.
    pub fn len(&self) -> usize {
        let base = self.n.len() * self.dedupe.len() * self.burst.len() * self.frac.len();
        let adaptive = (usize::from(self.dynamic) + usize::from(self.feedback)) * self.n.len();
        (base + adaptive) * self.sb.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every point, in the documented canonical order.
    pub fn enumerate(&self) -> Vec<TunePoint> {
        let mut points = Vec::with_capacity(self.len());
        for &n in &self.n {
            for &dedupe in &self.dedupe {
                for &burst in &self.burst {
                    for &frac_milli in &self.frac {
                        for &sb in &self.sb {
                            points.push(TunePoint {
                                policy: PolicyKind::Spb {
                                    params: SpbParams {
                                        n,
                                        dedupe,
                                        burst,
                                        frac_milli,
                                        ..SpbParams::default()
                                    },
                                },
                                sb,
                            });
                        }
                    }
                }
            }
        }
        let dynamic = self.n.iter().filter(|_| self.dynamic);
        let feedback = self.n.iter().filter(|_| self.feedback);
        let adaptive = dynamic
            .map(|&n| PolicyKind::SpbDynamic { n })
            .chain(feedback.map(|&n| PolicyKind::SpbFeedback { n }));
        for policy in adaptive {
            for &sb in &self.sb {
                points.push(TunePoint { policy, sb });
            }
        }
        points
    }

    /// A seeded sample of `count` distinct points: Fisher–Yates over
    /// the canonical enumeration with a [`mix64`] index stream, then
    /// the first `count`. The same `(space, seed, count)` always names
    /// the same sample; `count >= len()` returns the whole (shuffled)
    /// space.
    pub fn sample(&self, seed: u64, count: usize) -> Vec<TunePoint> {
        let mut points = self.enumerate();
        let mut stream = seed;
        for i in (1..points.len()).rev() {
            stream = mix64(stream);
            points.swap(i, (stream % (i as u64 + 1)) as usize);
        }
        points.truncate(count);
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_has_documented_size() {
        let s = TuneSpace::default();
        assert_eq!(
            s.len(),
            612,
            "6n × 2dedupe × 4burst × 4frac × 3sb + 2×6n×3sb"
        );
        assert_eq!(s.enumerate().len(), s.len());
    }

    #[test]
    fn enumeration_is_distinct_and_round_trippable() {
        let points = TuneSpace::default().enumerate();
        let mut names: Vec<String> = points.iter().map(TunePoint::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), points.len(), "every point has a distinct name");
        for p in &points {
            let label = p.policy.label();
            assert_eq!(PolicyKind::parse(&label).unwrap(), p.policy, "{label}");
        }
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let s = TuneSpace::default();
        assert_eq!(s.sample(7, 50), s.sample(7, 50));
        assert_ne!(s.sample(7, 50), s.sample(8, 50));
        let all = s.sample(7, usize::MAX);
        assert_eq!(all.len(), s.len());
        // A sample is a prefix of the full shuffle.
        assert_eq!(&all[..50], &s.sample(7, 50)[..]);
    }

    #[test]
    fn first_point_of_the_default_grid_is_the_smallest_window() {
        let first = TuneSpace::default().enumerate()[0];
        assert_eq!(first.name(), "spb:n=8@sb14");
    }
}
