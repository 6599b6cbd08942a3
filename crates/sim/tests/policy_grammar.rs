//! Property tests for the parameterized policy grammar: every point in
//! the design space must survive `parse(label()) == self` (the tuner,
//! the sweep service wire spec, and the cache key all lean on it), and
//! distinct knob settings must never collide in the cache.

use proptest::prelude::*;
use spb_core::SpbParams;
use spb_sim::config::{PolicyKind, SimConfig};

proptest! {
    /// The full SPB parameter space round-trips through its label.
    #[test]
    fn spb_labels_round_trip(
        n in 1u32..=1024,
        dedupe in any::<bool>(),
        burst in 0u32..=15,
        frac_milli in 1u32..=1000,
        backward in any::<bool>(),
        cross in 0u32..=8,
    ) {
        let p = PolicyKind::Spb {
            params: SpbParams {
                n,
                dedupe,
                burst: burst as u8,
                frac_milli: frac_milli as u16,
                backward,
                cross,
            },
        };
        let label = p.label();
        prop_assert_eq!(PolicyKind::parse(&label).unwrap(), p, "label {}", label);
        // Labels are canonical: re-labelling the parse changes nothing.
        prop_assert_eq!(PolicyKind::parse(&label).unwrap().label(), label);
    }

    /// The single-knob adaptive variants round-trip too.
    #[test]
    fn adaptive_labels_round_trip(n in 1u32..=1024, feedback in any::<bool>()) {
        let p = if feedback {
            PolicyKind::SpbFeedback { n }
        } else {
            PolicyKind::SpbDynamic { n }
        };
        prop_assert_eq!(PolicyKind::parse(&p.label()).unwrap(), p);
    }

    /// Any two SPB points that differ in any knob get different labels
    /// AND different Debug renderings — the cache key digests the Debug
    /// form, so a collision here would silently serve one configuration
    /// the other's results.
    #[test]
    fn distinct_points_never_collide(
        a in (1u32..=64, 0u32..=15, 1u32..=1000, 0u32..=8),
        b in (1u32..=64, 0u32..=15, 1u32..=1000, 0u32..=8),
    ) {
        let mk = |(n, burst, frac, cross): (u32, u32, u32, u32)| PolicyKind::Spb {
            params: SpbParams {
                n,
                dedupe: true,
                burst: burst as u8,
                frac_milli: frac as u16,
                backward: false,
                cross,
            },
        };
        let (pa, pb) = (mk(a), mk(b));
        if pa != pb {
            prop_assert_ne!(pa.label(), pb.label());
            prop_assert_ne!(format!("{pa:?}"), format!("{pb:?}"));
        }
    }
}

#[test]
fn fixed_policies_round_trip() {
    for spelling in [
        "none",
        "at-execute",
        "at-commit",
        "spb",
        "spb-dynamic",
        "ideal",
    ] {
        let p = PolicyKind::parse(spelling).unwrap();
        assert_eq!(p.label(), spelling, "classic spelling is canonical");
        assert_eq!(PolicyKind::parse(&p.label()).unwrap(), p);
    }
    // The aliases parse but canonicalize to the full names.
    assert_eq!(PolicyKind::parse("exe").unwrap().label(), "at-execute");
    assert_eq!(PolicyKind::parse("commit").unwrap().label(), "at-commit");
}

#[test]
fn burst_threshold_alone_changes_the_cache_debug_form() {
    // A one-knob difference must flow all the way into the SimConfig
    // Debug rendering (which the serve cache key digests).
    let base = SimConfig::quick().with_policy(PolicyKind::parse("spb:burst=3").unwrap());
    let other = SimConfig::quick().with_policy(PolicyKind::parse("spb:burst=4").unwrap());
    assert_ne!(format!("{base:?}"), format!("{other:?}"));
    // And the default point keeps its seed-era rendering.
    let default = SimConfig::quick().with_policy(PolicyKind::spb_default());
    assert!(
        format!("{default:?}").contains("Spb { n: 48, dedupe: true }"),
        "default Debug form must stay cache-stable"
    );
}
