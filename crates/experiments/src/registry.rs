//! One registry for every table and figure the workspace regenerates.
//!
//! Each paper artifact is a [`FigureDef`]: a canonical id, the section
//! title the `all` binary prints, a one-line claim, and one entry
//! point, [`FigureDef::run`], that asks an [`Evaluation`] for the
//! suites it reads. The CLI's `experiment` command and the `all` binary
//! both iterate [`REGISTRY`] instead of keeping their own
//! hand-maintained match arms, so adding a figure is one module plus
//! one registry row.

use crate::Evaluation;
use spb_stats::Table;

/// A regenerable table or figure from the paper's evaluation.
#[derive(Clone, Copy, Debug)]
pub struct FigureDef {
    /// Canonical id used by `spbsim experiment <id>`.
    pub id: &'static str,
    /// Section heading printed by the `all` binary.
    pub title: &'static str,
    /// One-line statement of what the artifact shows.
    pub claim: &'static str,
    /// Alternative ids also accepted on the CLI, besides the derived
    /// `figN` for `figNN`.
    pub aliases: &'static [&'static str],
    /// Renders the figure from the suites it asks `Evaluation` for.
    pub run: fn(&mut Evaluation) -> Vec<Table>,
}

impl FigureDef {
    /// Whether `name` selects this figure: its id, an alias, or `figN`
    /// for the id `fig0N`.
    pub fn matches(&self, name: &str) -> bool {
        self.id == name
            || self.aliases.contains(&name)
            || self
                .id
                .strip_prefix("fig0")
                .is_some_and(|n| name.strip_prefix("fig") == Some(n))
    }
}

/// Every regenerable artifact, in paper order.
pub const REGISTRY: &[FigureDef] = &[
    FigureDef {
        id: "tab1",
        title: "Table I",
        claim: "the simulated configuration matches the paper's Table I",
        aliases: &["table1"],
        run: crate::tab1::run,
    },
    FigureDef {
        id: "fig01",
        title: "Figure 1",
        claim: "ratio of stall cycles due to a full SB (motivation)",
        aliases: &[],
        run: crate::fig01::run,
    },
    FigureDef {
        id: "fig03",
        title: "Figure 3",
        claim: "where the stores causing SB-induced stalls live",
        aliases: &[],
        run: crate::fig03::run,
    },
    FigureDef {
        id: "fig05",
        title: "Figure 5",
        claim: "SPB at SB14 performs within ~5% of the ideal SB",
        aliases: &[],
        run: crate::fig05::run,
    },
    FigureDef {
        id: "fig06",
        title: "Figure 6",
        claim: "per-app performance of SB-bound apps vs the ideal SB",
        aliases: &[],
        run: crate::fig06::run,
    },
    FigureDef {
        id: "fig07",
        title: "Figure 7",
        claim: "energy normalized to at-commit (lower is better)",
        aliases: &[],
        run: crate::fig07::run,
    },
    FigureDef {
        id: "fig08",
        title: "Figure 8",
        claim: "SB-induced stall cycles normalized to at-commit",
        aliases: &[],
        run: crate::fig08::run,
    },
    FigureDef {
        id: "fig09",
        title: "Figure 9",
        claim: "per-app SB stalls of SB-bound apps vs at-commit",
        aliases: &[],
        run: crate::fig09::run,
    },
    FigureDef {
        id: "fig10",
        title: "Figure 10",
        claim: "issue-stall cycles split into SB- and other-caused",
        aliases: &[],
        run: crate::fig10::run,
    },
    FigureDef {
        id: "fig11",
        title: "Figure 11",
        claim: "breakdown of store-prefetch outcomes at the L1D",
        aliases: &[],
        run: crate::fig11::run,
    },
    FigureDef {
        id: "fig12",
        title: "Figure 12",
        claim: "prefetch traffic of SPB normalized to at-commit",
        aliases: &[],
        run: crate::fig12::run,
    },
    FigureDef {
        id: "fig13",
        title: "Figure 13",
        claim: "L1D tag-access overhead of SPB normalized to at-commit",
        aliases: &[],
        run: crate::fig13::run,
    },
    FigureDef {
        id: "fig14",
        title: "Figure 14",
        claim: "execution stalls with an L1D miss pending",
        aliases: &[],
        run: crate::fig14::run,
    },
    FigureDef {
        id: "fig15",
        title: "Figure 15",
        claim: "per-app L1D-miss-pending stalls of SB-bound apps",
        aliases: &[],
        run: crate::fig15::run,
    },
    FigureDef {
        id: "fig16",
        title: "Figure 16",
        claim: "SPB on top of aggressive cache prefetchers",
        aliases: &[],
        run: crate::fig16::run,
    },
    FigureDef {
        id: "fig17",
        title: "Figure 17",
        claim: "SPB across the five Table II core aggressiveness points",
        aliases: &[],
        run: crate::fig17::run,
    },
    FigureDef {
        id: "fig18",
        title: "Figure 18",
        claim: "PARSEC with 8 threads keeps the single-thread gains",
        aliases: &[],
        run: crate::fig18::run,
    },
    FigureDef {
        id: "sens_n",
        title: "Sensitivity to N",
        claim: "sensitivity to detector window N, dynamic-S, and dedupe",
        aliases: &["sensn"],
        run: crate::sens_n::run,
    },
    FigureDef {
        id: "sb20",
        title: "SB-shrink claim",
        claim: "a 20-entry SB with SPB matches a much larger plain SB",
        aliases: &[],
        run: crate::sb20::run,
    },
    FigureDef {
        id: "ablations",
        title: "Ablations",
        claim: "each detector design choice earns its keep",
        aliases: &[],
        run: crate::ablations::run,
    },
    FigureDef {
        id: "smt_validation",
        title: "SMT validation",
        claim: "the paper's SMT approximation tracks real 2-core runs",
        aliases: &["smt"],
        run: crate::smt_validation::run,
    },
    FigureDef {
        id: "spatial",
        title: "Spatial prefetching (SectionVII-A)",
        claim: "spatial page-footprint prefetchers cannot replace SPB",
        aliases: &[],
        run: crate::spatial::run,
    },
    FigureDef {
        id: "coalescing",
        title: "Store coalescing (SectionVII-B)",
        claim: "SPB versus non-speculative store coalescing",
        aliases: &[],
        run: crate::coalescing::run,
    },
    FigureDef {
        id: "variance",
        title: "Seed robustness",
        claim: "conclusions are stable across workload seeds",
        aliases: &["seeds"],
        run: crate::variance::run,
    },
    FigureDef {
        id: "squash",
        title: "Squash storms",
        claim: "wasted RFOs and leaked M state under wrong-path bursts stay bounded",
        aliases: &["storms"],
        run: crate::squash::run,
    },
];

/// Looks a figure up by canonical id or alias.
pub fn find(name: &str) -> Option<&'static FigureDef> {
    REGISTRY.iter().find(|d| d.matches(name))
}

/// Comma-separated canonical ids, for error messages and `--help`.
pub fn known_ids() -> String {
    REGISTRY.iter().map(|d| d.id).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_aliases_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in REGISTRY {
            assert!(seen.insert(d.id), "duplicate id {}", d.id);
            for a in d.aliases {
                assert!(seen.insert(a), "alias {} collides", a);
            }
        }
    }

    #[test]
    fn find_resolves_ids_and_aliases() {
        assert_eq!(find("fig05").unwrap().id, "fig05");
        assert_eq!(find("fig5").unwrap().id, "fig05");
        assert_eq!(find("smt").unwrap().id, "smt_validation");
        assert!(find("fig99").is_none());
    }

    #[test]
    fn registry_covers_every_experiment_module() {
        // Paper order: Table I first, then the post-paper scenario
        // studies (seed robustness, squash storms).
        assert_eq!(REGISTRY.first().unwrap().id, "tab1");
        assert_eq!(REGISTRY.last().unwrap().id, "squash");
        assert_eq!(REGISTRY.len(), 25);
    }

    #[test]
    fn titles_and_claims_are_unique_and_nonempty() {
        let mut titles = std::collections::HashSet::new();
        let mut claims = std::collections::HashSet::new();
        for d in REGISTRY {
            assert!(!d.title.is_empty() && !d.claim.is_empty(), "{}", d.id);
            assert!(titles.insert(d.title), "duplicate title {}", d.title);
            assert!(claims.insert(d.claim), "duplicate claim for {}", d.id);
        }
    }
}
