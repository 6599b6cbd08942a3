//! The four workloads and the simulation cells they run.

use spb_sim::{PolicyKind, SimConfig};
use spb_trace::profile::AppProfile;

/// The trace seed of every simulated cell: the seed the golden grids and
/// the expected `parsec_mt` records were made with, so every result of
/// every run is checked against a reference. The benchmark's own
/// `--seed` orders the operations (see [`Shuffle`]).
pub const GOLDEN_SEED: u64 = 42;

/// The two policies every simulation workload compares.
const POLICIES: [&str; 2] = ["at-commit", "spb"];

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memory-bound SPEC apps at the paper budget.
    SpecMem,
    /// SB-bound SPEC apps at the paper budget.
    SpecSb,
    /// 8-thread PARSEC apps at the quick budget.
    ParsecMt,
    /// Warm-cache quick-grid jobs through the sweep service.
    ServeWarm,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload::SpecMem,
    Workload::SpecSb,
    Workload::ParsecMt,
    Workload::ServeWarm,
];

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecMem => "spec_mem",
            Workload::SpecSb => "spec_sb",
            Workload::ParsecMt => "parsec_mt",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// An unknown name, listing the valid ones.
    pub fn parse(s: &str) -> Result<Self, String> {
        ALL.into_iter().find(|w| w.name() == s).ok_or_else(|| {
            let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {s:?} (valid: {})", names.join(", "))
        })
    }

    /// Applications the workload simulates (none for `serve_warm`).
    pub fn apps(self) -> &'static [&'static str] {
        match self {
            Workload::SpecMem => &["mcf", "omnetpp", "xalancbmk", "gcc"],
            Workload::SpecSb => &[
                "bwaves",
                "cactuBSSN",
                "x264",
                "blender",
                "cam4",
                "fotonik3d",
                "roms",
                "deepsjeng",
            ],
            Workload::ParsecMt => &[
                "bodytrack",
                "dedup",
                "ferret",
                "fluidanimate",
                "streamcluster",
            ],
            Workload::ServeWarm => &[],
        }
    }

    /// Store-buffer sizes the workload sweeps.
    pub fn sb_sizes(self) -> &'static [usize] {
        match self {
            Workload::SpecMem | Workload::SpecSb => &[14, 56],
            Workload::ParsecMt => &[14],
            Workload::ServeWarm => &[],
        }
    }

    /// The simulation budget of the workload's cells.
    pub fn budget(self) -> SimConfig {
        match self {
            Workload::SpecMem | Workload::SpecSb => SimConfig::paper_default(),
            Workload::ParsecMt | Workload::ServeWarm => SimConfig::quick(),
        }
    }

    /// The committed file the workload's results are checked against at
    /// [`GOLDEN_SEED`].
    pub fn reference_file(self) -> (&'static str, bool) {
        match self {
            Workload::SpecMem | Workload::SpecSb => (crate::refs::PAPER_GRID, false),
            Workload::ParsecMt => (crate::refs::PARSEC_EXPECTED, true),
            Workload::ServeWarm => (crate::refs::QUICK_GRID, false),
        }
    }
}

/// One simulation cell: an application under a full configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The application.
    pub app: AppProfile,
    /// The complete run configuration (policy, SB size, seed, budget).
    pub cfg: SimConfig,
}

impl Cell {
    /// `(app, policy label, effective SB)`, the key of its reference.
    pub fn id(&self) -> crate::refs::CellId {
        (
            self.app.name().to_string(),
            self.cfg.policy.label(),
            self.cfg.effective_sb(),
        )
    }

    /// `app/policy/sb`, for messages and spans.
    pub fn label(&self) -> String {
        let (app, policy, sb) = self.id();
        format!("{app}/{policy}/{sb}")
    }
}

/// The cells of a simulation workload, app-major, then policy, then SB
/// size.
///
/// # Errors
///
/// An application or policy name the simulator does not know.
pub fn cells(w: Workload) -> Result<Vec<Cell>, String> {
    let base = SimConfig {
        seed: GOLDEN_SEED,
        ..w.budget()
    };
    let mut out = Vec::new();
    for name in w.apps() {
        let app = AppProfile::by_name(name).map_err(|e| e.to_string())?;
        for policy in POLICIES {
            let policy = PolicyKind::parse(policy)?;
            for &sb in w.sb_sizes() {
                out.push(Cell {
                    app: app.clone(),
                    cfg: base.clone().with_policy(policy).with_sb(sb),
                });
            }
        }
    }
    Ok(out)
}

/// A splitmix64 stream that orders a workload's operations: each pass
/// over the cells, and each `serve_warm` job's cell list, is a fresh
/// permutation drawn from the benchmark seed.
#[derive(Debug, Clone)]
pub struct Shuffle(u64);

impl Shuffle {
    /// The stream of benchmark seed `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        spb_stats::hash::mix64(self.0)
    }

    /// Permutes `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }

    /// A fresh permutation of `0..n`.
    pub fn order(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        let e = Workload::parse("grid_mem").unwrap_err();
        assert!(e.contains("spec_mem") && e.contains("serve_warm"), "{e}");
    }

    #[test]
    fn cell_sets_have_the_documented_shape() {
        assert_eq!(cells(Workload::SpecMem).unwrap().len(), 16);
        assert_eq!(cells(Workload::SpecSb).unwrap().len(), 32);
        let parsec = cells(Workload::ParsecMt).unwrap();
        assert_eq!(parsec.len(), 10);
        assert!(parsec.iter().all(|c| c.app.threads() == 8));
        assert!(cells(Workload::ServeWarm).unwrap().is_empty());
        let c = &cells(Workload::SpecMem).unwrap()[0];
        assert_eq!(c.cfg.seed, GOLDEN_SEED);
        assert_eq!(c.label(), "mcf/at-commit/14");
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let (mut a, mut b, mut c) = (Shuffle::new(1), Shuffle::new(1), Shuffle::new(2));
        let first = a.order(32);
        assert_eq!(first, b.order(32));
        assert_ne!(first, c.order(32));
        assert_ne!(first, a.order(32), "each draw is a fresh permutation");
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }
}
