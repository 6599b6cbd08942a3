//! Application profiles standing in for SPEC CPU 2017 and PARSEC.
//!
//! The paper's evaluation is driven by which applications are *SB-bound*
//! (more than 2% of cycles stalled on a full 56-entry SB): `bwaves`,
//! `cactuBSSN`, `x264`, `blender`, `cam4`, `deepsjeng`, `fotonik3d` and
//! `roms` for SPEC; `bodytrack`, `dedup`, `ferret` and `x264` for PARSEC.
//! Each [`AppProfile`] here mixes the generator primitives so the
//! application lands in the paper's class and exhibits the stall *source*
//! Figure 3 attributes to it (memcpy vs memset/calloc vs kernel
//! `clear_page` vs application code).
//!
//! The profiles are syntheses, not the real benchmarks: absolute IPCs are
//! meaningless, but the relative behaviour under SB sizing and prefetch
//! policy — which is all the paper's figures plot — is preserved by
//! construction.

use crate::generators::ComputeParams;
use crate::phased::{PhaseSpec, PhasedWorkload};
use crate::region::CodeRegion;

/// Which benchmark suite a profile belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU 2017 (single-threaded rate runs).
    Spec2017,
    /// PARSEC 3.0 with 8 threads and `simlarge`-like behaviour.
    Parsec,
}

/// A synthetic stand-in for one benchmark application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    name: String,
    suite: Suite,
    sb_bound: bool,
    threads: u32,
    phases: Vec<PhaseSpec>,
}

impl AppProfile {
    /// Creates a profile from parts. Prefer the [`AppProfile::spec2017`]
    /// and [`AppProfile::parsec`] suites; this constructor exists for
    /// custom experiments.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or `threads` is zero.
    pub fn new(
        name: impl Into<String>,
        suite: Suite,
        sb_bound: bool,
        threads: u32,
        phases: Vec<PhaseSpec>,
    ) -> Self {
        assert!(threads > 0, "an application needs at least one thread");
        assert!(
            !phases.is_empty(),
            "an application needs at least one phase"
        );
        Self {
            name: name.into(),
            suite,
            sb_bound,
            threads,
            phases,
        }
    }

    /// The benchmark's name as used in the paper's figures.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The suite this application belongs to.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// Whether the paper classifies this application as SB-bound
    /// (>2% SB-induced stalls with a 56-entry SB at-commit baseline).
    pub fn is_sb_bound(&self) -> bool {
        self.sb_bound
    }

    /// Number of threads the application runs (1 for SPEC, 8 for PARSEC).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The phase list backing this profile.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Builds the single-threaded trace source (thread 0).
    pub fn build(&self, seed: u64) -> PhasedWorkload {
        PhasedWorkload::for_thread(self.phases.clone(), seed, 0)
    }

    /// Builds one trace source per thread for multi-threaded runs.
    pub fn build_threads(&self, seed: u64) -> Vec<PhasedWorkload> {
        (0..self.threads)
            .map(|t| PhasedWorkload::for_thread(self.phases.clone(), seed, t))
            .collect()
    }

    /// The full SPEC CPU 2017 suite (23 applications).
    ///
    /// Convenience for [`AppCatalog::standard`]`().suite(Suite::Spec2017)`.
    pub fn spec2017() -> Vec<AppProfile> {
        AppCatalog::standard().suite(Suite::Spec2017)
    }

    /// The SB-bound subset of SPEC CPU 2017, in the paper's order.
    pub fn spec2017_sb_bound() -> Vec<AppProfile> {
        AppCatalog::standard().sb_bound(Suite::Spec2017)
    }

    /// The PARSEC suite (11 applications; `freqmine` and `raytrace` are
    /// excluded exactly as in the paper).
    ///
    /// Convenience for [`AppCatalog::standard`]`().suite(Suite::Parsec)`.
    pub fn parsec() -> Vec<AppProfile> {
        AppCatalog::standard().suite(Suite::Parsec)
    }

    /// Looks up a profile by name in both suites.
    ///
    /// # Errors
    ///
    /// Returns an [`UnknownApp`] carrying the failed name and the full
    /// list of valid names (its `Display` puts them in the message, so
    /// `.unwrap()`/`?` give a usable diagnostic instead of a bare
    /// `None`).
    pub fn by_name(name: &str) -> Result<AppProfile, UnknownApp> {
        AppCatalog::standard().by_name(name).cloned()
    }
}

/// The catalog of every synthetic application, with suite grouping.
///
/// Owns the iteration and lookup that used to be scattered across
/// hard-coded lists: CLI commands, suite runners and experiment
/// regenerators all pull their application sets from here, so the one
/// place that knows which applications exist — and which of them the
/// paper calls SB-bound — is this type. [`AppProfile::spec2017`],
/// [`AppProfile::parsec`] and [`AppProfile::by_name`] remain as thin
/// conveniences over [`AppCatalog::standard`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppCatalog {
    apps: Vec<AppProfile>,
}

impl AppCatalog {
    /// The paper's evaluation set: SPEC CPU 2017 followed by PARSEC,
    /// each in the paper's figure order.
    pub fn standard() -> Self {
        let mut apps = spec2017_profiles();
        apps.extend(parsec_profiles());
        Self { apps }
    }

    /// Every application, SPEC first, in figure order.
    pub fn all(&self) -> &[AppProfile] {
        &self.apps
    }

    /// The applications of one suite, in figure order.
    pub fn suite(&self, suite: Suite) -> Vec<AppProfile> {
        self.apps
            .iter()
            .filter(|p| p.suite() == suite)
            .cloned()
            .collect()
    }

    /// Resolves a user-facing suite name (`"spec"`, `"spec2017"`,
    /// `"parsec"`) to its applications; `None` for unknown names.
    pub fn suite_named(&self, name: &str) -> Option<Vec<AppProfile>> {
        match name {
            "spec" | "spec2017" => Some(self.suite(Suite::Spec2017)),
            "parsec" => Some(self.suite(Suite::Parsec)),
            _ => None,
        }
    }

    /// The SB-bound subset of one suite, in figure order.
    pub fn sb_bound(&self, suite: Suite) -> Vec<AppProfile> {
        self.apps
            .iter()
            .filter(|p| p.suite() == suite && p.is_sb_bound())
            .cloned()
            .collect()
    }

    /// Looks an application up by name.
    ///
    /// # Errors
    ///
    /// Returns an [`UnknownApp`] listing every valid name.
    pub fn by_name(&self, name: &str) -> Result<&AppProfile, UnknownApp> {
        self.apps
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| UnknownApp {
                name: name.to_string(),
                valid: self.names().iter().map(ToString::to_string).collect(),
            })
    }

    /// Every application name, in catalog order.
    pub fn names(&self) -> Vec<&str> {
        self.apps.iter().map(|p| p.name.as_str()).collect()
    }
}

/// The error [`AppProfile::by_name`] returns for a name that matches no
/// application in either suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownApp {
    /// The name that failed to resolve.
    pub name: String,
    /// Every valid application name (SPEC 2017 first, then PARSEC).
    pub valid: Vec<String>,
}

impl std::fmt::Display for UnknownApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown application {:?}; valid names: {}",
            self.name,
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownApp {}

/// Compute filler with "typical" behaviour.
fn compute(count: u64, fp_ratio: f64, mispredict_rate: f64) -> PhaseSpec {
    PhaseSpec::Compute(ComputeParams {
        count,
        fp_ratio,
        mispredict_rate,
        branch_every: 6,
        dep_density: 0.4,
    })
}

/// A big footprint that never fits in the 16 MiB L3, so data-movement
/// phases keep missing all the way to memory (compulsory misses), which
/// is what exposes store latency and fills the SB.
const BIG_FOOTPRINT_PAGES: u64 = 1 << 15; // 128 MiB

/// A small, cache-resident pool for latency-bound pointer chasing.
const SMALL_POOL_PAGES: u64 = 256; // 1 MiB
fn spec2017_profiles() -> Vec<AppProfile> {
    use CodeRegion::*;
    let mut v = Vec::new();
    let app = |name: &str, sb: bool, phases: Vec<PhaseSpec>| {
        AppProfile::new(name, Suite::Spec2017, sb, 1, phases)
    };

    // ---- SB-bound applications (paper SectionV) --------------------------
    // Burst intensities are calibrated so the at-commit SB56 baseline
    // shows a few percent of SB-induced stalls (the paper's >2%
    // SB-bound criterion) and small SBs hurt roughly as Figure 6 shows:
    // bwaves/x264/fotonik3d/roms severely, the others mildly.

    // bwaves: FP stencil; the OS hands it fresh pages it then fills —
    // kernel clear_page bursts (Figure 3) plus FP streaming.
    v.push(app(
        "bwaves",
        true,
        vec![
            compute(48000, 0.7, 0.004),
            PhaseSpec::ClearPages {
                pages: 4,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
            PhaseSpec::StrideLoads {
                count: 700,
                stride: 8,
                fp: true,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
            compute(32000, 0.7, 0.004),
        ],
    ));

    // cactuBSSN: grid relaxation with calloc'd buffers; mild bursts.
    v.push(app(
        "cactuBSSN",
        true,
        vec![
            compute(64000, 0.8, 0.003),
            PhaseSpec::Memset {
                bytes: 4096,
                region: Calloc,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
            PhaseSpec::StrideLoads {
                count: 1000,
                stride: 8,
                fp: true,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
            compute(32000, 0.8, 0.003),
        ],
    ));

    // x264: motion compensation memcpy's frames around — the canonical
    // library-located store burst; severely hurt by small SBs.
    v.push(app(
        "x264",
        true,
        vec![
            compute(44000, 0.2, 0.012),
            PhaseSpec::Memcpy {
                bytes: 10240,
                region: Memcpy,
                footprint_pages: BIG_FOOTPRINT_PAGES,
                shuffle: false,
            },
            compute(28000, 0.2, 0.012),
            PhaseSpec::StrideLoads {
                count: 400,
                stride: 16,
                fp: false,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
        ],
    ));

    // blender: render buffers memcpy'd between passes; mild.
    v.push(app(
        "blender",
        true,
        vec![
            compute(72000, 0.5, 0.008),
            PhaseSpec::Memcpy {
                bytes: 8192,
                region: Memcpy,
                footprint_pages: BIG_FOOTPRINT_PAGES,
                shuffle: false,
            },
            compute(40000, 0.5, 0.008),
            PhaseSpec::PointerChase {
                count: 200,
                pool_pages: SMALL_POOL_PAGES,
            },
        ],
    ));

    // cam4: memset of accumulation arrays plus halo-exchange memcpy; mild.
    v.push(app(
        "cam4",
        true,
        vec![
            compute(56000, 0.7, 0.005),
            PhaseSpec::Memset {
                bytes: 4096,
                region: Memset,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
            compute(32000, 0.7, 0.005),
            PhaseSpec::Memcpy {
                bytes: 2048,
                region: Memcpy,
                footprint_pages: BIG_FOOTPRINT_PAGES,
                shuffle: false,
            },
        ],
    ));

    // deepsjeng: hand-written "for"-loop copies in application code
    // (SectionIII-D: does not rely on library calls); mild.
    v.push(app(
        "deepsjeng",
        true,
        vec![
            compute(48000, 0.05, 0.02),
            PhaseSpec::Memcpy {
                bytes: 8192,
                region: Application,
                footprint_pages: BIG_FOOTPRINT_PAGES,
                shuffle: false,
            },
            PhaseSpec::PointerChase {
                count: 300,
                pool_pages: SMALL_POOL_PAGES,
            },
            compute(32000, 0.05, 0.02),
        ],
    ));

    // fotonik3d: FDTD field arrays zeroed on allocation (kernel +
    // calloc) then streamed; severely hurt by small SBs, big SPB winner.
    v.push(app(
        "fotonik3d",
        true,
        vec![
            compute(60000, 0.8, 0.003),
            PhaseSpec::StrideLoads {
                count: 700,
                stride: 8,
                fp: true,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
            PhaseSpec::Memset {
                bytes: 8192,
                region: Calloc,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
            compute(32000, 0.8, 0.003),
        ],
    ));

    // roms: the pathological case. Loop unrolling interleaves stores
    // from several array streams in application code; SPB's page bursts
    // for every stream evict live data (L1 conflict misses, SectionVI-A)
    // that the re-referenced stride loads immediately miss on.
    v.push(app(
        "roms",
        true,
        vec![
            compute(40000, 0.75, 0.004),
            PhaseSpec::MultiStreamCopy {
                streams: 4,
                bytes_per_stream: 4096,
                chunk_blocks: 8,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
            PhaseSpec::StrideLoads {
                count: 900,
                stride: 8,
                fp: true,
                footprint_pages: 10,
            },
            compute(24000, 0.75, 0.004),
        ],
    ));

    // ---- non-SB-bound applications --------------------------------------

    // perlbench: branchy interpreter, pointer-heavy, tiny copies.
    v.push(app(
        "perlbench",
        false,
        vec![
            compute(6000, 0.02, 0.03),
            PhaseSpec::PointerChase {
                count: 400,
                pool_pages: SMALL_POOL_PAGES,
            },
            PhaseSpec::SparseStores {
                count: 150,
                footprint_pages: 4,
                gap: 6,
            },
            PhaseSpec::Memcpy {
                bytes: 384,
                region: Memcpy,
                footprint_pages: 1024,
                shuffle: false,
            },
        ],
    ));

    // gcc: allocation-heavy but short-lived objects, mostly resident.
    v.push(app(
        "gcc",
        false,
        vec![
            compute(5000, 0.02, 0.025),
            PhaseSpec::PointerChase {
                count: 350,
                pool_pages: SMALL_POOL_PAGES,
            },
            PhaseSpec::Memset {
                bytes: 512,
                region: Calloc,
                footprint_pages: 16,
            },
            PhaseSpec::SparseStores {
                count: 200,
                footprint_pages: 4,
                gap: 5,
            },
        ],
    ));

    // mcf: the classic memory-latency benchmark — dependent loads.
    v.push(app(
        "mcf",
        false,
        vec![
            compute(1500, 0.05, 0.02),
            PhaseSpec::PointerChase {
                count: 900,
                pool_pages: 1 << 14,
            },
            PhaseSpec::SparseStores {
                count: 120,
                footprint_pages: 4,
                gap: 8,
            },
        ],
    ));

    // omnetpp: discrete event simulation, pointer chasing + small writes.
    v.push(app(
        "omnetpp",
        false,
        vec![
            compute(3000, 0.05, 0.025),
            PhaseSpec::PointerChase {
                count: 600,
                pool_pages: 1 << 12,
            },
            PhaseSpec::SparseStores {
                count: 180,
                footprint_pages: 4,
                gap: 6,
            },
        ],
    ));

    // xalancbmk: XML transform; string handling with small copies.
    v.push(app(
        "xalancbmk",
        false,
        vec![
            compute(4200, 0.02, 0.028),
            PhaseSpec::Memcpy {
                bytes: 384,
                region: Memcpy,
                footprint_pages: 2048,
                shuffle: false,
            },
            PhaseSpec::PointerChase {
                count: 450,
                pool_pages: 2048,
            },
        ],
    ));

    // exchange2: pure integer compute.
    v.push(app(
        "exchange2",
        false,
        vec![
            compute(9000, 0.0, 0.015),
            PhaseSpec::SparseStores {
                count: 80,
                footprint_pages: 2,
                gap: 10,
            },
        ],
    ));

    // xz: compression; match-finding loads dominate, stores sparse.
    v.push(app(
        "xz",
        false,
        vec![
            compute(3500, 0.02, 0.02),
            PhaseSpec::StrideLoads {
                count: 800,
                stride: 32,
                fp: false,
                footprint_pages: 1 << 13,
            },
            PhaseSpec::SparseStores {
                count: 200,
                footprint_pages: 4,
                gap: 6,
            },
        ],
    ));

    // leela: MCTS game tree, branchy with small random accesses.
    v.push(app(
        "leela",
        false,
        vec![
            compute(5200, 0.05, 0.03),
            PhaseSpec::PointerChase {
                count: 380,
                pool_pages: SMALL_POOL_PAGES,
            },
            PhaseSpec::SparseStores {
                count: 120,
                footprint_pages: 4,
                gap: 7,
            },
        ],
    ));

    // namd: FP-dense molecular dynamics on cache-blocked data.
    v.push(app(
        "namd",
        false,
        vec![
            compute(7000, 0.85, 0.002),
            PhaseSpec::StrideLoads {
                count: 900,
                stride: 8,
                fp: true,
                footprint_pages: 512,
            },
            PhaseSpec::SparseStores {
                count: 140,
                footprint_pages: 4,
                gap: 6,
            },
        ],
    ));

    // parest: FE solver, sparse matrix loads.
    v.push(app(
        "parest",
        false,
        vec![
            compute(4800, 0.8, 0.004),
            PhaseSpec::StrideLoads {
                count: 700,
                stride: 24,
                fp: true,
                footprint_pages: 1 << 12,
            },
            PhaseSpec::SparseStores {
                count: 150,
                footprint_pages: 4,
                gap: 6,
            },
        ],
    ));

    // povray: ray tracer, almost pure FP compute.
    v.push(app(
        "povray",
        false,
        vec![
            compute(8500, 0.75, 0.006),
            PhaseSpec::PointerChase {
                count: 180,
                pool_pages: 128,
            },
        ],
    ));

    // lbm: streaming FP loads with strided writes the stride prefetcher
    // and at-commit policy already cover well.
    v.push(app(
        "lbm",
        false,
        vec![
            compute(1800, 0.85, 0.002),
            PhaseSpec::StrideLoads {
                count: 1100,
                stride: 8,
                fp: true,
                footprint_pages: BIG_FOOTPRINT_PAGES,
            },
            PhaseSpec::SparseStores {
                count: 250,
                footprint_pages: 4,
                gap: 6,
            },
        ],
    ));

    // wrf: weather model, FP compute over resident tiles.
    v.push(app(
        "wrf",
        false,
        vec![
            compute(5600, 0.8, 0.003),
            PhaseSpec::StrideLoads {
                count: 650,
                stride: 8,
                fp: true,
                footprint_pages: 2048,
            },
            PhaseSpec::Memset {
                bytes: 512,
                region: Memset,
                footprint_pages: 16,
            },
        ],
    ));

    // imagick: image filters on resident rows.
    v.push(app(
        "imagick",
        false,
        vec![
            compute(6200, 0.6, 0.004),
            PhaseSpec::StrideLoads {
                count: 800,
                stride: 8,
                fp: true,
                footprint_pages: 1024,
            },
            PhaseSpec::SparseStores {
                count: 220,
                footprint_pages: 4,
                gap: 5,
            },
        ],
    ));

    // nab: molecular modelling, FP compute dominated.
    v.push(app(
        "nab",
        false,
        vec![
            compute(7400, 0.8, 0.003),
            PhaseSpec::StrideLoads {
                count: 500,
                stride: 8,
                fp: true,
                footprint_pages: 512,
            },
            PhaseSpec::SparseStores {
                count: 130,
                footprint_pages: 4,
                gap: 7,
            },
        ],
    ));

    v
}

fn parsec_profiles() -> Vec<AppProfile> {
    use CodeRegion::*;
    let mut v = Vec::new();
    let app = |name: &str, sb: bool, phases: Vec<PhaseSpec>| {
        AppProfile::new(name, Suite::Parsec, sb, 8, phases)
    };

    // ---- SB-bound PARSEC applications -----------------------------------

    // bodytrack: per-frame image buffers copied and zeroed per thread.
    v.push(app(
        "bodytrack",
        true,
        vec![
            compute(40000, 0.4, 0.01),
            PhaseSpec::Memcpy {
                bytes: 8192,
                region: Memcpy,
                footprint_pages: 1 << 13,
                shuffle: false,
            },
            compute(24000, 0.4, 0.01),
            PhaseSpec::Memset {
                bytes: 4096,
                region: Memset,
                footprint_pages: 1 << 13,
            },
        ],
    ));

    // dedup: pipeline stages hand chunks around with memcpy.
    v.push(app(
        "dedup",
        true,
        vec![
            compute(36000, 0.05, 0.015),
            PhaseSpec::Memcpy {
                bytes: 16384,
                region: Memcpy,
                footprint_pages: 1 << 14,
                shuffle: false,
            },
            PhaseSpec::PointerChase {
                count: 300,
                pool_pages: 512,
            },
            compute(24000, 0.05, 0.015),
        ],
    ));

    // ferret: feature vectors copied between pipeline queues.
    v.push(app(
        "ferret",
        true,
        vec![
            compute(44000, 0.5, 0.012),
            PhaseSpec::Memcpy {
                bytes: 8192,
                region: Memcpy,
                footprint_pages: 1 << 13,
                shuffle: false,
            },
            PhaseSpec::StrideLoads {
                count: 500,
                stride: 8,
                fp: true,
                footprint_pages: 1 << 13,
            },
            compute(28000, 0.5, 0.012),
        ],
    ));

    // x264 (PARSEC build): same frame-copy behaviour as the SPEC one.
    v.push(app(
        "x264",
        true,
        vec![
            compute(36000, 0.2, 0.012),
            PhaseSpec::Memcpy {
                bytes: 16384,
                region: Memcpy,
                footprint_pages: 1 << 14,
                shuffle: false,
            },
            compute(28000, 0.2, 0.012),
        ],
    ));

    // ---- non-SB-bound PARSEC applications --------------------------------

    v.push(app(
        "blackscholes",
        false,
        vec![
            compute(6000, 0.85, 0.002),
            PhaseSpec::StrideLoads {
                count: 700,
                stride: 8,
                fp: true,
                footprint_pages: 1024,
            },
            PhaseSpec::SparseStores {
                count: 150,
                footprint_pages: 4,
                gap: 6,
            },
        ],
    ));

    v.push(app(
        "canneal",
        false,
        vec![
            compute(1800, 0.1, 0.02),
            PhaseSpec::PointerChase {
                count: 800,
                pool_pages: 1 << 14,
            },
            PhaseSpec::SparseStores {
                count: 200,
                footprint_pages: 4,
                gap: 5,
            },
        ],
    ));

    v.push(app(
        "facesim",
        false,
        vec![
            compute(5200, 0.8, 0.004),
            PhaseSpec::StrideLoads {
                count: 600,
                stride: 8,
                fp: true,
                footprint_pages: 2048,
            },
            PhaseSpec::Memset {
                bytes: 512,
                region: Memset,
                footprint_pages: 2048,
            },
        ],
    ));

    v.push(app(
        "fluidanimate",
        false,
        vec![
            compute(4600, 0.75, 0.006),
            PhaseSpec::StrideLoads {
                count: 700,
                stride: 16,
                fp: true,
                footprint_pages: 2048,
            },
            PhaseSpec::SparseStores {
                count: 250,
                footprint_pages: 4,
                gap: 6,
            },
        ],
    ));

    v.push(app(
        "streamcluster",
        false,
        vec![
            compute(3000, 0.7, 0.004),
            PhaseSpec::StrideLoads {
                count: 1000,
                stride: 8,
                fp: true,
                footprint_pages: 1 << 13,
            },
            PhaseSpec::SparseStores {
                count: 180,
                footprint_pages: 4,
                gap: 6,
            },
        ],
    ));

    v.push(app(
        "swaptions",
        false,
        vec![
            compute(8000, 0.8, 0.003),
            PhaseSpec::SparseStores {
                count: 120,
                footprint_pages: 2,
                gap: 8,
            },
        ],
    ));

    v.push(app(
        "vips",
        false,
        vec![
            compute(4800, 0.55, 0.006),
            PhaseSpec::StrideLoads {
                count: 700,
                stride: 8,
                fp: true,
                footprint_pages: 2048,
            },
            PhaseSpec::Memcpy {
                bytes: 384,
                region: Memcpy,
                footprint_pages: 2048,
                shuffle: false,
            },
        ],
    ));

    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpKind, TraceSource};

    #[test]
    fn spec_suite_has_23_apps_and_paper_sb_bound_set() {
        let suite = AppProfile::spec2017();
        assert_eq!(suite.len(), 23);
        let sb: Vec<&str> = suite
            .iter()
            .filter(|p| p.is_sb_bound())
            .map(|p| p.name())
            .collect();
        assert_eq!(
            sb,
            [
                "bwaves",
                "cactuBSSN",
                "x264",
                "blender",
                "cam4",
                "deepsjeng",
                "fotonik3d",
                "roms"
            ]
        );
    }

    #[test]
    fn parsec_suite_has_11_apps_and_paper_sb_bound_set() {
        let suite = AppProfile::parsec();
        assert_eq!(suite.len(), 11);
        let sb: Vec<&str> = suite
            .iter()
            .filter(|p| p.is_sb_bound())
            .map(|p| p.name())
            .collect();
        assert_eq!(sb, ["bodytrack", "dedup", "ferret", "x264"]);
        assert!(suite.iter().all(|p| p.threads() == 8));
        for excluded in ["freqmine", "raytrace"] {
            assert!(suite.iter().all(|p| p.name() != excluded));
        }
    }

    #[test]
    fn by_name_finds_spec_apps() {
        assert!(AppProfile::by_name("roms").is_ok());
        let err = AppProfile::by_name("nonexistent").unwrap_err();
        assert_eq!(err.name, "nonexistent");
        let msg = err.to_string();
        assert!(msg.contains("unknown application"), "{msg}");
        assert!(msg.contains("roms"), "lists valid names: {msg}");
        assert!(msg.contains("dedup"), "lists PARSEC names too: {msg}");
    }

    #[test]
    fn every_profile_generates_ops() {
        for p in AppProfile::spec2017()
            .iter()
            .chain(AppProfile::parsec().iter())
        {
            let mut src = p.build(1);
            for _ in 0..1000 {
                assert!(
                    src.next_op().is_some(),
                    "{} stopped producing ops",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn sb_bound_profiles_have_more_burst_stores() {
        // Count stores in 200k ops; SB-bound profiles must have a clearly
        // higher contiguous-store density than, say, povray.
        let density = |name: &str| {
            let p = AppProfile::by_name(name).unwrap();
            let mut src = p.build(3);
            let mut stores = 0u64;
            let mut contiguous = 0u64;
            let mut last_block = u64::MAX - 10;
            for _ in 0..200_000 {
                let op = src.next_op().unwrap();
                if let OpKind::Store { addr, .. } = op.kind() {
                    stores += 1;
                    let b = addr / 64;
                    if b == last_block || b == last_block + 1 {
                        contiguous += 1;
                    }
                    last_block = b;
                }
            }
            contiguous as f64 / stores.max(1) as f64
        };
        assert!(density("bwaves") > 0.5);
        assert!(density("x264") > 0.5);
        assert!(density("povray") < 0.2);
        assert!(density("mcf") < 0.2);
    }

    #[test]
    fn multithreaded_build_yields_one_source_per_thread() {
        let p = AppProfile::by_name("dedup").unwrap();
        let sources = p.build_threads(5);
        assert_eq!(sources.len(), 8);
    }

    #[test]
    fn profiles_are_deterministic() {
        let p = AppProfile::by_name("gcc").unwrap();
        let mut a = p.build(9);
        let mut b = p.build(9);
        for _ in 0..5_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_profile_rejected() {
        let _ = AppProfile::new("empty", Suite::Spec2017, false, 1, vec![]);
    }

    #[test]
    fn catalog_groups_suites_and_resolves_names() {
        let catalog = AppCatalog::standard();
        assert_eq!(catalog.suite(Suite::Spec2017).len(), 23);
        assert_eq!(catalog.suite(Suite::Parsec).len(), 11);
        assert_eq!(
            catalog.all().len(),
            catalog.suite(Suite::Spec2017).len() + catalog.suite(Suite::Parsec).len()
        );
        assert_eq!(
            catalog.suite_named("spec").unwrap(),
            catalog.suite_named("spec2017").unwrap()
        );
        assert!(catalog.suite_named("splash").is_none());
        assert_eq!(catalog.by_name("x264").unwrap().name(), "x264");
        let err = catalog.by_name("quake").unwrap_err();
        assert!(err.to_string().contains("valid names"));
        // The paper's SB-bound SPEC set, in order.
        let sb: Vec<_> = catalog
            .sb_bound(Suite::Spec2017)
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        assert_eq!(
            sb,
            [
                "bwaves",
                "cactuBSSN",
                "x264",
                "blender",
                "cam4",
                "deepsjeng",
                "fotonik3d",
                "roms"
            ]
        );
    }

    #[test]
    fn app_profile_conveniences_delegate_to_the_catalog() {
        let catalog = AppCatalog::standard();
        assert_eq!(AppProfile::spec2017(), catalog.suite(Suite::Spec2017));
        assert_eq!(AppProfile::parsec(), catalog.suite(Suite::Parsec));
        assert_eq!(
            AppProfile::spec2017_sb_bound(),
            catalog.sb_bound(Suite::Spec2017)
        );
    }
}
