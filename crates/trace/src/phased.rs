//! Phase composition: stringing primitive generators into an application.
//!
//! A real SPEC application alternates between compute and data-movement
//! phases. [`PhaseSpec`] describes one phase declaratively (so profiles
//! are data, serializable and testable); [`PhasedWorkload`] instantiates
//! the specs in order and loops the whole list forever — the simulator's
//! region of interest. On every outer iteration the data-movement phases
//! advance through a large footprint so their stores keep missing in the
//! cache hierarchy, like a real application touching fresh data.

use crate::generators::{
    ClearPageGen, ComputeGen, ComputeParams, MemcpyGen, MemsetGen, MultiStreamCopyGen,
    PointerChaseGen, SparseStoreGen, StrideLoadGen,
};
use crate::op::PAGE_BYTES;
use crate::region::{AddressSpace, CodeRegion};
use crate::{MicroOp, TraceSource};

/// Declarative description of one workload phase.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseSpec {
    /// A `memcpy(dst, src, bytes)` through the C library (or, with
    /// `shuffle`, a manually unrolled copy loop in application code whose
    /// intra-block order the compiler permuted).
    Memcpy {
        /// Bytes copied per call.
        bytes: u64,
        /// Attributed code region (`Memcpy` or `Application`).
        region: CodeRegion,
        /// Total pages the copy walks across outer iterations.
        footprint_pages: u64,
        /// Permute the 8 accesses within each block.
        shuffle: bool,
    },
    /// A `memset`/`calloc`-style zeroing burst.
    Memset {
        /// Bytes set per call.
        bytes: u64,
        /// Attributed code region (`Memset` or `Calloc`).
        region: CodeRegion,
        /// Total pages walked across outer iterations.
        footprint_pages: u64,
    },
    /// Kernel `clear_page` on first-touch of freshly mapped pages.
    ClearPages {
        /// Pages cleared per iteration.
        pages: u64,
        /// Total pages walked across outer iterations.
        footprint_pages: u64,
    },
    /// Interleaved multi-stream copy (the `roms` unrolling pattern).
    MultiStreamCopy {
        /// Number of concurrent streams.
        streams: u32,
        /// Bytes copied per stream per iteration.
        bytes_per_stream: u64,
        /// Blocks copied from one stream before switching.
        chunk_blocks: u64,
        /// Total pages walked per stream across iterations.
        footprint_pages: u64,
    },
    /// Strided loads (vector kernel).
    StrideLoads {
        /// Loads per iteration.
        count: u64,
        /// Stride in bytes.
        stride: u64,
        /// Floating-point companion compute.
        fp: bool,
        /// Total pages walked across outer iterations.
        footprint_pages: u64,
    },
    /// Dependent random loads (pointer chasing).
    PointerChase {
        /// Loads per iteration.
        count: u64,
        /// Pool size in pages.
        pool_pages: u64,
    },
    /// ALU-dominated compute.
    Compute(ComputeParams),
    /// Sparse random stores that must not look like a burst.
    SparseStores {
        /// Stores per iteration.
        count: u64,
        /// Footprint in pages.
        footprint_pages: u64,
        /// Compute µops between stores.
        gap: u32,
    },
}

impl PhaseSpec {
    /// Builds the generator for outer-loop iteration `iteration` of
    /// thread `thread_id`, deterministic under `seed`.
    pub fn build(&self, iteration: u64, seed: u64, thread_id: u32) -> PhaseGen {
        let t_off = u64::from(thread_id) * AddressSpace::THREAD_STRIDE;
        let phase_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(iteration)
            .wrapping_add(u64::from(thread_id) << 32);
        // Walk the footprint so successive iterations touch fresh data
        // until the footprint wraps. Each iteration starts on a fresh
        // page *past* the previous iteration's last page: real
        // `memcpy`/`memset` calls hit distinct buffers, so a page burst
        // from call k must not have already covered call k+1's data.
        let walk = |bytes: u64, footprint_pages: u64| -> u64 {
            let span = bytes.div_ceil(PAGE_BYTES) * PAGE_BYTES + PAGE_BYTES;
            let fp = (footprint_pages.max(1)) * PAGE_BYTES;
            (iteration * span) % fp
        };
        match *self {
            PhaseSpec::Memcpy {
                bytes,
                region,
                footprint_pages,
                shuffle,
            } => {
                let off = walk(bytes, footprint_pages);
                // Copy *sources* are recently produced data (frames,
                // buffers) and are cache-resident in the real
                // applications; only the destinations walk fresh memory.
                // A DRAM-missing source would gate store commits on load
                // latency, which is not the phenomenon under study.
                let src_resident = 8 * PAGE_BYTES; // small hot buffer, warms in 2-3 calls
                let src = AddressSpace::ARENA_BASE + t_off + off % src_resident;
                let dst = AddressSpace::HEAP_BASE + t_off + off;
                let g = MemcpyGen::new(src, dst, bytes, region, phase_seed);
                PhaseGen::Memcpy(if shuffle {
                    g.with_intra_block_shuffle()
                } else {
                    g
                })
            }
            PhaseSpec::Memset {
                bytes,
                region,
                footprint_pages,
            } => {
                let off = walk(bytes, footprint_pages);
                PhaseGen::Memset(MemsetGen::new(
                    AddressSpace::HEAP_BASE + t_off + off,
                    bytes,
                    region,
                    phase_seed,
                ))
            }
            PhaseSpec::ClearPages {
                pages,
                footprint_pages,
            } => {
                let off = walk(pages * PAGE_BYTES, footprint_pages);
                let base = AddressSpace::DATA_BASE + t_off + off;
                let aligned = base - base % PAGE_BYTES;
                PhaseGen::ClearPages(ClearPageGen::new(aligned, pages, phase_seed))
            }
            PhaseSpec::MultiStreamCopy {
                streams,
                bytes_per_stream,
                chunk_blocks,
                footprint_pages,
            } => {
                let off = walk(bytes_per_stream, footprint_pages);
                let stream_spacing = footprint_pages.max(1) * PAGE_BYTES;
                let src_resident = 8 * PAGE_BYTES; // per-stream hot source buffer
                let pairs: Vec<(u64, u64)> = (0..streams.max(1) as u64)
                    .map(|s| {
                        (
                            AddressSpace::ARENA_BASE
                                + t_off
                                + s * stream_spacing
                                + off % src_resident,
                            AddressSpace::HEAP_BASE + t_off + s * stream_spacing + off,
                        )
                    })
                    .collect();
                PhaseGen::MultiStreamCopy(MultiStreamCopyGen::new(
                    pairs,
                    bytes_per_stream,
                    chunk_blocks,
                    phase_seed,
                ))
            }
            PhaseSpec::StrideLoads {
                count,
                stride,
                fp,
                footprint_pages,
            } => {
                let off = walk(count * stride, footprint_pages);
                PhaseGen::StrideLoads(StrideLoadGen::new(
                    AddressSpace::DATA_BASE + t_off + off,
                    stride,
                    count,
                    fp,
                    phase_seed,
                ))
            }
            PhaseSpec::PointerChase { count, pool_pages } => {
                PhaseGen::PointerChase(PointerChaseGen::new(
                    AddressSpace::POOL_BASE + t_off,
                    pool_pages.max(1) * (PAGE_BYTES / 64),
                    count,
                    phase_seed,
                ))
            }
            PhaseSpec::Compute(params) => PhaseGen::Compute(ComputeGen::new(params, phase_seed)),
            PhaseSpec::SparseStores {
                count,
                footprint_pages,
                gap,
            } => PhaseGen::SparseStores(SparseStoreGen::new(
                AddressSpace::HEAP_BASE + t_off,
                footprint_pages.max(1) * (PAGE_BYTES / 64),
                count,
                gap,
                phase_seed,
            )),
        }
    }
}

/// The generator of one phase, one variant per [`PhaseSpec`] kind: a
/// phase costs no allocation of its own and its µops no virtual call.
#[derive(Debug)]
pub enum PhaseGen {
    /// [`PhaseSpec::Memcpy`].
    Memcpy(MemcpyGen),
    /// [`PhaseSpec::Memset`].
    Memset(MemsetGen),
    /// [`PhaseSpec::ClearPages`].
    ClearPages(ClearPageGen),
    /// [`PhaseSpec::MultiStreamCopy`].
    MultiStreamCopy(MultiStreamCopyGen),
    /// [`PhaseSpec::StrideLoads`].
    StrideLoads(StrideLoadGen),
    /// [`PhaseSpec::PointerChase`].
    PointerChase(PointerChaseGen),
    /// [`PhaseSpec::Compute`].
    Compute(ComputeGen),
    /// [`PhaseSpec::SparseStores`].
    SparseStores(SparseStoreGen),
}

/// Evaluates `$call` with `$g` bound to whichever generator `$gen` holds.
macro_rules! on_phase_gen {
    ($gen:expr, $g:ident => $call:expr) => {
        match $gen {
            PhaseGen::Memcpy($g) => $call,
            PhaseGen::Memset($g) => $call,
            PhaseGen::ClearPages($g) => $call,
            PhaseGen::MultiStreamCopy($g) => $call,
            PhaseGen::StrideLoads($g) => $call,
            PhaseGen::PointerChase($g) => $call,
            PhaseGen::Compute($g) => $call,
            PhaseGen::SparseStores($g) => $call,
        }
    };
}

impl TraceSource for PhaseGen {
    fn next_op(&mut self) -> Option<MicroOp> {
        on_phase_gen!(self, g => g.next_op())
    }

    fn fill(&mut self, out: &mut [MicroOp]) -> usize {
        on_phase_gen!(self, g => g.fill(out))
    }
}

/// An unbounded trace source that cycles a list of [`PhaseSpec`]s.
///
/// # Examples
///
/// ```
/// use spb_trace::{phased::PhaseSpec, CodeRegion, PhasedWorkload, TraceSource};
///
/// let mut w = PhasedWorkload::new(
///     vec![PhaseSpec::Memset { bytes: 4096, region: CodeRegion::Memset, footprint_pages: 64 }],
///     7,
/// );
/// for _ in 0..10_000 {
///     assert!(w.next_op().is_some(), "phased workloads never end");
/// }
/// ```
pub struct PhasedWorkload {
    specs: Vec<PhaseSpec>,
    seed: u64,
    thread_id: u32,
    phase_idx: usize,
    iteration: u64,
    /// The generator of phase `phase_idx` of outer iteration `iteration`.
    current: PhaseGen,
}

impl std::fmt::Debug for PhasedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhasedWorkload")
            .field("specs", &self.specs.len())
            .field("seed", &self.seed)
            .field("thread_id", &self.thread_id)
            .field("phase_idx", &self.phase_idx)
            .field("iteration", &self.iteration)
            .finish()
    }
}

impl PhasedWorkload {
    /// Creates a workload cycling `specs` forever, deterministic under
    /// `seed`, for thread 0.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: Vec<PhaseSpec>, seed: u64) -> Self {
        Self::for_thread(specs, seed, 0)
    }

    /// Like [`PhasedWorkload::new`] but with an explicit thread id, which
    /// offsets all private data regions (PARSEC mode).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn for_thread(specs: Vec<PhaseSpec>, seed: u64, thread_id: u32) -> Self {
        assert!(!specs.is_empty(), "a workload needs at least one phase");
        let current = specs[0].build(0, seed, thread_id);
        Self {
            specs,
            seed,
            thread_id,
            phase_idx: 0,
            iteration: 0,
            current,
        }
    }

    /// Number of completed outer iterations of the phase list.
    pub fn iterations(&self) -> u64 {
        self.iteration
    }

    /// Moves on to the next phase once the current one is exhausted.
    fn next_phase(&mut self) {
        self.phase_idx += 1;
        if self.phase_idx == self.specs.len() {
            self.phase_idx = 0;
            self.iteration += 1;
        }
        self.current = self.specs[self.phase_idx].build(self.iteration, self.seed, self.thread_id);
    }
}

impl TraceSource for PhasedWorkload {
    fn next_op(&mut self) -> Option<MicroOp> {
        loop {
            if let Some(op) = self.current.next_op() {
                return Some(op);
            }
            self.next_phase();
        }
    }

    /// Fills `out` completely, a whole phase at a time: each phase's
    /// generator writes its own tight batch, and the workload only steps
    /// in at phase boundaries.
    fn fill(&mut self, out: &mut [MicroOp]) -> usize {
        let mut n = 0;
        while n < out.len() {
            match self.current.fill(&mut out[n..]) {
                0 => self.next_phase(),
                k => n += k,
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn take(w: &mut PhasedWorkload, n: usize) -> Vec<MicroOp> {
        (0..n).map(|_| w.next_op().unwrap()).collect()
    }

    #[test]
    fn workload_cycles_phases_forever() {
        let mut w = PhasedWorkload::new(
            vec![
                PhaseSpec::Memset {
                    bytes: 256,
                    region: CodeRegion::Memset,
                    footprint_pages: 4,
                },
                PhaseSpec::Compute(ComputeParams {
                    count: 10,
                    ..Default::default()
                }),
            ],
            1,
        );
        let ops = take(&mut w, 5_000);
        assert_eq!(ops.len(), 5_000);
        assert!(w.iterations() > 10);
    }

    #[test]
    fn footprint_walks_across_iterations_then_wraps() {
        let spec = PhaseSpec::Memset {
            bytes: 4096,
            region: CodeRegion::Memset,
            footprint_pages: 4,
        };
        let first_store_addr = |iter: u64| {
            let mut g = spec.build(iter, 9, 0);
            loop {
                let op = g.next_op().unwrap();
                if let OpKind::Store { addr, .. } = op.kind() {
                    return addr;
                }
            }
        };
        // A 4096-byte memset spans one page plus a one-page guard gap, so
        // successive iterations start two pages apart.
        let a0 = first_store_addr(0);
        let a1 = first_store_addr(1);
        let a2 = first_store_addr(2);
        assert_eq!(a1 - a0, 2 * 4096);
        assert_eq!(a2, a0, "footprint of 4 pages must wrap after 2 iterations");
    }

    #[test]
    fn threads_use_disjoint_private_regions() {
        let spec = PhaseSpec::Memset {
            bytes: 4096,
            region: CodeRegion::Memset,
            footprint_pages: 1,
        };
        let addr_of = |tid: u32| {
            let mut g = spec.build(0, 9, tid);
            loop {
                if let OpKind::Store { addr, .. } = g.next_op().unwrap().kind() {
                    return addr;
                }
            }
        };
        let d = addr_of(1) - addr_of(0);
        assert_eq!(d, AddressSpace::THREAD_STRIDE);
    }

    #[test]
    fn deterministic_under_seed() {
        let specs = vec![
            PhaseSpec::SparseStores {
                count: 50,
                footprint_pages: 16,
                gap: 2,
            },
            PhaseSpec::Compute(ComputeParams {
                count: 100,
                ..Default::default()
            }),
        ];
        let mut a = PhasedWorkload::new(specs.clone(), 42);
        let mut b = PhasedWorkload::new(specs, 42);
        assert_eq!(take(&mut a, 2_000), take(&mut b, 2_000));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_spec_list_panics() {
        let _ = PhasedWorkload::new(vec![], 0);
    }

    #[test]
    fn multi_stream_spec_builds_disjoint_streams() {
        let spec = PhaseSpec::MultiStreamCopy {
            streams: 3,
            bytes_per_stream: 512,
            chunk_blocks: 2,
            footprint_pages: 8,
        };
        let mut g = spec.build(0, 3, 0);
        let mut store_addrs = Vec::new();
        while let Some(op) = g.next_op() {
            if let OpKind::Store { addr, .. } = op.kind() {
                store_addrs.push(addr);
            }
        }
        assert!(!store_addrs.is_empty());
        // Streams are spaced a footprint apart.
        let spacing = 8 * PAGE_BYTES;
        let bases: std::collections::BTreeSet<u64> = store_addrs
            .iter()
            .map(|a| (a - AddressSpace::HEAP_BASE) / spacing)
            .collect();
        assert_eq!(bases.len(), 3);
    }

    #[test]
    fn clear_pages_are_page_aligned() {
        let spec = PhaseSpec::ClearPages {
            pages: 2,
            footprint_pages: 16,
        };
        for iter in 0..5 {
            let mut g = spec.build(iter, 1, 0);
            let first = loop {
                if let OpKind::Store { addr, .. } = g.next_op().unwrap().kind() {
                    break addr;
                }
            };
            assert_eq!(first % PAGE_BYTES, 0);
        }
    }
}
