//! Primitive workload generators.
//!
//! Each generator is a finite [`TraceSource`] producing one *phase* of an
//! application: a `memcpy` call, a stretch of compute, a pointer-chase
//! walk, and so on. [`crate::PhasedWorkload`] strings phases together and
//! loops them to form a region of interest.
//!
//! The generators mirror §III of the paper:
//!
//! - [`MemsetGen`] / [`MemcpyGen`] / [`ClearPageGen`] produce long runs of
//!   contiguous 8-byte stores — the access pattern of Figure 2 that fills
//!   the SB and causes most SB-induced stalls.
//! - [`MultiStreamCopyGen`] produces the `roms`-style interleaving of
//!   several store streams created by loop unrolling; its page-sized SPB
//!   bursts create the L1 conflict-miss pathology of §VI-A.
//! - [`StrideLoadGen`], [`PointerChaseGen`], [`ComputeGen`] and
//!   [`SparseStoreGen`] provide the surrounding non-bursty behaviour that
//!   keeps most SPEC applications *off* the SB-bound list.

use crate::op::{MicroOp, OpKind};
use crate::region::CodeRegion;
use crate::rng::{Chance, TraceRng};
use crate::TraceSource;

/// Well-predicted loop-branch misprediction rate.
const LOOP_BRANCH_MISS_RATE: f64 = 0.0005;

fn rng_for(seed: u64, salt: u64) -> TraceRng {
    TraceRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Emits the two loop-overhead µops (induction add + backward branch)
/// used by all the loopy generators.
fn loop_overhead(pcs: (u64, u64), rng: &mut TraceRng, out: &mut Vec<MicroOp>) {
    out.push(MicroOp::new(OpKind::IntAlu { latency: 1 }, pcs.0));
    let miss = rng.gen_bool(LOOP_BRANCH_MISS_RATE);
    out.push(MicroOp::new(OpKind::Branch { mispredict: miss }, pcs.1).with_dep(1));
}

/// A generator that buffers a small batch of µops at a time.
///
/// All concrete generators fill `pending` lazily so `next_op` stays
/// allocation-free in the steady state.
#[derive(Debug)]
struct OpQueue {
    pending: Vec<MicroOp>,
    cursor: usize,
}

impl OpQueue {
    fn new() -> Self {
        Self {
            pending: Vec::with_capacity(32),
            cursor: 0,
        }
    }

    fn pop(&mut self) -> Option<MicroOp> {
        if self.cursor < self.pending.len() {
            let op = self.pending[self.cursor];
            self.cursor += 1;
            Some(op)
        } else {
            None
        }
    }

    /// Copies as many pending µops as fit into `out`.
    fn drain_into(&mut self, out: &mut [MicroOp]) -> usize {
        let pending = &self.pending[self.cursor..];
        let n = pending.len().min(out.len());
        out[..n].copy_from_slice(&pending[..n]);
        self.cursor += n;
        n
    }

    fn refill<F: FnOnce(&mut Vec<MicroOp>)>(&mut self, f: F) {
        self.pending.clear();
        self.cursor = 0;
        f(&mut self.pending);
    }
}

/// Implements [`TraceSource`] for generators that stage µops in an
/// [`OpQueue`] field `queue` and stage the next non-empty batch with
/// `fn refill(&mut self) -> bool` (`false` once the generator is done).
/// `fill` copies whole staged batches instead of popping µop by µop.
macro_rules! queued_source {
    ($($gen:ty),+ $(,)?) => {$(
        impl TraceSource for $gen {
            fn next_op(&mut self) -> Option<MicroOp> {
                if let Some(op) = self.queue.pop() {
                    return Some(op);
                }
                if self.refill() {
                    self.queue.pop()
                } else {
                    None
                }
            }

            fn fill(&mut self, out: &mut [MicroOp]) -> usize {
                let mut n = self.queue.drain_into(out);
                while n < out.len() && self.refill() {
                    n += self.queue.drain_into(&mut out[n..]);
                }
                n
            }
        }
    )+};
}

queued_source!(
    MemsetGen,
    MemcpyGen,
    MultiStreamCopyGen,
    StrideLoadGen,
    PointerChaseGen,
    SparseStoreGen,
    StridedStoreGen,
    GatherScatterGen,
);

// ---------------------------------------------------------------------------
// MemsetGen
// ---------------------------------------------------------------------------

/// `memset`-style generator: a tight loop of contiguous 8-byte stores.
///
/// With 64-byte blocks this produces exactly the pattern of the paper's
/// Figure 2: eight stores per block, block addresses increasing by one.
///
/// # Examples
///
/// ```
/// use spb_trace::{generators::MemsetGen, CodeRegion, TraceSource};
///
/// let mut g = MemsetGen::new(0x1000, 128, CodeRegion::Memset, 1);
/// let mut stores = 0;
/// while let Some(op) = g.next_op() {
///     if op.kind().is_store() { stores += 1; }
/// }
/// assert_eq!(stores, 16); // 128 bytes / 8-byte stores
/// ```
#[derive(Debug)]
pub struct MemsetGen {
    dst: u64,
    bytes: u64,
    written: u64,
    region: CodeRegion,
    unroll: u64,
    queue: OpQueue,
    rng: TraceRng,
}

impl MemsetGen {
    /// Creates a memset of `bytes` bytes starting at `dst`, attributed to
    /// `region` (use [`CodeRegion::Memset`] or [`CodeRegion::Calloc`]).
    pub fn new(dst: u64, bytes: u64, region: CodeRegion, seed: u64) -> Self {
        Self {
            dst,
            bytes,
            written: 0,
            region,
            unroll: 8,
            queue: OpQueue::new(),
            rng: rng_for(seed, dst),
        }
    }
}

impl MemsetGen {
    fn refill(&mut self) -> bool {
        if self.written >= self.bytes {
            return false;
        }
        let region = self.region;
        let dst = self.dst;
        let written = &mut self.written;
        let bytes = self.bytes;
        let unroll = self.unroll;
        let rng = &mut self.rng;
        self.queue.refill(|out| {
            for _ in 0..unroll {
                if *written >= bytes {
                    break;
                }
                let addr = dst + *written;
                out.push(MicroOp::new(
                    OpKind::Store { addr, size: 8 },
                    region.pc_at(0x10),
                ));
                *written += 8;
            }
            loop_overhead((region.pc_at(0x20), region.pc_at(0x28)), rng, out);
        });
        true
    }
}

// ---------------------------------------------------------------------------
// MemcpyGen
// ---------------------------------------------------------------------------

/// `memcpy`-style generator: paired 8-byte load/store streams.
///
/// Stores depend on their loads (distance 1). `shuffle_in_block` emulates
/// compiler reordering after unrolling: the eight accesses inside each
/// 64-byte block are emitted in a permuted order, which breaks
/// *address*-contiguity but keeps *block*-contiguity — exactly the case
/// SPB's block-delta detector is designed to tolerate (§IV).
#[derive(Debug)]
pub struct MemcpyGen {
    src: u64,
    dst: u64,
    bytes: u64,
    done: u64,
    region: CodeRegion,
    shuffle_in_block: bool,
    queue: OpQueue,
    rng: TraceRng,
}

impl MemcpyGen {
    /// Creates a copy of `bytes` bytes from `src` to `dst`.
    pub fn new(src: u64, dst: u64, bytes: u64, region: CodeRegion, seed: u64) -> Self {
        Self {
            src,
            dst,
            bytes,
            done: 0,
            region,
            shuffle_in_block: false,
            queue: OpQueue::new(),
            rng: rng_for(seed, src ^ dst),
        }
    }

    /// Enables intra-block shuffling of the copy order.
    #[must_use]
    pub fn with_intra_block_shuffle(mut self) -> Self {
        self.shuffle_in_block = true;
        self
    }
}

impl MemcpyGen {
    fn refill(&mut self) -> bool {
        if self.done >= self.bytes {
            return false;
        }
        let (src, dst, region) = (self.src, self.dst, self.region);
        let done = &mut self.done;
        let bytes = self.bytes;
        let shuffle = self.shuffle_in_block;
        let rng = &mut self.rng;
        self.queue.refill(|out| {
            // One 64-byte block (or the tail) per refill.
            let mut offsets: [u64; 8] = [0, 8, 16, 24, 32, 40, 48, 56];
            if shuffle {
                // Fisher-Yates on the intra-block order.
                for i in (1..8).rev() {
                    let j = rng.gen_range(0..=i);
                    offsets.swap(i, j);
                }
            }
            let base = *done;
            for &off in &offsets {
                if base + off >= bytes {
                    continue;
                }
                let a = base + off;
                out.push(MicroOp::new(
                    OpKind::Load {
                        addr: src + a,
                        size: 8,
                    },
                    region.pc_at(0x40),
                ));
                out.push(
                    MicroOp::new(
                        OpKind::Store {
                            addr: dst + a,
                            size: 8,
                        },
                        region.pc_at(0x48),
                    )
                    .with_dep(1),
                );
            }
            *done = base + 64;
            loop_overhead((region.pc_at(0x50), region.pc_at(0x58)), rng, out);
        });
        true
    }
}

// ---------------------------------------------------------------------------
// ClearPageGen
// ---------------------------------------------------------------------------

/// Kernel `clear_page` generator: zeroes whole 4 KiB pages with 8-byte
/// stores, attributed to [`CodeRegion::ClearPage`].
///
/// The OS calls this each time a page is first handed to user code, which
/// is why allocation-heavy applications show kernel-located SB stalls in
/// Figure 3.
#[derive(Debug)]
pub struct ClearPageGen {
    inner: MemsetGen,
}

impl ClearPageGen {
    /// Clears `pages` pages starting at `first_page_addr` (page aligned).
    ///
    /// # Panics
    ///
    /// Panics if `first_page_addr` is not 4 KiB-aligned.
    pub fn new(first_page_addr: u64, pages: u64, seed: u64) -> Self {
        assert_eq!(
            first_page_addr % 4096,
            0,
            "clear_page needs a page-aligned base"
        );
        Self {
            inner: MemsetGen::new(first_page_addr, pages * 4096, CodeRegion::ClearPage, seed),
        }
    }
}

impl TraceSource for ClearPageGen {
    fn next_op(&mut self) -> Option<MicroOp> {
        self.inner.next_op()
    }

    fn fill(&mut self, out: &mut [MicroOp]) -> usize {
        self.inner.fill(out)
    }
}

// ---------------------------------------------------------------------------
// MultiStreamCopyGen
// ---------------------------------------------------------------------------

/// Interleaved multi-stream store bursts (the `roms` pattern).
///
/// An unrolled Fortran loop writing several arrays interleaves chunks of
/// stores from each stream. SPB still detects block-contiguity inside a
/// chunk when `chunk_blocks` is large enough, triggers page bursts for
/// *every* stream, and the burst-prefetched blocks then fight for L1 sets
/// with the streams' own loads — the conflict-miss pathology reported for
/// `roms` in §VI-A.
#[derive(Debug)]
pub struct MultiStreamCopyGen {
    streams: Vec<(u64, u64)>, // (src, dst) base per stream
    bytes_per_stream: u64,
    chunk_blocks: u64,
    progressed: u64, // bytes completed per stream
    current: usize,
    chunk_left: u64,
    region: CodeRegion,
    queue: OpQueue,
    rng: TraceRng,
}

impl MultiStreamCopyGen {
    /// Creates `streams.len()` interleaved copy streams, each moving
    /// `bytes_per_stream` bytes, switching streams every `chunk_blocks`
    /// cache blocks.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or `chunk_blocks` is zero.
    pub fn new(
        streams: Vec<(u64, u64)>,
        bytes_per_stream: u64,
        chunk_blocks: u64,
        seed: u64,
    ) -> Self {
        assert!(!streams.is_empty(), "need at least one stream");
        assert!(chunk_blocks > 0, "chunk must be at least one block");
        Self {
            streams,
            bytes_per_stream,
            chunk_blocks,
            progressed: 0,
            current: 0,
            chunk_left: chunk_blocks,
            region: CodeRegion::Application,
            queue: OpQueue::new(),
            rng: rng_for(seed, 0x6d73),
        }
    }
}

impl MultiStreamCopyGen {
    fn refill(&mut self) -> bool {
        if self.progressed >= self.bytes_per_stream {
            return false;
        }
        let (src, dst) = self.streams[self.current];
        // Streams advance in lock-step; within the current chunk, walk
        // block by block.
        let block_in_chunk = self.chunk_blocks - self.chunk_left;
        let offset = self.progressed + block_in_chunk * 64;
        let region = self.region;
        let pc_salt = (self.current as u64) * 0x100;
        let rng = &mut self.rng;
        self.queue.refill(|out| {
            for i in 0..8u64 {
                let a = offset + i * 8;
                out.push(MicroOp::new(
                    OpKind::Load {
                        addr: src + a,
                        size: 8,
                    },
                    region.pc_at(0x100 + pc_salt),
                ));
                out.push(
                    MicroOp::new(
                        OpKind::Store {
                            addr: dst + a,
                            size: 8,
                        },
                        region.pc_at(0x108 + pc_salt),
                    )
                    .with_dep(1),
                );
            }
            loop_overhead(
                (region.pc_at(0x110 + pc_salt), region.pc_at(0x118 + pc_salt)),
                rng,
                out,
            );
        });
        // Advance a block within the current stream's chunk.
        self.chunk_left -= 1;
        if self.chunk_left == 0 {
            self.chunk_left = self.chunk_blocks;
            self.current += 1;
            if self.current == self.streams.len() {
                self.current = 0;
                self.progressed += self.chunk_blocks * 64;
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// StrideLoadGen
// ---------------------------------------------------------------------------

/// Strided load stream with light compute per element (a vector kernel).
#[derive(Debug)]
pub struct StrideLoadGen {
    base: u64,
    stride: u64,
    remaining: u64,
    idx: u64,
    fp: bool,
    queue: OpQueue,
    rng: TraceRng,
}

impl StrideLoadGen {
    /// Creates a stream of `count` loads at `base + i * stride`.
    /// `fp` selects floating-point (vs integer) companion compute.
    pub fn new(base: u64, stride: u64, count: u64, fp: bool, seed: u64) -> Self {
        Self {
            base,
            stride: stride.max(1),
            remaining: count,
            idx: 0,
            fp,
            queue: OpQueue::new(),
            rng: rng_for(seed, base),
        }
    }
}

impl StrideLoadGen {
    fn refill(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let n = self.remaining.min(4);
        self.remaining -= n;
        let (base, stride, fp) = (self.base, self.stride, self.fp);
        let idx = &mut self.idx;
        let rng = &mut self.rng;
        self.queue.refill(|out| {
            for _ in 0..n {
                let addr = base + *idx * stride;
                *idx += 1;
                out.push(MicroOp::new(
                    OpKind::Load { addr, size: 8 },
                    CodeRegion::Application.pc_at(0x200),
                ));
                let kind = if fp {
                    OpKind::FpAlu { latency: 5 }
                } else {
                    OpKind::IntAlu { latency: 1 }
                };
                out.push(MicroOp::new(kind, CodeRegion::Application.pc_at(0x208)).with_dep(1));
            }
            loop_overhead(
                (
                    CodeRegion::Application.pc_at(0x210),
                    CodeRegion::Application.pc_at(0x218),
                ),
                rng,
                out,
            );
        });
        true
    }
}

// ---------------------------------------------------------------------------
// PointerChaseGen
// ---------------------------------------------------------------------------

/// Serially dependent loads over a randomized node pool (linked-list or
/// tree traversal). Every load's address depends on the previous load, so
/// there is no memory-level parallelism to exploit — latency-bound, not
/// SB-bound.
#[derive(Debug)]
pub struct PointerChaseGen {
    pool_base: u64,
    pool_blocks: u64,
    remaining: u64,
    state: u64,
    queue: OpQueue,
    rng: TraceRng,
}

impl PointerChaseGen {
    /// Creates a chase of `count` dependent loads over a pool of
    /// `pool_blocks` cache blocks starting at `pool_base`.
    pub fn new(pool_base: u64, pool_blocks: u64, count: u64, seed: u64) -> Self {
        Self {
            pool_base,
            pool_blocks: pool_blocks.max(1),
            remaining: count,
            state: seed | 1,
            queue: OpQueue::new(),
            rng: rng_for(seed, pool_base),
        }
    }

    fn next_node(&mut self) -> u64 {
        // xorshift over the pool keeps the walk deterministic but
        // effectively random (defeats stride prefetchers, like a real
        // pointer chase).
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        self.pool_base + (x % self.pool_blocks) * 64
    }
}

impl PointerChaseGen {
    fn refill(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        let addr = self.next_node();
        let use_branch = self.rng.gen_bool(0.25);
        let mispredict = use_branch && self.rng.gen_bool(0.05);
        self.queue.refill(|out| {
            // The load depends on the previous iteration's load (3 µops
            // back once compute + branch are interleaved).
            out.push(
                MicroOp::new(
                    OpKind::Load { addr, size: 8 },
                    CodeRegion::Application.pc_at(0x300),
                )
                .with_dep(3),
            );
            out.push(
                MicroOp::new(
                    OpKind::IntAlu { latency: 1 },
                    CodeRegion::Application.pc_at(0x308),
                )
                .with_dep(1),
            );
            if use_branch {
                out.push(
                    MicroOp::new(
                        OpKind::Branch { mispredict },
                        CodeRegion::Application.pc_at(0x310),
                    )
                    .with_dep(1),
                );
            } else {
                out.push(MicroOp::new(
                    OpKind::IntAlu { latency: 1 },
                    CodeRegion::Application.pc_at(0x318),
                ));
            }
        });
        true
    }
}

// ---------------------------------------------------------------------------
// ComputeGen
// ---------------------------------------------------------------------------

/// Configuration for [`ComputeGen`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeParams {
    /// Number of µops to emit.
    pub count: u64,
    /// Fraction of ALU µops that are floating point.
    pub fp_ratio: f64,
    /// Probability that a branch is mispredicted.
    pub mispredict_rate: f64,
    /// Emit one branch every this many µops.
    pub branch_every: u32,
    /// Probability that a µop depends on its predecessor (chain density).
    pub dep_density: f64,
}

impl Default for ComputeParams {
    fn default() -> Self {
        Self {
            count: 1000,
            fp_ratio: 0.3,
            mispredict_rate: 0.02,
            branch_every: 6,
            dep_density: 0.4,
        }
    }
}

/// ALU-dominated compute with configurable dependency chains and branch
/// behaviour. This is the filler that keeps most SPEC applications busy
/// between memory phases.
#[derive(Debug)]
pub struct ComputeGen {
    params: ComputeParams,
    emitted: u64,
    since_branch: u32,
    rng: TraceRng,
    mispredict: Chance,
    dep: Chance,
    fp: Chance,
}

/// Share of FP µops that are divides (22 cycles instead of 5).
const FP_DIV: Chance = Chance::new(0.08);
/// Share of integer µops that are multiplies (4 cycles instead of 1).
const INT_MUL: Chance = Chance::new(0.05);

impl ComputeGen {
    /// Creates a compute phase from `params`.
    pub fn new(params: ComputeParams, seed: u64) -> Self {
        Self {
            params,
            emitted: 0,
            since_branch: 0,
            rng: rng_for(seed, 0xC0_FF_EE),
            mispredict: Chance::new(params.mispredict_rate),
            dep: Chance::new(params.dep_density),
            fp: Chance::new(params.fp_ratio),
        }
    }

    /// The next µop, assuming the phase is not done. Both
    /// [`TraceSource::next_op`] and the [`TraceSource::fill`] loop call
    /// this, so the two draw the RNG in the same order.
    #[inline(always)]
    fn step(&mut self) -> MicroOp {
        self.since_branch += 1;
        let region = CodeRegion::Application;
        if self.since_branch >= self.params.branch_every {
            self.since_branch = 0;
            let miss = self.rng.chance(self.mispredict);
            return MicroOp::new(OpKind::Branch { mispredict: miss }, region.pc_at(0x400))
                .with_dep(1);
        }
        let dep = u16::from(self.rng.chance(self.dep));
        let op = if self.rng.chance(self.fp) {
            let latency = if self.rng.chance(FP_DIV) { 22 } else { 5 };
            MicroOp::new(OpKind::FpAlu { latency }, region.pc_at(0x408))
        } else {
            let latency = if self.rng.chance(INT_MUL) { 4 } else { 1 };
            MicroOp::new(OpKind::IntAlu { latency }, region.pc_at(0x410))
        };
        op.with_dep(dep)
    }
}

impl TraceSource for ComputeGen {
    fn next_op(&mut self) -> Option<MicroOp> {
        if self.emitted >= self.params.count {
            return None;
        }
        self.emitted += 1;
        Some(self.step())
    }

    fn fill(&mut self, out: &mut [MicroOp]) -> usize {
        let left = self.params.count.saturating_sub(self.emitted);
        let n = out.len().min(usize::try_from(left).unwrap_or(usize::MAX));
        for slot in &mut out[..n] {
            *slot = self.step();
        }
        self.emitted += n as u64;
        n
    }
}

// ---------------------------------------------------------------------------
// SparseStoreGen
// ---------------------------------------------------------------------------

/// Random (non-contiguous) stores over a footprint, with compute between
/// them: store traffic that should *not* trigger SPB.
#[derive(Debug)]
pub struct SparseStoreGen {
    base: u64,
    footprint_blocks: u64,
    remaining: u64,
    gap: u32,
    queue: OpQueue,
    rng: TraceRng,
}

impl SparseStoreGen {
    /// Creates `count` random 8-byte stores into `footprint_blocks` blocks
    /// at `base`, separated by `gap` compute µops.
    pub fn new(base: u64, footprint_blocks: u64, count: u64, gap: u32, seed: u64) -> Self {
        Self {
            base,
            footprint_blocks: footprint_blocks.max(1),
            remaining: count,
            gap,
            queue: OpQueue::new(),
            rng: rng_for(seed, base ^ 0x5a5a),
        }
    }
}

impl SparseStoreGen {
    fn refill(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        let block = self.rng.gen_range(0..self.footprint_blocks);
        let slot = self.rng.gen_range(0..8u64);
        let addr = self.base + block * 64 + slot * 8;
        let gap = self.gap;
        let rng = &mut self.rng;
        self.queue.refill(|out| {
            for _ in 0..gap {
                let dep = if rng.gen_bool(0.3) { 1 } else { 0 };
                out.push(
                    MicroOp::new(
                        OpKind::IntAlu { latency: 1 },
                        CodeRegion::Application.pc_at(0x500),
                    )
                    .with_dep(dep),
                );
            }
            out.push(MicroOp::new(
                OpKind::Store { addr, size: 8 },
                CodeRegion::Application.pc_at(0x508),
            ));
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut g: impl TraceSource) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        while let Some(op) = g.next_op() {
            ops.push(op);
            assert!(ops.len() < 3_000_000, "generator failed to terminate");
        }
        ops
    }

    #[test]
    fn memset_covers_every_byte_once() {
        let ops = drain(MemsetGen::new(0x1000, 512, CodeRegion::Memset, 7));
        let stores: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o.kind() {
                OpKind::Store { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(stores.len(), 64);
        for (i, a) in stores.iter().enumerate() {
            assert_eq!(*a, 0x1000 + (i as u64) * 8);
        }
    }

    #[test]
    fn memset_pcs_are_in_requested_region() {
        let ops = drain(MemsetGen::new(0, 64, CodeRegion::Calloc, 7));
        for op in ops.iter().filter(|o| o.kind().is_store()) {
            assert_eq!(CodeRegion::of_pc(op.pc()), CodeRegion::Calloc);
        }
    }

    #[test]
    fn memcpy_pairs_loads_and_stores_with_dependency() {
        let ops = drain(MemcpyGen::new(0x10000, 0x20000, 128, CodeRegion::Memcpy, 1));
        let loads = ops.iter().filter(|o| o.kind().is_load()).count();
        let stores = ops.iter().filter(|o| o.kind().is_store()).count();
        assert_eq!(loads, 16);
        assert_eq!(stores, 16);
        for op in ops.iter().filter(|o| o.kind().is_store()) {
            assert_eq!(op.deps()[0], 1, "store must depend on its load");
        }
    }

    #[test]
    fn shuffled_memcpy_keeps_block_contiguity() {
        let ops = drain(
            MemcpyGen::new(0, 0x100000, 64 * 8, CodeRegion::Memcpy, 3).with_intra_block_shuffle(),
        );
        let store_blocks: Vec<u64> = ops
            .iter()
            .filter(|o| o.kind().is_store())
            .filter_map(|o| o.block())
            .collect();
        // Every group of 8 stores must hit a single block, and block
        // addresses must be non-decreasing across groups.
        for chunk in store_blocks.chunks(8) {
            assert!(chunk.iter().all(|b| *b == chunk[0]));
        }
        let firsts: Vec<u64> = store_blocks.chunks(8).map(|c| c[0]).collect();
        assert!(firsts.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn shuffled_memcpy_addresses_are_permuted() {
        let ops = drain(
            MemcpyGen::new(0, 0x100000, 64 * 4, CodeRegion::Memcpy, 3).with_intra_block_shuffle(),
        );
        let addrs: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o.kind() {
                OpKind::Store { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        // At least one block must have a non-monotonic intra-block order.
        let any_shuffled = addrs.chunks(8).any(|c| c.windows(2).any(|w| w[1] < w[0]));
        assert!(any_shuffled, "expected a permuted copy order");
    }

    #[test]
    fn clear_page_requires_alignment() {
        let result = std::panic::catch_unwind(|| ClearPageGen::new(5, 1, 0));
        assert!(result.is_err());
    }

    #[test]
    fn clear_page_zeroes_whole_pages_in_kernel_region() {
        let ops = drain(ClearPageGen::new(0x8000, 2, 0));
        let stores: Vec<&MicroOp> = ops.iter().filter(|o| o.kind().is_store()).collect();
        assert_eq!(stores.len(), 2 * 512);
        for op in stores {
            assert_eq!(CodeRegion::of_pc(op.pc()), CodeRegion::ClearPage);
        }
    }

    #[test]
    fn multi_stream_interleaves_chunks() {
        let streams = vec![(0x0, 0x100000), (0x40000, 0x200000)];
        let ops = drain(MultiStreamCopyGen::new(streams, 64 * 8, 4, 9));
        let store_blocks: Vec<u64> = ops
            .iter()
            .filter(|o| o.kind().is_store())
            .filter_map(|o| o.block())
            .collect();
        // First 4 blocks belong to stream 0's dst, next 4 to stream 1's.
        assert!(store_blocks[..32].iter().all(|b| *b < 0x200000 / 64));
        assert!(store_blocks[32..64].iter().all(|b| *b >= 0x200000 / 64));
    }

    #[test]
    fn stride_loads_follow_the_stride() {
        let ops = drain(StrideLoadGen::new(0x100, 256, 10, false, 2));
        let addrs: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o.kind() {
                OpKind::Load { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(addrs.len(), 10);
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 256);
        }
    }

    #[test]
    fn pointer_chase_loads_depend_on_previous() {
        let ops = drain(PointerChaseGen::new(0x1000, 64, 20, 5));
        for op in ops.iter().filter(|o| o.kind().is_load()) {
            assert_eq!(op.deps()[0], 3);
        }
    }

    #[test]
    fn pointer_chase_stays_in_pool() {
        let pool_blocks = 16;
        let ops = drain(PointerChaseGen::new(0x1000, pool_blocks, 200, 5));
        for op in ops.iter().filter(|o| o.kind().is_load()) {
            let addr = op.kind().addr().unwrap();
            assert!(addr >= 0x1000 && addr < 0x1000 + pool_blocks * 64);
        }
    }

    #[test]
    fn compute_emits_exact_count_and_branch_cadence() {
        let params = ComputeParams {
            count: 600,
            branch_every: 6,
            ..Default::default()
        };
        let ops = drain(ComputeGen::new(params, 11));
        assert_eq!(ops.len(), 600);
        let branches = ops
            .iter()
            .filter(|o| matches!(o.kind(), OpKind::Branch { .. }))
            .count();
        assert_eq!(branches, 100);
    }

    #[test]
    fn compute_is_deterministic_per_seed() {
        let a = drain(ComputeGen::new(ComputeParams::default(), 4));
        let b = drain(ComputeGen::new(ComputeParams::default(), 4));
        let c = drain(ComputeGen::new(ComputeParams::default(), 5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sparse_stores_do_not_form_contiguous_runs() {
        let ops = drain(SparseStoreGen::new(0x0, 1 << 16, 500, 3, 8));
        let blocks: Vec<u64> = ops
            .iter()
            .filter(|o| o.kind().is_store())
            .filter_map(|o| o.block())
            .collect();
        assert_eq!(blocks.len(), 500);
        let contiguous = blocks.windows(2).filter(|w| w[1] == w[0] + 1).count();
        // With a 64 Ki-block footprint the chance of adjacency is tiny.
        assert!(
            contiguous < 5,
            "sparse stores were contiguous {contiguous} times"
        );
    }
}

// ---------------------------------------------------------------------------
// StridedStoreGen
// ---------------------------------------------------------------------------

/// Strided stores (matrix-transpose / column-major writes).
///
/// With a stride of one block (64 B) the *block* deltas are +1 — SPB
/// legitimately detects it even though only one qword per block is
/// written. With larger strides the deltas exceed +1 and SPB must stay
/// silent: this generator is the canonical "looks regular but is not a
/// burst" counterexample used by the selectivity tests.
#[derive(Debug)]
pub struct StridedStoreGen {
    base: u64,
    stride: u64,
    remaining: u64,
    idx: u64,
    queue: OpQueue,
    rng: TraceRng,
}

impl StridedStoreGen {
    /// Creates `count` stores at `base + i * stride`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(base: u64, stride: u64, count: u64, seed: u64) -> Self {
        assert!(stride > 0, "a strided store stream needs a nonzero stride");
        Self {
            base,
            stride,
            remaining: count,
            idx: 0,
            queue: OpQueue::new(),
            rng: rng_for(seed, base ^ stride),
        }
    }
}

impl StridedStoreGen {
    fn refill(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let n = self.remaining.min(4);
        self.remaining -= n;
        let (base, stride) = (self.base, self.stride);
        let idx = &mut self.idx;
        let rng = &mut self.rng;
        self.queue.refill(|out| {
            for _ in 0..n {
                let addr = base + *idx * stride;
                *idx += 1;
                out.push(MicroOp::new(
                    OpKind::Store { addr, size: 8 },
                    CodeRegion::Application.pc_at(0x600),
                ));
                out.push(MicroOp::new(
                    OpKind::IntAlu { latency: 1 },
                    CodeRegion::Application.pc_at(0x608),
                ));
            }
            loop_overhead(
                (
                    CodeRegion::Application.pc_at(0x610),
                    CodeRegion::Application.pc_at(0x618),
                ),
                rng,
                out,
            );
        });
        true
    }
}

// ---------------------------------------------------------------------------
// GatherScatterGen
// ---------------------------------------------------------------------------

/// Gather-scatter (hash-join build side): random loads from a probe
/// table followed by dependent stores to random bucket slots. Heavy
/// store traffic that is *not* a burst — SPB must ignore it, and the
/// at-commit baseline is the best one can do.
#[derive(Debug)]
pub struct GatherScatterGen {
    table_base: u64,
    table_blocks: u64,
    bucket_base: u64,
    bucket_blocks: u64,
    remaining: u64,
    queue: OpQueue,
    rng: TraceRng,
}

impl GatherScatterGen {
    /// Creates `count` gather-scatter pairs over a probe table of
    /// `table_blocks` blocks and a bucket array of `bucket_blocks`.
    pub fn new(
        table_base: u64,
        table_blocks: u64,
        bucket_base: u64,
        bucket_blocks: u64,
        count: u64,
        seed: u64,
    ) -> Self {
        Self {
            table_base,
            table_blocks: table_blocks.max(1),
            bucket_base,
            bucket_blocks: bucket_blocks.max(1),
            remaining: count,
            queue: OpQueue::new(),
            rng: rng_for(seed, table_base ^ bucket_base),
        }
    }
}

impl GatherScatterGen {
    fn refill(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        let load_addr = self.table_base + self.rng.gen_range(0..self.table_blocks) * 64;
        let store_addr = self.bucket_base
            + self.rng.gen_range(0..self.bucket_blocks) * 64
            + self.rng.gen_range(0..8u64) * 8;
        self.queue.refill(|out| {
            // gather…
            out.push(MicroOp::new(
                OpKind::Load {
                    addr: load_addr,
                    size: 8,
                },
                CodeRegion::Application.pc_at(0x700),
            ));
            // …hash…
            out.push(
                MicroOp::new(
                    OpKind::IntAlu { latency: 4 },
                    CodeRegion::Application.pc_at(0x708),
                )
                .with_dep(1),
            );
            // …scatter (depends on the hash).
            out.push(
                MicroOp::new(
                    OpKind::Store {
                        addr: store_addr,
                        size: 8,
                    },
                    CodeRegion::Application.pc_at(0x710),
                )
                .with_dep(1),
            );
        });
        true
    }
}

#[cfg(test)]
mod extra_generator_tests {
    use super::*;

    fn drain(mut g: impl TraceSource) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        while let Some(op) = g.next_op() {
            ops.push(op);
            assert!(ops.len() < 3_000_000);
        }
        ops
    }

    #[test]
    fn strided_stores_follow_the_stride() {
        let ops = drain(StridedStoreGen::new(0x1000, 4096, 16, 3));
        let addrs: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o.kind() {
                OpKind::Store { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(addrs.len(), 16);
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 4096);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero stride")]
    fn zero_stride_rejected() {
        let _ = StridedStoreGen::new(0, 0, 1, 0);
    }

    #[test]
    fn gather_scatter_stores_depend_on_hash() {
        let ops = drain(GatherScatterGen::new(
            0x10_0000, 1024, 0x20_0000, 512, 50, 9,
        ));
        let stores: Vec<&MicroOp> = ops.iter().filter(|o| o.kind().is_store()).collect();
        assert_eq!(stores.len(), 50);
        for s in stores {
            assert_eq!(s.deps()[0], 1, "scatter must depend on the hash op");
        }
    }

    #[test]
    fn gather_scatter_stays_in_bounds() {
        let ops = drain(GatherScatterGen::new(0x10_0000, 16, 0x20_0000, 8, 400, 9));
        for op in &ops {
            match op.kind() {
                OpKind::Load { addr, .. } => {
                    assert!((0x10_0000..0x10_0000 + 16 * 64).contains(&addr))
                }
                OpKind::Store { addr, .. } => {
                    assert!((0x20_0000..0x20_0000 + 8 * 64).contains(&addr))
                }
                _ => {}
            }
        }
    }
}
