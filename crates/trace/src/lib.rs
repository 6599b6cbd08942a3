//! Trace IR and synthetic workload generation for the SPB simulator.
//!
//! The paper evaluates on SPEC CPU 2017 and PARSEC running under gem5
//! full-system simulation. Neither benchmark suite can ship with this
//! repository, so this crate provides the substitution required by the
//! reproduction plan: a µop-level trace IR ([`MicroOp`]) plus synthetic
//! generators that produce exactly the access patterns the paper itself
//! identifies as the source of SB-induced stalls (§III-B, Figure 3):
//!
//! - `memcpy`/`memset`/`calloc` style contiguous 8-byte store bursts in
//!   library code ([`generators::MemcpyGen`], [`generators::MemsetGen`]);
//! - kernel `clear_page` bursts ([`generators::ClearPageGen`]);
//! - manual data-movement loops in application code, optionally shuffled
//!   by loop unrolling (the `roms` pathology);
//! - plus the surrounding "everything else": compute chains, strided
//!   loads, pointer chasing, sparse stores and branches.
//!
//! Each SPEC/PARSEC application is modelled by an [`profile::AppProfile`]
//! that mixes those primitives in proportions chosen so the application
//! lands in the paper's SB-bound or non-SB-bound class.
//!
//! Everything is deterministic under a fixed seed (ChaCha8 RNG).
//!
//! # Examples
//!
//! ```
//! use spb_trace::{profile::AppProfile, TraceSource};
//!
//! let bwaves = AppProfile::spec2017()
//!     .into_iter()
//!     .find(|p| p.name() == "bwaves")
//!     .unwrap();
//! let mut source = bwaves.build(42);
//! let op = source.next_op().expect("profiles generate unbounded traces");
//! println!("first µop: {op:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod file;
pub mod generators;
pub mod op;
pub mod phased;
pub mod profile;
pub mod region;
pub mod rng;
pub mod squash;

pub use op::{MicroOp, OpKind};
pub use phased::PhasedWorkload;
pub use region::CodeRegion;
pub use squash::{SquashConfig, SquashInjector};

/// A source of µops to feed a simulated core.
///
/// Implementations are either finite (one phase of a workload) or
/// unbounded (a whole application profile, which loops its region of
/// interest forever — the simulator decides when to stop).
///
/// # The batch contract
///
/// [`TraceSource::fill`] is the bulk form of [`TraceSource::next_op`]:
/// it writes the next µops of the *same* stream into a slice, so any
/// interleaving of `fill` and `next_op` calls yields exactly the
/// sequence repeated `next_op` calls would. `fill` returns how many
/// µops it wrote; `0` (for a non-empty slice) means the source is
/// exhausted. A shorter-than-requested batch is allowed and means
/// nothing by itself — call again. Consumers that pull in batches (the
/// core's µop ring) therefore read *ahead* of what they execute; the
/// read-ahead is never committed, so a core's committed stream is still
/// exactly a prefix of its trace.
pub trait TraceSource {
    /// Produces the next µop, or `None` when the source is exhausted.
    fn next_op(&mut self) -> Option<MicroOp>;

    /// Writes the next µops of the stream into `out`, returning how
    /// many were written (`0` only when the source is exhausted or `out`
    /// is empty). The default loops over [`TraceSource::next_op`];
    /// generators override it with tight loops that draw their RNG in
    /// the same order.
    fn fill(&mut self, out: &mut [MicroOp]) -> usize {
        for (n, slot) in out.iter_mut().enumerate() {
            match self.next_op() {
                Some(op) => *slot = op,
                None => return n,
            }
        }
        out.len()
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_op(&mut self) -> Option<MicroOp> {
        (**self).next_op()
    }

    fn fill(&mut self, out: &mut [MicroOp]) -> usize {
        (**self).fill(out)
    }
}
