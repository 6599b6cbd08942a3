//! Memory-hierarchy substrate for the SPB simulator.
//!
//! The paper evaluates SPB inside gem5's Ruby memory system: private
//! L1/L2 caches, a shared banked L3, a MESI protocol with prefetch
//! transient states (`PF_IM` in the paper's Figure 4), MSHRs, a stride
//! prefetcher, and the aggressive/adaptive prefetchers of Srinath et al.
//! for the Figure 16 comparison. This crate implements all of that:
//!
//! - [`cache`]: set-associative cache arrays with LRU replacement and
//!   per-line coherence state, fill time, dirtiness and prefetch origin.
//! - [`mshr`]: miss-status holding registers with merge semantics.
//! - [`dram`]: a bandwidth-limited memory port.
//! - [`directory`]: a full-map MESI directory for multi-core runs
//!   (single-writer / multiple-reader invariant).
//! - [`prefetch`]: the baseline stride prefetcher plus the aggressive
//!   and feedback-directed (adaptive) variants.
//! - [`system`]: [`system::MemorySystem`] — the assembled hierarchy the
//!   CPU model talks to, including the L1-controller *prefetch-burst
//!   queue* that SPB targets, and the prefetch-outcome classification
//!   (successful / late / early / never-used) behind Figure 11.
//! - [`fault`]: deterministic, seeded fault injection (delayed prefetch
//!   acks, DRAM latency spikes, MSHR exhaustion, dropped bursts).
//! - [`checker`]: coherence invariant checking — structured
//!   [`checker::InvariantViolation`]s with per-block event history.
//!
//! # Examples
//!
//! ```
//! use spb_mem::system::{MemoryConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemoryConfig::default());
//! // A cold load misses all the way to DRAM…
//! let r1 = mem.load(0, 0x4000, 0);
//! assert!(r1.ready > 100);
//! // …and a reuse of the same block hits in L1.
//! let r2 = mem.load(0, 0x4008, r1.ready);
//! assert_eq!(r2.ready, r1.ready + mem.config().l1_latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockmap;
pub mod cache;
pub mod checker;
pub mod directory;
pub mod dram;
pub mod fault;
pub mod line;
pub mod mshr;
pub mod prefetch;
pub mod system;

pub use checker::{InvariantKind, InvariantViolation};
pub use fault::{FaultConfig, FaultCounts};
pub use line::{CoherenceState, RfoOrigin};
pub use system::{MemWork, MemoryConfig, MemorySystem};
