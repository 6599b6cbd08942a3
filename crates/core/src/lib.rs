//! Store-Prefetch Bursts — the paper's contribution.
//!
//! SPB (Cebrián, Kaxiras, Ros — MICRO 2020) is a tiny store-side
//! prefetcher that sits next to the commit stage:
//!
//! 1. [`detector::SpbDetector`] watches committed stores with just three
//!    registers (67 bits for the paper's parameters): the last committed
//!    store's *block* address (58 bits), a 4-bit saturating counter of
//!    consecutive-block transitions, and a store counter checked every
//!    `N` stores.
//! 2. When the window of `N` stores covered at least `N/8` consecutive
//!    blocks (8-byte stores fill a 64-byte block in 8 stores), SPB
//!    predicts the burst continues across the whole page and asks the
//!    L1 controller for write permission on **every remaining block of
//!    the current page** in one shot ([`spb_mem::MemorySystem::enqueue_burst`]).
//! 3. [`policy::SpbPolicy`] packages this on top of the at-commit
//!    baseline as a drop-in [`spb_cpu::StorePrefetchPolicy`].
//!
//! [`params::SpbParams`] is the one configuration type. Besides the
//! paper's window and dedupe register it carries the extension knobs
//! the paper discusses but does not evaluate (backward and cross-page
//! bursts, an explicit threshold, partial-page bursts); at their
//! defaults the detector is exactly the paper's.
//!
//! The same policy type also runs the §IV-C variant that adapts the
//! threshold to the observed store *size* (which performs slightly
//! worse, per the paper; [`policy::SpbPolicy::dynamic`]) and a
//! feedback-directed variant that sizes bursts by measured accuracy
//! ([`policy::SpbPolicy::feedback`]).
//!
//! # Examples
//!
//! ```
//! use spb_core::{SpbDetector, SpbParams};
//!
//! let mut spb = SpbDetector::new(SpbParams::base(8, true));
//! // Eight 8-byte stores filling block 0, then one touching block 1:
//! // the Figure 4 running example.
//! for i in 0..8u64 {
//!     assert_eq!(spb.observe_store(i * 8), None);
//! }
//! let burst = spb.observe_store(0x40).expect("pattern detected");
//! assert_eq!(burst.start, 2); // blocks after 0x40's block…
//! assert_eq!(burst.end, 64);  // …to the end of the page
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
#[cfg(test)]
mod extensions;
pub mod params;
pub mod policy;

pub use detector::{SpbDetector, BLOCKS_PER_PAGE, BLOCK_BYTES, PAGE_BYTES};
pub use params::SpbParams;
pub use policy::SpbPolicy;
