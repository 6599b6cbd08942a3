//! Coherence invariant checking: structured violations with per-block
//! diagnostic histories.
//!
//! The simulator used to guard its protocol with scattered
//! `debug_assert!`s: silent in release builds, and a bare panic with no
//! context in debug builds. This module promotes them into structured
//! [`InvariantViolation`] errors that carry *what* was violated, *where*
//! (block/core/cycle) and the recent coherence history of the offending
//! block, and flow up through the runner into sweep reports instead of
//! tearing the process down.
//!
//! The event types and the bounded ring themselves live in [`spb_obs`]:
//! [`crate::system::MemorySystem`] emits one
//! [`Event`] per protocol action, the checker's
//! [`EventLog`] ring is just one consumer of that stream (cheap: a
//! struct write, no formatting), and any attached
//! [`Observer`](spb_obs::Observer) sink sees the same events. The
//! checks are read-only — running them never changes a simulated number.

use std::fmt;

pub use spb_obs::{CoherenceKind, Event, EventLog};

/// Which invariant was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Two cores held write permission (or a writer coexisted with a
    /// reader) for the same block.
    SingleWriter,
    /// A private cache held a stable line the directory does not track,
    /// or their permissions disagree.
    DirectoryAgreement,
    /// The directory's own records are malformed (owner out of range,
    /// empty or out-of-range sharer mask).
    DirectoryState,
    /// An MSHR file held two entries for one block, exceeded its
    /// capacity, or an entry's completion time ran away.
    MshrLeak,
    /// A cache line was reachable in a state its access path forbids.
    LineState,
    /// No core made forward progress within the watchdog's cycle budget.
    ForwardProgress,
    /// A block still tagged as speculatively owned (its M-state
    /// transition was caused by a wrong-path RFO) holds dirty data in the
    /// tagging core's L1 — an architectural store performed without the
    /// controller untagging the line, so squash attribution would
    /// mis-charge real work as speculative waste.
    SpeculativeLeak,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantKind::SingleWriter => "single-writer",
            InvariantKind::DirectoryAgreement => "directory-agreement",
            InvariantKind::DirectoryState => "directory-state",
            InvariantKind::MshrLeak => "mshr-leak",
            InvariantKind::LineState => "line-state",
            InvariantKind::ForwardProgress => "forward-progress",
            InvariantKind::SpeculativeLeak => "speculative-leak",
        };
        f.write_str(s)
    }
}

/// A structured invariant violation: the check that failed plus enough
/// context to debug it without re-running.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// Which invariant failed.
    pub kind: InvariantKind,
    /// The offending block, when the violation is block-scoped.
    pub block: Option<u64>,
    /// The offending core, when one is identifiable.
    pub core: Option<usize>,
    /// Simulated cycle at which the check ran.
    pub cycle: u64,
    /// Human-readable description of the inconsistent state.
    pub detail: String,
    /// Recent coherence events touching the offending block, oldest
    /// first (empty when no block is identified or the log is disabled).
    pub history: Vec<String>,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violation [{}] at cycle {}",
            self.kind, self.cycle
        )?;
        if let Some(b) = self.block {
            write!(f, " block {b:#x}")?;
        }
        if let Some(c) = self.core {
            write!(f, " core {c}")?;
        }
        write!(f, ": {}", self.detail)?;
        if !self.history.is_empty() {
            write!(f, "\n  block history (oldest first):")?;
            for h in &self.history {
                write!(f, "\n    {h}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for InvariantViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_carries_context() {
        let v = InvariantViolation {
            kind: InvariantKind::SingleWriter,
            block: Some(0x40),
            core: Some(2),
            cycle: 123,
            detail: "cores 1 and 2 both writable".into(),
            history: vec!["cycle 100 core 1 fill(owned)".into()],
        };
        let s = v.to_string();
        assert!(s.contains("single-writer"));
        assert!(s.contains("block 0x40"));
        assert!(s.contains("core 2"));
        assert!(s.contains("cycle 123"));
        assert!(s.contains("fill(owned)"));
    }

    #[test]
    fn reexported_ring_formats_histories_like_before() {
        let mut log = EventLog::new(4);
        log.record(Event::coherence(7, 1, 5, CoherenceKind::FillOwned));
        let h = log.history_for(5);
        assert_eq!(h.len(), 1);
        assert!(h[0].contains("cycle          7"));
        assert!(h[0].contains("fill(owned)"));
    }
}
