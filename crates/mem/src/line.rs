//! Cache-line metadata: coherence state, fill time, prefetch origin.

use std::fmt;

/// Stable MESI coherence states.
///
/// Transient states (the paper's `IM`, `PF_IM`) are not stored explicitly:
/// a line whose [`CacheLine::ready`] lies in the future *is* in a
/// transient state, and [`crate::system::MemorySystem`] reports the
/// paper-style transient name through its event API so the Figure 4
/// running example can be checked verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceState {
    /// Invalid (not present).
    Invalid,
    /// Shared, read-only, possibly with other sharers.
    Shared,
    /// Exclusive, clean, no other copy.
    Exclusive,
    /// Modified: owned with write permission, dirty.
    Modified,
}

impl CoherenceState {
    /// Whether a load may be satisfied from this state.
    pub fn readable(self) -> bool {
        !matches!(self, CoherenceState::Invalid)
    }

    /// Whether a store may be performed in this state.
    ///
    /// `Exclusive` upgrades to `Modified` silently (no traffic), so it
    /// counts as writable.
    pub(crate) fn writable(self) -> bool {
        matches!(self, CoherenceState::Exclusive | CoherenceState::Modified)
    }
}

impl fmt::Display for CoherenceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CoherenceState::Invalid => "I",
            CoherenceState::Shared => "S",
            CoherenceState::Exclusive => "E",
            CoherenceState::Modified => "M",
        };
        f.write_str(s)
    }
}

/// Who requested the write-permission prefetch that brought a line in.
///
/// Figure 11 classifies store requests at the L1 by the *fate* of the
/// prefetch that should have covered them, so every prefetched line
/// remembers its originating policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RfoOrigin {
    /// At-execute policy (issued when the store's address resolved).
    AtExecute,
    /// At-commit policy (issued when the store committed into the SB).
    AtCommit,
    /// An SPB page burst.
    SpbBurst,
    /// The generic L1 cache prefetcher (stream/aggressive/adaptive).
    CachePrefetcher,
}

impl Default for RfoOrigin {
    /// Slot filler for [`crate::blockmap::BlockMap`] value lanes; never
    /// observable through the map API.
    fn default() -> Self {
        RfoOrigin::AtExecute
    }
}

impl RfoOrigin {
    /// All origins, in reporting order.
    pub const ALL: [RfoOrigin; 4] = [
        RfoOrigin::AtExecute,
        RfoOrigin::AtCommit,
        RfoOrigin::SpbBurst,
        RfoOrigin::CachePrefetcher,
    ];

    /// Dense index for per-origin counter arrays.
    pub fn index(self) -> usize {
        match self {
            RfoOrigin::AtExecute => 0,
            RfoOrigin::AtCommit => 1,
            RfoOrigin::SpbBurst => 2,
            RfoOrigin::CachePrefetcher => 3,
        }
    }
}

impl fmt::Display for RfoOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RfoOrigin::AtExecute => "at-execute",
            RfoOrigin::AtCommit => "at-commit",
            RfoOrigin::SpbBurst => "spb-burst",
            RfoOrigin::CachePrefetcher => "cache-prefetcher",
        };
        f.write_str(s)
    }
}

/// One cache line's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// Block address stored in this way (full block number, not a tag
    /// fragment — the model trades a few bytes for clarity).
    pub block: u64,
    /// Stable coherence state.
    pub state: CoherenceState,
    /// Cycle at which the fill completes. A line with `ready` in the
    /// future is in a transient state (`IM`/`PF_IM`).
    pub ready: u64,
    /// Whether the line holds modified data that must be written back.
    pub dirty: bool,
    /// Prefetch origin, if a prefetch (rather than a demand miss)
    /// brought this line in.
    pub prefetch: Option<RfoOrigin>,
    /// Whether a demand access has touched the line since it was filled.
    pub used: bool,
}

impl CacheLine {
    /// An invalid line.
    pub fn invalid() -> Self {
        Self {
            block: u64::MAX,
            state: CoherenceState::Invalid,
            ready: 0,
            dirty: false,
            prefetch: None,
            used: false,
        }
    }
}

impl Default for CacheLine {
    fn default() -> Self {
        Self::invalid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_line_is_not_valid() {
        let l = CacheLine::invalid();
        assert_eq!(l.state, CoherenceState::Invalid);
        assert_eq!(l.ready, 0);
    }

    #[test]
    fn readable_and_writable_states() {
        assert!(!CoherenceState::Invalid.readable());
        assert!(CoherenceState::Shared.readable());
        assert!(!CoherenceState::Shared.writable());
        assert!(CoherenceState::Exclusive.writable());
        assert!(CoherenceState::Modified.writable());
    }

    #[test]
    fn display_uses_mesi_letters() {
        assert_eq!(CoherenceState::Modified.to_string(), "M");
        assert_eq!(CoherenceState::Invalid.to_string(), "I");
    }
}
