//! The µop intermediate representation consumed by the core model.

use std::fmt;

/// Cache block size in bytes (64 B, as in Table I / the paper's examples).
pub const BLOCK_BYTES: u64 = 64;
/// Page size in bytes (4 KiB x86 pages; SPB never prefetches past a page).
pub const PAGE_BYTES: u64 = 4096;
/// Cache blocks per page (64).
pub const BLOCKS_PER_PAGE: u64 = PAGE_BYTES / BLOCK_BYTES;

/// What a µop does, with the operands the timing model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Integer ALU operation with the given execution latency in cycles
    /// (add 1c, mul 4c, div 22c per Table I).
    IntAlu {
        /// Execution latency in cycles.
        latency: u8,
    },
    /// Floating-point operation (add 5c, mul 5c, div 22c per Table I).
    FpAlu {
        /// Execution latency in cycles.
        latency: u8,
    },
    /// A load of `size` bytes from virtual address `addr`.
    Load {
        /// Virtual byte address.
        addr: u64,
        /// Access size in bytes (1–64).
        size: u8,
    },
    /// A store of `size` bytes to virtual address `addr`.
    Store {
        /// Virtual byte address.
        addr: u64,
        /// Access size in bytes (1–64).
        size: u8,
    },
    /// A conditional branch. `mispredict` marks whether the front end
    /// guessed wrong; the squash cost is paid when the branch *resolves*,
    /// which waits on the branch's dependencies.
    Branch {
        /// Whether the branch was mispredicted.
        mispredict: bool,
    },
}

impl OpKind {
    /// Whether this µop is a store.
    pub fn is_store(&self) -> bool {
        matches!(self, OpKind::Store { .. })
    }

    /// Whether this µop is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, OpKind::Load { .. })
    }

    /// The memory address, if this is a memory µop.
    pub fn addr(&self) -> Option<u64> {
        match *self {
            OpKind::Load { addr, .. } | OpKind::Store { addr, .. } => Some(addr),
            _ => None,
        }
    }
}

/// One micro-operation of the trace.
///
/// Dependencies are encoded as *backward distances in µops*: `deps[i] == d`
/// (with `d > 0`) means this µop reads the result of the µop `d` positions
/// earlier in program order; `0` means "no dependency". This compact
/// encoding lets generators express streaming (independent) versus
/// pointer-chasing (serially dependent) behaviour without a register
/// allocator.
///
/// # Examples
///
/// ```
/// use spb_trace::{MicroOp, OpKind};
///
/// // A store whose data comes from the immediately preceding load.
/// let op = MicroOp::new(OpKind::Store { addr: 0x1000, size: 8 }, 0x4000_0000)
///     .with_dep(1);
/// assert_eq!(op.deps(), [1, 0]);
/// assert!(op.kind().is_store());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroOp {
    kind: OpKind,
    pc: u64,
    deps: [u16; 2],
    wrong_path: bool,
}

impl MicroOp {
    /// Creates a µop with no dependencies.
    pub fn new(kind: OpKind, pc: u64) -> Self {
        Self {
            kind,
            pc,
            deps: [0, 0],
            wrong_path: false,
        }
    }

    /// Marks this µop as wrong-path: fetched down a mispredicted branch,
    /// executed speculatively, and squashed before commit. Wrong-path
    /// µops never enter the ROB or the store buffer and never count as
    /// committed work; they exist so speculation-side effects (the RFOs
    /// an at-execute or SPB-style policy issues for them) can be modeled
    /// and attributed.
    #[must_use]
    pub(crate) fn with_wrong_path(mut self) -> Self {
        self.wrong_path = true;
        self
    }

    /// Whether this µop is on the wrong path: synthesized by the squash
    /// model, never committed.
    pub fn is_wrong_path(&self) -> bool {
        self.wrong_path
    }

    /// Adds a backward dependency distance, filling the first free slot.
    ///
    /// A µop has at most two dependency slots; further calls overwrite
    /// the second slot. Distance `0` is ignored (means "no dep").
    #[must_use]
    pub fn with_dep(mut self, distance: u16) -> Self {
        if distance == 0 {
            return self;
        }
        if self.deps[0] == 0 {
            self.deps[0] = distance;
        } else {
            self.deps[1] = distance;
        }
        self
    }

    /// The operation payload.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The program counter this µop was "fetched" from. Used for
    /// prefetcher training and for the Figure 3 attribution of stalls to
    /// code regions.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Backward dependency distances (`0` = unused slot).
    pub fn deps(&self) -> [u16; 2] {
        self.deps
    }

    /// The cache-block address (`addr / 64`) for memory µops.
    pub fn block(&self) -> Option<u64> {
        self.kind.addr().map(|a| a / BLOCK_BYTES)
    }

    /// The page address (`addr / 4096`) for memory µops.
    pub fn page(&self) -> Option<u64> {
        self.kind.addr().map(|a| a / PAGE_BYTES)
    }
}

impl fmt::Display for MicroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            OpKind::IntAlu { latency } => write!(f, "int({latency}c)"),
            OpKind::FpAlu { latency } => write!(f, "fp({latency}c)"),
            OpKind::Load { addr, size } => write!(f, "ld [{addr:#x}]/{size}"),
            OpKind::Store { addr, size } => write!(f, "st [{addr:#x}]/{size}"),
            OpKind::Branch { mispredict } => {
                write!(f, "br{}", if mispredict { "!miss" } else { "" })
            }
        }?;
        write!(f, " @{:#x}", self.pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_page_derive_from_address() {
        let op = MicroOp::new(
            OpKind::Store {
                addr: 4096 + 65,
                size: 8,
            },
            0,
        );
        assert_eq!(op.block(), Some((4096 + 65) / 64));
        assert_eq!(op.page(), Some(1));
    }

    #[test]
    fn non_mem_ops_have_no_address() {
        let op = MicroOp::new(OpKind::IntAlu { latency: 1 }, 0);
        assert_eq!(op.block(), None);
        assert_eq!(op.page(), None);
    }

    #[test]
    fn with_dep_fills_slots_in_order() {
        let op = MicroOp::new(OpKind::Branch { mispredict: false }, 0)
            .with_dep(3)
            .with_dep(7);
        assert_eq!(op.deps(), [3, 7]);
    }

    #[test]
    fn with_dep_ignores_zero() {
        let op = MicroOp::new(OpKind::IntAlu { latency: 1 }, 0).with_dep(0);
        assert_eq!(op.deps(), [0, 0]);
    }

    #[test]
    fn kind_predicates() {
        assert!(OpKind::Load { addr: 0, size: 8 }.is_load());
        assert!(OpKind::Store { addr: 0, size: 8 }.is_store());
        assert!(!OpKind::Branch { mispredict: true }.is_load());
    }

    #[test]
    fn display_shows_kind_and_pc() {
        let op = MicroOp::new(
            OpKind::Load {
                addr: 0x40,
                size: 8,
            },
            0x400123,
        );
        let s = format!("{op}");
        assert!(s.contains("ld"));
        assert!(s.contains("0x400123"));
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(BLOCKS_PER_PAGE, 64);
        assert_eq!(PAGE_BYTES % BLOCK_BYTES, 0);
    }
}
