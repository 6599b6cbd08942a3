//! Code-region attribution of program counters.
//!
//! Figure 3 of the paper breaks down SB-induced stall cycles by *where*
//! the offending store lives: `memcpy`, `memset`, `calloc`, the kernel's
//! `clear_page`, or the application itself. The synthetic generators
//! stamp each µop with a PC from a region-specific range so the simulator
//! can reproduce that attribution.

use std::fmt;

/// The code region a program counter belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeRegion {
    /// Application text.
    Application,
    /// `memcpy` in the C library.
    Memcpy,
    /// `memset` in the C library.
    Memset,
    /// `calloc` in the C library (allocation + zeroing).
    Calloc,
    /// The kernel's `clear_page` routine (zeroes a page on first touch).
    ClearPage,
}

impl CodeRegion {
    /// All regions in Figure 3's legend order.
    pub const ALL: [CodeRegion; 5] = [
        CodeRegion::Application,
        CodeRegion::Memcpy,
        CodeRegion::Memset,
        CodeRegion::Calloc,
        CodeRegion::ClearPage,
    ];

    /// This region's position in [`CodeRegion::ALL`], and so in every
    /// array kept parallel to it (the Figure 3 per-region counters).
    #[inline]
    pub const fn index(self) -> usize {
        // `ALL` lists the variants in declaration order.
        self as usize
    }

    /// Base of this region's PC range.
    pub fn pc_base(self) -> u64 {
        match self {
            CodeRegion::Application => 0x0000_0000_0040_0000,
            CodeRegion::Memcpy => 0x0000_7f00_0001_0000,
            CodeRegion::Memset => 0x0000_7f00_0002_0000,
            CodeRegion::Calloc => 0x0000_7f00_0003_0000,
            CodeRegion::ClearPage => 0xffff_ffff_8100_0000,
        }
    }

    /// Size of each region's PC range in bytes.
    pub const PC_RANGE: u64 = 0x1_0000;

    /// Classifies a program counter into its region.
    ///
    /// PCs outside every synthetic range are attributed to the
    /// application, matching how profilers bucket unknown text.
    pub fn of_pc(pc: u64) -> CodeRegion {
        for region in [
            CodeRegion::Memcpy,
            CodeRegion::Memset,
            CodeRegion::Calloc,
            CodeRegion::ClearPage,
        ] {
            let base = region.pc_base();
            if (base..base + Self::PC_RANGE).contains(&pc) {
                return region;
            }
        }
        CodeRegion::Application
    }

    /// A PC inside this region at byte offset `off` (wrapped into range).
    pub fn pc_at(self, off: u64) -> u64 {
        self.pc_base() + (off % Self::PC_RANGE)
    }

    /// Whether the region is library or kernel code (not the app).
    pub fn is_system(self) -> bool {
        !matches!(self, CodeRegion::Application)
    }
}

impl fmt::Display for CodeRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CodeRegion::Application => "application",
            CodeRegion::Memcpy => "memcpy",
            CodeRegion::Memset => "memset",
            CodeRegion::Calloc => "calloc",
            CodeRegion::ClearPage => "clear_page",
        };
        f.write_str(s)
    }
}

/// Virtual address-space layout used by the synthetic workloads.
///
/// Keeping data regions disjoint guarantees generators never alias one
/// another accidentally; the `roms` pathology creates aliasing *on
/// purpose* via cache-set geometry, not via address overlap.
#[derive(Debug, Clone, Copy)]
pub struct AddressSpace;

impl AddressSpace {
    /// Base of statically allocated arrays (streaming sources).
    pub const DATA_BASE: u64 = 0x0000_0001_0000_0000;
    /// Base of the heap (copy destinations, containers).
    pub const HEAP_BASE: u64 = 0x0000_0002_0000_0000;
    /// Base of a second heap arena (copy sources).
    pub const ARENA_BASE: u64 = 0x0000_0003_0000_0000;
    /// Base of pointer-chase node pools.
    pub const POOL_BASE: u64 = 0x0000_0004_0000_0000;
    /// Stack top (stacks grow down from here).
    pub const STACK_TOP: u64 = 0x0000_7ffd_0000_0000;
    /// Per-thread spacing so threads never share private regions.
    pub const THREAD_STRIDE: u64 = 0x0000_0000_4000_0000;
    /// Base of pages shared read-mostly between PARSEC threads.
    pub const SHARED_BASE: u64 = 0x0000_0005_0000_0000;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_pc_round_trips_every_region() {
        for region in CodeRegion::ALL {
            let pc = region.pc_at(0x123);
            assert_eq!(CodeRegion::of_pc(pc), region, "region {region}");
        }
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, region) in CodeRegion::ALL.into_iter().enumerate() {
            assert_eq!(region.index(), i);
            assert_eq!(CodeRegion::ALL[region.index()], region);
        }
    }

    #[test]
    fn unknown_pc_is_application() {
        assert_eq!(CodeRegion::of_pc(0xdead_beef_0000), CodeRegion::Application);
    }

    #[test]
    fn pc_at_wraps_within_range() {
        let pc = CodeRegion::Memset.pc_at(CodeRegion::PC_RANGE + 5);
        assert_eq!(pc, CodeRegion::Memset.pc_base() + 5);
    }

    #[test]
    fn system_classification() {
        assert!(!CodeRegion::Application.is_system());
        assert!(CodeRegion::ClearPage.is_system());
        assert!(CodeRegion::Memcpy.is_system());
    }

    #[test]
    fn data_regions_are_disjoint() {
        let bases = [
            AddressSpace::DATA_BASE,
            AddressSpace::HEAP_BASE,
            AddressSpace::ARENA_BASE,
            AddressSpace::POOL_BASE,
            AddressSpace::SHARED_BASE,
        ];
        for w in bases.windows(2) {
            assert!(w[1] - w[0] >= 0x1_0000_0000);
        }
    }

    #[test]
    fn display_matches_figure3_legend() {
        assert_eq!(CodeRegion::ClearPage.to_string(), "clear_page");
        assert_eq!(CodeRegion::Memcpy.to_string(), "memcpy");
    }
}
