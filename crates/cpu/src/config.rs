//! Core configurations: Table I's Skylake-X plus the Table II sweep.

/// Structural parameters of one out-of-order core.
///
/// Defaults mirror the paper's Table I (Skylake-X-like); the named
/// constructors provide the Table II sensitivity configurations
/// (Silvermont, Nehalem, Haswell, Skylake, Sunny Cove).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// µops dispatched (renamed into the ROB) per cycle.
    pub dispatch_width: u32,
    /// µops committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Issue-queue (reservation-station) entries.
    pub iq_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Unified store-queue / store-buffer entries. This is the paper's
    /// central knob: 56 for SB56, 28 for SB28, 14 for SB14, 1024 for the
    /// ideal SB.
    pub sb_entries: usize,
    /// Physical integer registers.
    pub int_regs: usize,
    /// Physical floating-point registers.
    pub fp_regs: usize,
    /// Front-end refill penalty after a mispredicted branch resolves.
    pub redirect_penalty: u64,
    /// Non-speculative store coalescing in the SB (Ros & Kaxiras,
    /// ISCA'18 — the paper's §VII-B comparison point): a committing
    /// store whose block matches the SB tail merges into it instead of
    /// occupying a new entry, and the merged group drains as one write.
    pub coalescing: bool,
}

impl CoreConfig {
    /// Skylake-X-like core (Table I / Table II "SKL").
    pub fn skylake() -> Self {
        Self {
            dispatch_width: 4,
            commit_width: 4,
            rob_entries: 224,
            iq_entries: 97,
            lq_entries: 72,
            sb_entries: 56,
            int_regs: 180,
            fp_regs: 180,
            redirect_penalty: 12,
            coalescing: false,
        }
    }

    /// Silvermont-like energy-efficient core (Table II "SLM").
    pub(crate) fn silvermont() -> Self {
        Self {
            dispatch_width: 4,
            commit_width: 4,
            rob_entries: 32,
            iq_entries: 15,
            lq_entries: 10,
            sb_entries: 16,
            int_regs: 64,
            fp_regs: 64,
            redirect_penalty: 10,
            coalescing: false,
        }
    }

    /// Nehalem-like core (Table II "NHL").
    pub(crate) fn nehalem() -> Self {
        Self {
            dispatch_width: 4,
            commit_width: 4,
            rob_entries: 128,
            iq_entries: 32,
            lq_entries: 48,
            sb_entries: 36,
            int_regs: 128,
            fp_regs: 128,
            redirect_penalty: 12,
            coalescing: false,
        }
    }

    /// Haswell-like core (Table II "HSW").
    pub(crate) fn haswell() -> Self {
        Self {
            dispatch_width: 8,
            commit_width: 8,
            rob_entries: 192,
            iq_entries: 60,
            lq_entries: 72,
            sb_entries: 42,
            int_regs: 168,
            fp_regs: 168,
            redirect_penalty: 12,
            coalescing: false,
        }
    }

    /// Sunny-Cove-like core (Table II "SNC").
    pub(crate) fn sunny_cove() -> Self {
        Self {
            dispatch_width: 8,
            commit_width: 8,
            rob_entries: 352,
            iq_entries: 128,
            lq_entries: 128,
            sb_entries: 72,
            int_regs: 280,
            fp_regs: 224,
            redirect_penalty: 14,
            coalescing: false,
        }
    }

    /// Returns a copy with a different SB size (the per-thread SB of an
    /// SMT configuration, or the ideal 1024-entry SB).
    #[must_use]
    pub fn with_sb_entries(mut self, sb_entries: usize) -> Self {
        self.sb_entries = sb_entries;
        self
    }

    /// Returns a copy with non-speculative store coalescing enabled.
    #[must_use]
    pub fn with_coalescing(mut self) -> Self {
        self.coalescing = true;
        self
    }

    /// The Table II sweep in the paper's order, with their display names.
    pub fn table2() -> [(&'static str, CoreConfig); 5] {
        [
            ("SLM", Self::silvermont()),
            ("NHL", Self::nehalem()),
            ("HSW", Self::haswell()),
            ("SKL", Self::skylake()),
            ("SNC", Self::sunny_cove()),
        ]
    }

    /// Validates structural sanity.
    ///
    /// # Panics
    ///
    /// Panics if any width or queue is zero.
    pub fn validate(&self) {
        assert!(
            self.dispatch_width > 0 && self.commit_width > 0,
            "widths must be positive"
        );
        assert!(
            self.rob_entries > 0
                && self.iq_entries > 0
                && self.lq_entries > 0
                && self.sb_entries > 0,
            "queues must be positive"
        );
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::skylake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_matches_table1() {
        let c = CoreConfig::skylake();
        assert_eq!(c.rob_entries, 224);
        assert_eq!(c.iq_entries, 97);
        assert_eq!(c.lq_entries, 72);
        assert_eq!(c.sb_entries, 56);
        assert_eq!(c.dispatch_width, 4);
    }

    #[test]
    fn table2_is_ordered_by_aggressiveness() {
        let sweep = CoreConfig::table2();
        let robs: Vec<usize> = sweep.iter().map(|(_, c)| c.rob_entries).collect();
        assert!(
            robs.windows(2).all(|w| w[0] < w[1]),
            "ROB sizes must ascend: {robs:?}"
        );
        assert_eq!(sweep[0].0, "SLM");
        assert_eq!(sweep[4].0, "SNC");
    }

    #[test]
    fn with_sb_entries_only_changes_sb() {
        let base = CoreConfig::skylake();
        let half = base.with_sb_entries(28);
        assert_eq!(half.sb_entries, 28);
        assert_eq!(half.rob_entries, base.rob_entries);
    }

    #[test]
    fn all_presets_validate() {
        for (_, c) in CoreConfig::table2() {
            c.validate();
        }
    }

    #[test]
    #[should_panic(expected = "queues must be positive")]
    fn zero_sb_fails_validation() {
        let mut c = CoreConfig::skylake();
        c.sb_entries = 0;
        c.validate();
    }
}
