//! A bandwidth-limited DRAM port with an open-row model.
//!
//! The last level of the hierarchy is modelled as a small number of
//! channels, each able to start a new transfer every `service_interval`
//! cycles. Each channel keeps one **open row**: an access to the open
//! row pays `row_hit_latency`; any other access pays the full
//! `row_miss_latency` (precharge + activate + transfer).
//!
//! Both effects matter to the paper's phenomenon: channel queueing is
//! what makes a 64-block SPB page burst take noticeably longer than a
//! single miss, and the open row is why a *sequential* burst streams
//! faster per block than scattered misses — 4 KiB pages sit inside one
//! 8 KiB DRAM row, so a page burst is one activation plus a train of
//! row hits.

/// Configuration of the DRAM port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency of an access that misses the open row
    /// (precharge + activate + CAS + transfer).
    pub latency: u64,
    /// Latency of an access hitting the open row (CAS + transfer).
    pub row_hit_latency: u64,
    /// Cycles between successive transfer starts on one channel.
    pub service_interval: u64,
    /// Number of independent channels.
    pub channels: usize,
    /// Cache blocks per DRAM row (8 KiB row / 64 B blocks = 128).
    pub row_blocks: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        // ~85 ns row-miss / ~65 ns row-hit at 2 GHz, with bandwidth
        // typical of dual-channel DDR4: one 64 B line every ~4 cycles
        // per channel.
        Self {
            latency: 175,
            row_hit_latency: 130,
            service_interval: 4,
            channels: 2,
            row_blocks: 128,
        }
    }
}

/// The DRAM port: per-channel availability and open rows.
///
/// # Examples
///
/// ```
/// use spb_mem::dram::{DramConfig, DramPort};
///
/// let mut dram = DramPort::new(DramConfig {
///     latency: 100,
///     row_hit_latency: 60,
///     service_interval: 10,
///     channels: 1,
///     row_blocks: 128,
/// });
/// let a = dram.access(0, 0);   // row miss: opens the row
/// let b = dram.access(0, 1);   // same row: hit, but queues behind a
/// assert_eq!(a, 100);
/// assert_eq!(b, 70, "row hit at the next transfer slot");
/// ```
#[derive(Debug, Clone)]
pub struct DramPort {
    config: DramConfig,
    next_free: Vec<u64>,
    open_row: Vec<Option<u64>>,
    accesses: u64,
    row_hits: u64,
    writebacks: u64,
}

impl DramPort {
    /// Creates an idle port (all rows closed).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels, zero interval, or
    /// zero row size, or if the row-hit latency exceeds the miss
    /// latency.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "DRAM needs at least one channel");
        assert!(
            config.service_interval > 0,
            "service interval must be positive"
        );
        assert!(config.row_blocks > 0, "rows must hold at least one block");
        assert!(
            config.row_hit_latency <= config.latency,
            "a row hit cannot be slower than a row miss"
        );
        Self {
            next_free: vec![0; config.channels],
            open_row: vec![None; config.channels],
            config,
            accesses: 0,
            row_hits: 0,
            writebacks: 0,
        }
    }

    /// The port's configuration.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Total read/fill accesses serviced.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total write-backs absorbed.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Channels still servicing a request at `now` — a cheap queue-
    /// pressure reading sampled by the observability layer.
    pub(crate) fn busy_channels(&self, now: u64) -> usize {
        self.next_free.iter().filter(|&&t| t > now).count()
    }

    fn channel_and_row(&self, block: u64) -> (usize, u64) {
        let row = block / self.config.row_blocks;
        ((row as usize) % self.config.channels, row)
    }

    fn latency_for(&mut self, ch: usize, row: u64) -> u64 {
        if self.open_row[ch] == Some(row) {
            self.row_hits += 1;
            self.config.row_hit_latency
        } else {
            self.open_row[ch] = Some(row);
            self.config.latency
        }
    }

    /// Services a fill for `block` starting no earlier than `now`;
    /// returns the cycle the data arrives. Whole rows map to one
    /// channel, so a sequential burst streams row hits after its first
    /// activation.
    pub fn access(&mut self, now: u64, block: u64) -> u64 {
        self.accesses += 1;
        let (ch, row) = self.channel_and_row(block);
        let start = self.next_free[ch].max(now);
        self.next_free[ch] = start + self.config.service_interval;
        start + self.latency_for(ch, row)
    }

    /// Absorbs a write-back: consumes channel bandwidth (and the open
    /// row) but nobody waits for its completion.
    pub(crate) fn writeback(&mut self, now: u64, block: u64) {
        self.writebacks += 1;
        let (ch, row) = self.channel_and_row(block);
        let start = self.next_free[ch].max(now);
        self.next_free[ch] = start + self.config.service_interval;
        let _ = self.latency_for(ch, row);
    }

    /// Resets counters (end of warm-up) but keeps channel/row state.
    pub(crate) fn reset_counters(&mut self) {
        self.accesses = 0;
        self.row_hits = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_channel() -> DramPort {
        DramPort::new(DramConfig {
            latency: 100,
            row_hit_latency: 60,
            service_interval: 8,
            channels: 1,
            row_blocks: 128,
        })
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut d = one_channel();
        assert_eq!(d.access(5, 0), 105);
        assert_eq!(d.row_hits, 0);
    }

    #[test]
    fn same_row_accesses_hit_after_activation() {
        let mut d = one_channel();
        let a = d.access(0, 0);
        let b = d.access(0, 1);
        let c = d.access(0, 127);
        assert_eq!(a, 100);
        assert_eq!(b, 68, "row hit from the second transfer slot");
        assert_eq!(c, 76);
        assert_eq!(d.row_hits, 2);
    }

    #[test]
    fn row_conflict_pays_full_latency() {
        let mut d = one_channel();
        let _ = d.access(0, 0); // row 0 open
        let b = d.access(0, 128); // row 1: conflict
        assert_eq!(b, 108, "8 (queue) + 100 (row miss)");
        let c = d.access(0, 0); // row 0 again: conflict again
        assert_eq!(c, 116);
        assert_eq!(d.row_hits, 0);
    }

    #[test]
    fn back_to_back_accesses_queue() {
        let mut d = one_channel();
        let a = d.access(0, 0);
        let b = d.access(0, 1);
        let c = d.access(0, 2);
        assert_eq!(a, 100);
        assert_eq!(b, 68);
        assert_eq!(c, 76);
    }

    #[test]
    fn idle_gaps_do_not_accumulate_bandwidth() {
        let mut d = one_channel();
        let _ = d.access(0, 0);
        // Long idle period: the channel is free again; the row stayed open.
        let late = d.access(1000, 1);
        assert_eq!(late, 1060);
    }

    #[test]
    fn channels_interleave_by_row() {
        let mut d = DramPort::new(DramConfig {
            latency: 100,
            row_hit_latency: 60,
            service_interval: 8,
            channels: 2,
            row_blocks: 128,
        });
        let a = d.access(0, 0); // row 0 -> channel 0
        let b = d.access(0, 128); // row 1 -> channel 1
        assert_eq!(a, 100);
        assert_eq!(b, 100, "different channels serve in parallel");
    }

    #[test]
    fn writebacks_consume_bandwidth_and_rows() {
        let mut d = one_channel();
        d.writeback(0, 0);
        // The writeback opened row 0: the following fill row-hits but
        // queues behind the writeback's slot.
        let a = d.access(0, 1);
        assert_eq!(a, 68);
        assert_eq!(d.writebacks(), 1);
    }

    #[test]
    fn reset_counters_keeps_timing_and_rows() {
        let mut d = one_channel();
        let _ = d.access(0, 0);
        d.reset_counters();
        assert_eq!(d.accesses(), 0);
        assert_eq!(d.row_hits, 0);
        let b = d.access(0, 1);
        assert_eq!(b, 68, "row state survives the counter reset");
    }

    #[test]
    #[should_panic(expected = "row hit cannot be slower")]
    fn invalid_row_latency_rejected() {
        let _ = DramPort::new(DramConfig {
            latency: 50,
            row_hit_latency: 60,
            service_interval: 1,
            channels: 1,
            row_blocks: 128,
        });
    }
}
