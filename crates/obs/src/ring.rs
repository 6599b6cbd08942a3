//! A fixed-capacity ring of recent [`Event`]s.
//!
//! This is the bounded diagnostic buffer the coherence invariant checker
//! keeps: always on (when the checker is), O(1) to record, and filtered
//! per block only when a violation needs its history. It consumes the
//! same [`Event`] type as every other [`Sink`], so
//! the checker's ring is just one more consumer of the event stream.

use crate::event::{Event, EventKind};
use crate::sink::Sink;

/// A ring keeping the most recent `capacity` events.
///
/// # Examples
///
/// ```
/// use spb_obs::event::{CoherenceKind, Event};
/// use spb_obs::ring::EventLog;
///
/// let mut log = EventLog::new(4);
/// for cycle in 0..6 {
///     log.record(Event::coherence(cycle, 0, 7, CoherenceKind::FillOwned));
/// }
/// let h = log.history_for(7);
/// assert_eq!(h.len(), 4, "only the newest four survive");
/// assert!(h[0].trim_start_matches("cycle").trim_start().starts_with('2'));
/// ```
#[derive(Debug, Clone)]
pub struct EventLog {
    ring: Vec<Event>,
    capacity: usize,
    head: usize,
}

impl EventLog {
    /// A log keeping the most recent `capacity` events (0 disables
    /// recording entirely).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
        }
    }

    /// Whether events are being kept.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event (O(1), drops the oldest when full).
    pub fn record(&mut self, ev: Event) {
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Events in recording order, oldest first.
    fn iter_ordered(&self) -> impl Iterator<Item = &Event> {
        self.ring[self.head..]
            .iter()
            .chain(self.ring[..self.head].iter())
    }

    /// Formatted coherence history of `block`, oldest first.
    pub fn history_for(&self, block: u64) -> Vec<String> {
        self.iter_ordered()
            .filter_map(|e| match e.kind {
                EventKind::Coherence { block: b, kind } if b == block => {
                    Some(format!("cycle {:>10}  core {}  {}", e.cycle, e.core, kind))
                }
                _ => None,
            })
            .collect()
    }

    /// Clears the log.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
    }
}

impl Sink for EventLog {
    fn event(&mut self, ev: &Event) {
        self.record(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CoherenceKind;

    fn ev(cycle: u64, block: u64) -> Event {
        Event::coherence(cycle, 1, block, CoherenceKind::FillOwned)
    }

    #[test]
    fn ring_keeps_newest_events() {
        let mut log = EventLog::new(3);
        for c in 0..10 {
            log.record(ev(c, 5));
        }
        let h = log.history_for(5);
        assert_eq!(h.len(), 3);
        assert!(
            h[0].contains("cycle          7"),
            "oldest surviving is 7: {h:?}"
        );
        assert!(h[2].contains("cycle          9"));
    }

    #[test]
    fn history_filters_by_block_and_kind() {
        let mut log = EventLog::new(8);
        log.record(ev(1, 5));
        log.record(ev(2, 6));
        log.record(ev(3, 5));
        log.record(Event {
            cycle: 4,
            core: 0,
            kind: EventKind::SbEnqueue { occupancy: 1 },
        });
        assert_eq!(log.history_for(5).len(), 2);
        assert_eq!(log.history_for(6).len(), 1);
        assert!(log.history_for(7).is_empty());
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut log = EventLog::new(0);
        log.record(ev(1, 5));
        assert!(!log.enabled());
        assert!(log.history_for(5).is_empty());
    }

    #[test]
    fn clear_empties_the_ring() {
        let mut log = EventLog::new(4);
        log.record(ev(1, 5));
        log.clear();
        assert!(log.history_for(5).is_empty());
    }

    #[test]
    fn event_log_is_a_sink() {
        let mut log = EventLog::new(4);
        Sink::event(&mut log, &ev(3, 9));
        assert_eq!(log.history_for(9).len(), 1);
    }
}
