//! Bounded per-worker record storage.

use crate::event::TraceEvent;
use crate::log::EventLog;

/// A bounded ring buffer of trace records, owned by exactly one worker.
///
/// Recording is one 24-byte store into an [`EventLog`] (the buffer is
/// unshared until the run ends), so the hot path takes no lock and issues
/// no atomic operation. Memory is bounded: the log grows lazily up to
/// `capacity` records and then wraps. A task run is one record.
///
/// **Overflow policy: overwrite-oldest.** Once full, each new record
/// replaces the oldest one and bumps the `overwritten` counter — the tail
/// of a run is always retained (that is where hangs and stragglers live),
/// and the drained trace reports exactly how many early records were lost.
/// A trace with `overwritten > 0` fails strict validation, by design.
#[derive(Debug, Clone, PartialEq)]
pub struct RingBuffer {
    capacity: usize,
    log: EventLog,
    /// Index of the oldest record once the buffer has wrapped.
    head: usize,
    overwritten: u64,
}

impl RingBuffer {
    /// A ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        RingBuffer {
            capacity: capacity.max(1),
            log: EventLog::default(),
            head: 0,
            overwritten: 0,
        }
    }

    /// Keeps one record.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.log.len() < self.capacity {
            self.log.push(event);
        } else {
            self.log.overwrite_oldest(self.head, event);
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Records lost to the overwrite-oldest policy.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Drains the ring into recording order (oldest retained record first).
    pub fn into_events(mut self) -> (EventLog, u64) {
        self.log.rotate_left(self.head);
        (self.log, self.overwritten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            ts,
            kind: EventKind::Park,
        }
    }

    #[test]
    fn stores_in_order_below_capacity() {
        let mut r = RingBuffer::new(8);
        for i in 0..5 {
            r.push(ev(i));
        }
        let (events, overwritten) = r.into_events();
        assert_eq!(overwritten, 0);
        assert_eq!(
            events.iter().map(|e| e.ts).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut r = RingBuffer::new(4);
        for i in 0..10 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 6);
        let (events, overwritten) = r.into_events();
        assert_eq!(overwritten, 6);
        // The newest 4 events survive, in order.
        assert_eq!(
            events.iter().map(|e| e.ts).collect::<Vec<_>>(),
            [6, 7, 8, 9]
        );
    }

    #[test]
    fn zero_capacity_clamped() {
        let mut r = RingBuffer::new(0);
        r.push(ev(1));
        r.push(ev(2));
        let (events, overwritten) = r.into_events();
        assert_eq!(events.iter().map(|e| e.ts).collect::<Vec<_>>(), [2]);
        assert_eq!(overwritten, 1);
    }

    #[test]
    fn an_overwritten_phase_releases_its_name() {
        let phase = |ts: u64| TraceEvent {
            ts,
            kind: EventKind::PhaseStart {
                name: format!("p{ts}"),
            },
        };
        let mut r = RingBuffer::new(3);
        for e in [phase(0), ev(1), phase(2), phase(3), ev(4)] {
            r.push(e);
        }
        let (events, overwritten) = r.into_events();
        assert_eq!(overwritten, 2);
        assert_eq!(events.out_of_line(), 2);
        assert_eq!(events, EventLog::from(vec![phase(2), phase(3), ev(4)]));
    }
}
