//! Serializing resources (device timelines, link timelines).
//!
//! A [`Timeline`] models a resource that executes one occupancy at a time —
//! a device computing or a link carrying a transfer. List-scheduling
//! simulators reserve intervals; the timeline tracks the earliest free time.

use crate::time::{Duration, SimTime};

/// A single-server resource in virtual time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    free_at: SimTime,
}

impl Timeline {
    /// A timeline free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest time a new occupancy can start.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Earliest completion if an occupancy of `duration` were requested at
    /// `ready` — without reserving.
    pub fn probe(&self, ready: SimTime, duration: Duration) -> (SimTime, SimTime) {
        let start = ready.max(self.free_at);
        (start, start + duration)
    }

    /// Reserves an occupancy of `duration` not earlier than `ready`.
    /// Returns the `(start, end)` actually granted.
    pub fn reserve(&mut self, ready: SimTime, duration: Duration) -> (SimTime, SimTime) {
        let (start, end) = self.probe(ready, duration);
        self.free_at = end;
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_occupancies() {
        let mut t = Timeline::new();
        let (s1, e1) = t.reserve(SimTime::ZERO, Duration::new(2.0));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1.seconds(), 2.0);
        // Second request at t=1 must wait until 2.
        let (s2, e2) = t.reserve(SimTime::new(1.0), Duration::new(1.0));
        assert_eq!(s2.seconds(), 2.0);
        assert_eq!(e2.seconds(), 3.0);
        assert_eq!(t.free_at().seconds(), 3.0);
    }

    #[test]
    fn respects_ready_time_gaps() {
        let mut t = Timeline::new();
        t.reserve(SimTime::ZERO, Duration::new(1.0));
        // Ready long after the resource is free: starts at ready.
        let (s, _) = t.reserve(SimTime::new(10.0), Duration::new(1.0));
        assert_eq!(s.seconds(), 10.0);
    }

    #[test]
    fn probe_does_not_reserve() {
        let t = Timeline::new();
        let (s, e) = t.probe(SimTime::new(5.0), Duration::new(1.0));
        assert_eq!(s.seconds(), 5.0);
        assert_eq!(e.seconds(), 6.0);
        assert_eq!(t.free_at(), SimTime::ZERO);
        let _ = (s, e);
    }

    #[test]
    fn zero_duration_reservations() {
        let mut t = Timeline::new();
        let (s, e) = t.reserve(SimTime::new(1.0), Duration::ZERO);
        assert_eq!(s, e);
        assert_eq!(t.free_at(), e);
    }
}
