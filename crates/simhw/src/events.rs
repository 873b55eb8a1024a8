//! A deterministic discrete-event queue.
//!
//! Events fire in time order; ties break by insertion sequence, so
//! simulations are reproducible regardless of payload type. Used by the
//! event-driven runtime engine (`hetero-rt`'s dynamic engine).
//!
//! [`EventQueue`] is a binary min-heap keyed by `(time, sequence)`. Online
//! dispatch binds a task only to an idle device, so the engine holds about
//! one pending completion per device: at most 64 on the 384-device
//! many-core testbed, where O(log n) is a handful of comparisons.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A pending event: fire time + stable sequence number + payload, ordered
/// by the first two.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time: the fire time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past (before [`now`](Self::now)) — events
    /// may only be scheduled forward.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            payload,
        }));
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(q.now(), t(3.0));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "first");
        q.schedule(t(1.0), "second");
        q.schedule(t(1.0), "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), ());
        q.pop();
        // Scheduling at the current time is fine; before it is not.
        q.schedule(t(5.0), ());
        q.pop();
        assert_eq!(q.now(), t(5.0));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), ());
        q.pop();
        q.schedule(t(1.0), ());
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.schedule(t(2.0), 7);
        q.schedule(t(1.0), 8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1.0), 8)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn cascading_schedules_during_drain() {
        // Popping an event may schedule follow-ups — the standard
        // discrete-event pattern.
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 0u32);
        let mut fired = Vec::new();
        while let Some((at, gen)) = q.pop() {
            fired.push((at.seconds(), gen));
            if gen < 3 {
                q.schedule(at + Duration::new(1.0), gen + 1);
            }
        }
        assert_eq!(fired, vec![(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]);
    }

    /// Deterministic PRNG so the stream tests reproduce exactly.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
        fn f64(&mut self) -> f64 {
            (self.next() % (1 << 20)) as f64 / (1 << 20) as f64
        }
    }

    #[test]
    fn flood_of_simultaneous_events_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10_000u32 {
            q.schedule(t(2.5), i);
        }
        for i in 0..10_000u32 {
            assert_eq!(q.pop(), Some((t(2.5), i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn sparse_far_future_jumps() {
        // Fire times a billion seconds apart, far beyond any simulated
        // makespan, still pop in order and keep their exact values.
        let mut q = EventQueue::new();
        for i in 0..64u32 {
            q.schedule(t(f64::from(i) * 1e9), i);
        }
        for i in 0..64u32 {
            assert_eq!(q.pop(), Some((t(f64::from(i) * 1e9), i)));
        }
    }

    #[test]
    fn grow_and_shrink_roundtrip() {
        // Fill to 50k pending events, far past any engine's population,
        // then drain: the clock never runs backwards and nothing is lost.
        let mut rng = Lcg(42);
        let mut q = EventQueue::new();
        for i in 0..50_000u32 {
            q.schedule(t(rng.f64() * 1e3), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0usize;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last.0, "order violated: {at} after {}", last.0);
            last = (at, 0);
            popped += 1;
        }
        assert_eq!(popped, 50_000);
    }

    #[test]
    fn clone_is_independent() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 1u32);
        q.schedule(t(2.0), 2u32);
        let mut c = q.clone();
        assert_eq!(c.pop(), Some((t(1.0), 1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
    }
}
