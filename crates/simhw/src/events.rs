//! A deterministic discrete-event queue.
//!
//! Events fire in time order; ties break by insertion sequence, so
//! simulations are reproducible regardless of payload type. Used by the
//! event-driven runtime engine (`hetero-rt`'s dynamic engine) and available
//! for any future simulator component.
//!
//! [`EventQueue`] is a *calendar queue* (Brown 1988): fire times hash into
//! fixed-width buckets, so enqueue and dequeue are O(1) amortized instead
//! of the O(log n) of a binary heap. Bucket count and bucket width resize
//! automatically as the population grows, shrinks, or drifts. The
//! `BinaryHeap` queue it replaced — same API, same observable order — is
//! `HeapEventQueue` in `tests/calendar_queue.rs`, the reference those
//! differential tests hold this queue to.

use crate::time::SimTime;
use std::collections::VecDeque;

/// A pending event: fire time + stable sequence number + payload.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// Smallest bucket count the calendar ever uses.
const MIN_BUCKETS: usize = 16;
/// Consecutive linear-search fallbacks tolerated before the calendar
/// re-derives its bucket width from the live population.
const STALE_LIMIT: u32 = 8;

/// A time-ordered event queue with deterministic tie-breaking, backed by a
/// calendar of time buckets.
///
/// Fire times map to buckets via `floor(at / width) mod nbuckets`; each
/// bucket keeps its events sorted by `(time, seq)` so the front is the
/// bucket minimum. Dequeue walks virtual buckets forward from the current
/// clock, which visits at most one bucket per *occupied* time slice —
/// O(1) amortized when the width matches the event spacing. The calendar
/// rebuilds (new bucket count and width) when the population doubles or
/// quarters, and re-derives the width when too many dequeues in a row had
/// to fall back to a full scan because the spacing drifted.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    buckets: Vec<VecDeque<Entry<E>>>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    /// Bucket width in seconds; strictly positive and finite.
    width: f64,
    /// Cached `1.0 / width`: `vb_of` runs on every schedule and every
    /// dequeue-scan probe, and an f64 multiply is several times cheaper
    /// than the divide it replaces.
    inv_width: f64,
    len: usize,
    seq: u64,
    now: SimTime,
    /// Virtual bucket (`floor(t / width)`, un-masked) where the next
    /// dequeue scan resumes. Invariant: `cursor <= vb(min pending time)`.
    cursor: u64,
    /// Consecutive dequeues that needed the linear fallback.
    stale: u32,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            width: 1.0,
            inv_width: 1.0,
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            cursor: 0,
            stale: 0,
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

    /// Virtual (un-masked) bucket index of a fire time.
    fn vb_of(&self, t: SimTime) -> u64 {
        let q = t.seconds() * self.inv_width;
        // Absurdly distant times saturate; the dequeue scan's equality
        // check then routes them through the linear fallback, which stays
        // correct (just slower) for such outliers.
        if q >= u64::MAX as f64 {
            u64::MAX
        } else {
            q as u64
        }
    }

    /// Inserts into a bucket, keeping it sorted ascending by `(at, seq)`.
    ///
    /// New events carry the largest sequence number so far, so anything
    /// scheduled at or after the bucket's current tail is a pure
    /// `push_back` — including floods of simultaneous events.
    fn bucket_insert(bucket: &mut VecDeque<Entry<E>>, e: Entry<E>) {
        let in_order = bucket
            .back()
            .is_none_or(|last| (last.at, last.seq) <= (e.at, e.seq));
        if in_order {
            bucket.push_back(e);
        } else {
            let pos = bucket.partition_point(|x| (x.at, x.seq) < (e.at, e.seq));
            bucket.insert(pos, e);
        }
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
        let e = Entry {
            at,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        let idx = (self.vb_of(at) & self.mask) as usize;
        Self::bucket_insert(&mut self.buckets[idx], e);
        self.len += 1;
        if self.len > self.buckets.len() * 2 {
            self.rebuild();
        }
    }

    /// Finds the bucket holding the globally minimal `(at, seq)` entry.
    ///
    /// Returns `(bucket index, needed linear fallback)`. The forward scan
    /// visits virtual buckets starting at `cursor`; because every pending
    /// event's virtual bucket is `>= cursor`, the first bucket whose front
    /// belongs to the scanned time slice holds the global minimum. If a
    /// whole calendar "year" is empty (sparse far-future events), fall
    /// back to comparing all bucket fronts.
    fn locate_min(&self) -> Option<(usize, bool)> {
        if self.len == 0 {
            return None;
        }
        let mut vb = self.cursor;
        for _ in 0..self.buckets.len() {
            let idx = (vb & self.mask) as usize;
            if let Some(front) = self.buckets[idx].front() {
                if self.vb_of(front.at) == vb {
                    return Some((idx, false));
                }
            }
            vb = vb.wrapping_add(1);
        }
        let mut best: Option<usize> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(f) = b.front() {
                let better = match best {
                    None => true,
                    Some(j) => {
                        let g = self.buckets[j].front().expect("best bucket is non-empty");
                        (f.at, f.seq) < (g.at, g.seq)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        best.map(|i| (i, true))
    }

    /// Pops the next event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (idx, fell_back) = self.locate_min()?;
        let e = self.buckets[idx]
            .pop_front()
            .expect("located bucket is non-empty");
        self.len -= 1;
        self.now = e.at;
        self.cursor = self.vb_of(e.at);
        if fell_back {
            self.stale += 1;
        } else {
            self.stale = 0;
        }
        // Adapt: shrink when mostly drained, or re-derive the width when
        // the spacing has drifted so far that scans keep missing.
        if (self.buckets.len() > MIN_BUCKETS && self.len * 4 < self.buckets.len())
            || self.stale >= STALE_LIMIT
        {
            self.rebuild();
        }
        Some((e.at, e.payload))
    }

    /// Fire time of the next event, without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.locate_min().map(|(i, _)| {
            self.buckets[i]
                .front()
                .expect("located bucket is non-empty")
                .at
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-sizes the calendar to match the live population and re-derives
    /// the bucket width from the spread of pending fire times.
    fn rebuild(&mut self) {
        let n = self.len.next_power_of_two().max(MIN_BUCKETS);
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in &all {
            lo = lo.min(e.at.seconds());
            hi = hi.max(e.at.seconds());
        }
        if all.len() >= 2 && hi > lo {
            // Aim for ~3 average inter-event gaps per bucket, so one
            // calendar year (nbuckets * width) covers the whole pending
            // horizon. Floors keep `t / width` well inside u64 range.
            self.width = (3.0 * (hi - lo) / all.len() as f64)
                .max(hi / 1e12)
                .max(1e-18);
        } else if hi > 0.0 {
            self.width = self.width.max(hi / 1e12);
        }
        self.inv_width = 1.0 / self.width;
        if self.buckets.len() != n {
            self.buckets = (0..n).map(|_| VecDeque::new()).collect();
            self.mask = (n - 1) as u64;
        }
        self.cursor = self.vb_of(self.now);
        self.stale = 0;
        for e in all {
            let idx = (self.vb_of(e.at) & self.mask) as usize;
            Self::bucket_insert(&mut self.buckets[idx], e);
        }
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
    fn peek_and_len() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(t(2.0), 7);
        q.schedule(t(1.0), 8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(1.0)));
        assert_eq!(q.pop(), Some((t(1.0), 8)));
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
        // Events separated by years of empty buckets exercise the linear
        // fallback and the width re-derivation.
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
