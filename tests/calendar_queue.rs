//! Differential properties of the calendar-queue event queue.
//!
//! The calendar [`EventQueue`] replaced the `BinaryHeap` queue as the sim
//! core's virtual-time engine (the million-task throughput work); the heap
//! implementation is kept below as [`HeapEventQueue`] precisely so these
//! tests can hold the two against each other:
//!
//! * **proptest** — on random schedules (including bursts of simultaneous
//!   timestamps and interleaved schedule/pop sequences), both queues
//!   dequeue the identical `(time, payload)` stream;
//! * **hold model** — a long pop-one/schedule-one run with exponential
//!   increments keeps agreeing step for step, exercising the calendar's
//!   automatic rebuilds at a steady population.

use proptest::prelude::*;
use simhw::events::EventQueue;
use simhw::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delta` (delta may be zero: simultaneous events).
    Schedule { delta_ns: u64 },
    /// Pop the minimum (no-op when empty).
    Pop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // kind 0..3: schedule a near-now delta (skewed toward zero so
    // simultaneous timestamps are common); 3..5: schedule a far delta;
    // 5..8: pop.
    (0u8..8, 0u64..50, 0u64..2_000_000).prop_map(|(kind, near_ns, far_ns)| match kind {
        0..=2 => Op::Schedule { delta_ns: near_ns },
        3 | 4 => Op::Schedule { delta_ns: far_ns },
        _ => Op::Pop,
    })
}

proptest! {
    /// Identical dequeue order on arbitrary interleavings of schedules
    /// (many at equal timestamps) and pops.
    #[test]
    fn calendar_matches_heap_on_random_streams(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        let mut next_payload = 0u32;
        for op in &ops {
            match op {
                Op::Schedule { delta_ns } => {
                    let at = cal.now() + simhw::Duration::new(*delta_ns as f64 * 1e-9);
                    prop_assert_eq!(cal.now(), heap.now());
                    cal.schedule(at, next_payload);
                    heap.schedule(at, next_payload);
                    next_payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
        }
        // Drain: the remaining streams must agree to the end.
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h);
            if c.is_none() {
                break;
            }
        }
    }
}

/// Deterministic splitmix64 — the repo-wide reproducible RNG idiom.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Steady-state hold run: grows to 10k pending events, then pops and
/// reschedules 100k times with exponential increments. Step-for-step
/// agreement across the calendar's bucket-width rebuilds.
#[test]
fn hold_model_agrees_across_rebuilds() {
    let mut cal: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    let mut rng = Rng(0xCA1E_4DA5);
    for i in 0..10_000u32 {
        let at = SimTime::new(1e-6 * -(1.0 - rng.unit_f64()).ln());
        cal.schedule(at, i);
        heap.schedule(at, i);
    }
    for _ in 0..100_000 {
        let c = cal.pop().expect("population is constant");
        let h = heap.pop().expect("population is constant");
        assert_eq!(c, h);
        let (at, payload) = c;
        let next = at + simhw::Duration::new(1e-6 * -(1.0 - rng.unit_f64()).ln());
        cal.schedule(next, payload);
        heap.schedule(next, payload);
    }
    assert_eq!(cal.len(), heap.len());
}

#[test]
#[should_panic(expected = "into the past")]
fn heap_scheduling_into_the_past_panics() {
    let mut q = HeapEventQueue::new();
    q.schedule(SimTime::new(5.0), ());
    q.pop();
    q.schedule(SimTime::new(1.0), ());
}

/// Deterministic PRNG so the differential test reproduces exactly.
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
fn calendar_matches_heap_on_interleaved_streams() {
    // Random interleaving of bursts of schedules (with deliberate
    // time ties) and pops; the calendar queue must pop the exact same
    // (time, payload) sequence as the heap reference.
    let mut rng = Lcg(0x5eed_cafe);
    let mut cal: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    let mut id = 0u32;
    for _ in 0..20_000 {
        let op = rng.next() % 100;
        if op < 60 {
            let horizon = match rng.next() % 3 {
                0 => 1e-6,
                1 => 1.0,
                _ => 1e4,
            };
            let mut at = cal.now() + simhw::Duration::new(rng.f64() * horizon);
            if rng.next().is_multiple_of(4) {
                // Force an exact tie with the current clock.
                at = cal.now();
            }
            cal.schedule(at, id);
            heap.schedule(at, id);
            id += 1;
        } else {
            assert_eq!(cal.pop(), heap.pop());
        }
        assert_eq!(cal.len(), heap.len());
        assert_eq!(cal.peek_time(), heap.peek_time());
    }
    loop {
        let (a, b) = (cal.pop(), heap.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

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
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The original `BinaryHeap`-backed event queue: the same API and the same
/// deterministic order as [`EventQueue`], which the tests here hold the
/// calendar queue to.
#[derive(Debug, Clone)]
struct HeapEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> HeapEventQueue<E> {
    /// An empty queue at time zero.
    fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the fire time of the last popped event.
    fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past (before [`now`](Self::now)).
    fn schedule(&mut self, at: SimTime, payload: E) {
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
    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.payload))
    }

    /// Fire time of the next event, without popping.
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    fn len(&self) -> usize {
        self.heap.len()
    }
}
