//! Differential properties of the calendar-queue event queue.
//!
//! The calendar [`EventQueue`] replaced the `BinaryHeap` queue as the sim
//! core's virtual-time engine (the million-task throughput work); the heap
//! implementation is kept as [`HeapEventQueue`] in `bench::baseline`
//! precisely so these tests can hold the two against each other:
//!
//! * **proptest** — on random schedules (including bursts of simultaneous
//!   timestamps and interleaved schedule/pop sequences), both queues
//!   dequeue the identical `(time, payload)` stream;
//! * **hold model** — a long pop-one/schedule-one run with exponential
//!   increments keeps agreeing step for step, exercising the calendar's
//!   automatic rebuilds at a steady population.

use bench::baseline::HeapEventQueue;
use proptest::prelude::*;
use simhw::events::EventQueue;
use simhw::SimTime;

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
