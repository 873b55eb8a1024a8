//! Differential properties of the sim core's event queue.
//!
//! [`EventQueue`] is held against [`Reference`], an ordered map keyed by
//! `(time bits, sequence)` that shares no code with it: for non-negative
//! finite `f64`s the IEEE 754 bit patterns order exactly as the values do,
//! so draining the map from its first key gives the contract's order (time
//! first, then insertion order) by construction.
//!
//! * **proptest** — on random schedules (including bursts of simultaneous
//!   timestamps and interleaved schedule/pop sequences), both queues
//!   dequeue the identical `(time, payload)` stream;
//! * **hold model** — a long pop-one/schedule-one run with exponential
//!   increments keeps agreeing step for step at a steady population of
//!   10k, far above what any engine holds.

use proptest::prelude::*;
use simhw::events::EventQueue;
use simhw::SimTime;
use std::collections::BTreeMap;

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
    fn queue_matches_reference_on_random_streams(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut reference: Reference<u32> = Reference::default();
        let mut next_payload = 0u32;
        for op in &ops {
            match op {
                Op::Schedule { delta_ns } => {
                    let at = queue.now() + simhw::Duration::new(*delta_ns as f64 * 1e-9);
                    prop_assert_eq!(queue.now(), reference.now);
                    queue.schedule(at, next_payload);
                    reference.schedule(at, next_payload);
                    next_payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(queue.pop(), reference.pop());
                }
            }
            prop_assert_eq!(queue.len(), reference.len());
        }
        // Drain: the remaining streams must agree to the end.
        loop {
            let (q, r) = (queue.pop(), reference.pop());
            prop_assert_eq!(q, r);
            if q.is_none() {
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
/// agreement while the heap reallocates on the way up and holds its size
/// after.
#[test]
fn hold_model_agrees_across_rebuilds() {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut reference: Reference<u32> = Reference::default();
    let mut rng = Rng(0xCA1E_4DA5);
    for i in 0..10_000u32 {
        let at = SimTime::new(1e-6 * -(1.0 - rng.unit_f64()).ln());
        queue.schedule(at, i);
        reference.schedule(at, i);
    }
    for _ in 0..100_000 {
        let q = queue.pop().expect("population is constant");
        let r = reference.pop().expect("population is constant");
        assert_eq!(q, r);
        let (at, payload) = q;
        let next = at + simhw::Duration::new(1e-6 * -(1.0 - rng.unit_f64()).ln());
        queue.schedule(next, payload);
        reference.schedule(next, payload);
    }
    assert_eq!(queue.len(), reference.len());
}

#[test]
#[should_panic(expected = "into the past")]
fn heap_scheduling_into_the_past_panics() {
    let mut q = EventQueue::new();
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
fn queue_matches_reference_on_interleaved_streams() {
    // Random interleaving of bursts of schedules (with deliberate
    // time ties) and pops; the queue must pop the exact same
    // (time, payload) sequence as the reference.
    let mut rng = Lcg(0x5eed_cafe);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut reference: Reference<u32> = Reference::default();
    let mut id = 0u32;
    for _ in 0..20_000 {
        let op = rng.next() % 100;
        if op < 60 {
            let horizon = match rng.next() % 3 {
                0 => 1e-6,
                1 => 1.0,
                _ => 1e4,
            };
            let mut at = queue.now() + simhw::Duration::new(rng.f64() * horizon);
            if rng.next().is_multiple_of(4) {
                // Force an exact tie with the current clock.
                at = queue.now();
            }
            queue.schedule(at, id);
            reference.schedule(at, id);
            id += 1;
        } else {
            assert_eq!(queue.pop(), reference.pop());
        }
        assert_eq!(queue.len(), reference.len());
        assert_eq!(queue.now(), reference.now);
    }
    loop {
        let (a, b) = (queue.pop(), reference.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// The order contract written out directly: pending events keyed by the
/// bit pattern of their fire time, then by insertion sequence.
struct Reference<E> {
    pending: BTreeMap<(u64, u64), (SimTime, E)>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for Reference<E> {
    fn default() -> Self {
        Reference {
            pending: BTreeMap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> Reference<E> {
    fn schedule(&mut self, at: SimTime, payload: E) {
        self.pending
            .insert((at.seconds().to_bits(), self.seq), (at, payload));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, (at, payload)) = self.pending.pop_first()?;
        self.now = at;
        Some((at, payload))
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}
