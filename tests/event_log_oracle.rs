//! Guards `hetero_trace::RingBuffer` over `hetero_trace::EventLog`; goes when they do.
//!
//! Differential oracle for the packed event storage.
//!
//! `RingBuffer` fills an `EventLog` — 24 bytes a record, phase names and
//! over-wide victims out of line. The `Vec<TraceEvent>` ring it replaced
//! lives on here as the reference: whatever sequence of records is pushed,
//! at whatever capacity, both retain the same records and count the same
//! losses, and a trace holding either exports to the same bytes.

mod common;

use common::{Rng, AWKWARD};
use hetero_trace::{
    codec, EventKind, EventLog, Provenance, RingBuffer, RunTrace, TraceEvent, WorkerTrace,
};
use proptest::prelude::*;

/// The ring as it was: one `TraceEvent` per slot, overwrite-oldest.
struct VecRing {
    capacity: usize,
    buf: Vec<TraceEvent>,
    head: usize,
    overwritten: u64,
}

impl VecRing {
    fn new(capacity: usize) -> Self {
        VecRing {
            capacity: capacity.max(1),
            buf: Vec::new(),
            head: 0,
            overwritten: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    fn into_events(mut self) -> (Vec<TraceEvent>, u64) {
        self.buf.rotate_left(self.head);
        (self.buf, self.overwritten)
    }
}

/// Indices at and around every width the packing could care about.
fn index(rng: &mut Rng) -> u32 {
    match rng.below(8) {
        0 => 0,
        1 => 1,
        2 => (1 << 24) - 1,
        3 => 1 << 24,
        4 => u32::MAX - 1,
        5 => u32::MAX,
        6 => rng.next() as u32 % 64,
        _ => rng.next() as u32,
    }
}

fn phase_name(rng: &mut Rng) -> String {
    match rng.below(AWKWARD.len() + 1) {
        at if at < AWKWARD.len() => AWKWARD[at].to_string(),
        _ => "長い phase ".repeat(1 + rng.below(400)),
    }
}

/// Any record on any lane: every kind, a run with and without its claim,
/// timestamps in no order. Record `n` of a sequence runs task `n`, if it
/// is a run, so that no task runs twice.
fn event(rng: &mut Rng, n: usize) -> TraceEvent {
    let ts = match rng.below(4) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next() % 1000,
        _ => rng.next(),
    };
    let task = index(rng);
    let run = |provenance| EventKind::TaskRun {
        task: n as u32,
        end: ts ^ task as u64,
        provenance,
    };
    let kind = match rng.below(8) {
        0 | 1 => EventKind::TaskReady { task },
        2 => run(None),
        3 => EventKind::Park,
        4 => EventKind::Unpark,
        5 => EventKind::PhaseStart {
            name: phase_name(rng),
        },
        6 => EventKind::PhaseEnd {
            name: phase_name(rng),
        },
        _ => {
            let (victim, cross_group) = (index(rng), rng.one_in(2));
            let provenance = match rng.below(4) {
                0 => Provenance::Local,
                1 => Provenance::Queue,
                2 => Provenance::Inject { cross_group },
                _ => Provenance::Steal {
                    victim,
                    cross_group,
                },
            };
            run(Some(provenance))
        }
    };
    TraceEvent { ts, kind }
}

/// Whether the log keeps this event's kind out of line: a name is heap
/// data, and a slot has 24 bits for a victim.
fn out_of_line(e: &TraceEvent) -> bool {
    match e.kind {
        EventKind::PhaseStart { .. } | EventKind::PhaseEnd { .. } => true,
        EventKind::TaskRun {
            provenance: Some(Provenance::Steal { victim, .. }),
            ..
        } => victim >= 1 << 24,
        _ => false,
    }
}

fn one_lane(prelude: EventLog, events: EventLog, overwritten: u64) -> RunTrace {
    RunTrace {
        prelude,
        workers: vec![WorkerTrace {
            worker: 0,
            events,
            overwritten,
        }],
        ..RunTrace::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn packed_ring_retains_what_the_vec_ring_retained(
        seed in any::<u64>(),
        len in 0usize..200,
        capacity in 0usize..66,
    ) {
        // Capacity 65 stands for unbounded: nothing is ever overwritten.
        let capacity = if capacity == 65 { usize::MAX } else { capacity };
        let rng = &mut Rng(seed);
        let mut reference = VecRing::new(capacity);
        let mut ring = RingBuffer::new(capacity);
        for n in 0..len {
            let e = event(rng, n);
            reference.push(e.clone());
            ring.push(e);
            prop_assert_eq!(ring.len(), reference.buf.len());
            prop_assert_eq!(ring.overwritten(), reference.overwritten);
            // An overwritten slot released what it held out of line.
            let (retained, _) = ring.clone().into_events();
            let referenced = retained.iter().filter(out_of_line).count();
            prop_assert_eq!(retained.out_of_line(), referenced);
        }
        let (kept, lost) = reference.into_events();
        let (log, overwritten) = ring.into_events();
        prop_assert_eq!(overwritten, lost);
        prop_assert_eq!(log.len(), kept.len());
        prop_assert_eq!(log.is_empty(), kept.is_empty());
        prop_assert_eq!(&log.iter().collect::<Vec<_>>(), &kept);
        prop_assert_eq!(format!("{log:?}"), format!("{kept:?}"));

        // Equality is on the records, whatever history stored them, and
        // the codec cannot tell the two apart. The prelude holds the
        // records that are not runs, so that no task runs twice.
        let rebuilt = EventLog::from(kept.clone());
        prop_assert_eq!(&log, &rebuilt);
        prop_assert_eq!(&log, &kept.iter().cloned().collect::<EventLog>());
        let no_runs = |log: &EventLog| -> EventLog {
            log.iter().filter(|e| !matches!(e.kind, EventKind::TaskRun { .. })).collect()
        };
        let from_ring = one_lane(no_runs(&log), log, overwritten);
        let from_vec = one_lane(no_runs(&rebuilt), rebuilt, lost);
        let text = codec::export(&from_ring, &[]);
        prop_assert_eq!(&text, &codec::export(&from_vec, &[]));
        // The trace counts its events as the codec writes them.
        prop_assert_eq!(text.matches("\"ev\": ").count(), from_ring.total_events());
        let (parsed, _) = codec::parse(&codec::export(&from_ring, &[])).expect("parses");
        prop_assert_eq!(parsed, from_ring);
    }
}

/// Logs that differ in one record differ, in line or out of line.
#[test]
fn unequal_sequences_are_unequal_logs() {
    let rng = &mut Rng(17);
    let events: Vec<TraceEvent> = (0..64).map(|n| event(rng, n)).collect();
    let log = EventLog::from(events.clone());
    for at in 0..events.len() {
        let mut other = events.clone();
        other[at].ts ^= 1;
        assert_ne!(log, EventLog::from(other));
        let mut other = events.clone();
        other[at].kind = match &events[at].kind {
            EventKind::PhaseStart { name } => EventKind::PhaseEnd { name: name.clone() },
            _ => EventKind::PhaseStart {
                name: "other".to_string(),
            },
        };
        assert_ne!(log, EventLog::from(other));
    }
    assert_ne!(log, events[1..].iter().cloned().collect());
}
