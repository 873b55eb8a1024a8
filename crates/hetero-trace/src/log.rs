//! Packed event storage: what a lane's events are kept in.

use crate::event::{EventKind, Provenance, TraceEvent};
use std::collections::VecDeque;
use std::fmt;

// Slot tags: the low four bits of `Slot::word`.
const READY: u32 = 0;
const DEQUEUED: u32 = 1;
const START: u32 = 2;
const END: u32 = 3;
const PARK: u32 = 4;
const UNPARK: u32 = 5;
/// The event's kind is the next entry of `EventLog::spilled`.
const SPILLED: u32 = 6;
const TAG_MASK: u32 = 0xf;

// A dequeue's provenance sits above the tag, the victim above that.
const PROVENANCE_SHIFT: u32 = 4;
const VICTIM_SHIFT: u32 = 8;
const VICTIM_MAX: u32 = u32::MAX >> VICTIM_SHIFT;

/// One event in 16 bytes: the timestamp, the task index, and the kind with
/// a dequeue's provenance and victim in one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    ts: u64,
    task: u32,
    word: u32,
}

const _: () = assert!(size_of::<Slot>() == 16);

/// `(task, word)` of a kind that fits a slot; the kind back when it does
/// not: a phase event (its name is heap data) or a steal whose victim
/// index needs more than 24 bits.
#[inline]
fn pack(kind: EventKind) -> Result<(u32, u32), EventKind> {
    match kind {
        EventKind::TaskReady { task } => Ok((task, READY)),
        EventKind::TaskStart { task } => Ok((task, START)),
        EventKind::TaskEnd { task } => Ok((task, END)),
        EventKind::Park => Ok((0, PARK)),
        EventKind::Unpark => Ok((0, UNPARK)),
        EventKind::TaskDequeued { task, provenance } => {
            let (code, victim) = match provenance {
                Provenance::Local => (0, 0),
                Provenance::Queue => (1, 0),
                Provenance::Inject { cross_group } => (2 + u32::from(cross_group), 0),
                Provenance::Steal {
                    victim,
                    cross_group,
                } => (4 + u32::from(cross_group), victim),
            };
            if victim > VICTIM_MAX {
                return Err(kind);
            }
            let word = DEQUEUED | code << PROVENANCE_SHIFT | victim << VICTIM_SHIFT;
            Ok((task, word))
        }
        EventKind::PhaseStart { .. } | EventKind::PhaseEnd { .. } => Err(kind),
    }
}

impl Slot {
    /// The kind this slot holds; `None` when it is held out of line.
    #[inline]
    fn kind(self) -> Option<EventKind> {
        let task = self.task;
        Some(match self.word & TAG_MASK {
            READY => EventKind::TaskReady { task },
            START => EventKind::TaskStart { task },
            END => EventKind::TaskEnd { task },
            PARK => EventKind::Park,
            UNPARK => EventKind::Unpark,
            DEQUEUED => {
                let code = (self.word >> PROVENANCE_SHIFT) & TAG_MASK;
                let cross_group = code & 1 == 1;
                let provenance = match code {
                    0 => Provenance::Local,
                    1 => Provenance::Queue,
                    2 | 3 => Provenance::Inject { cross_group },
                    _ => Provenance::Steal {
                        victim: self.word >> VICTIM_SHIFT,
                        cross_group,
                    },
                };
                EventKind::TaskDequeued { task, provenance }
            }
            _ => return None,
        })
    }
}

/// A sequence of [`TraceEvent`]s stored packed: 16 bytes per task, park and
/// unpark event. Events that own heap data (phase names) or do not fit a
/// slot keep their kind out of line, in a queue in slot order, so the log
/// reads back exactly the events pushed. Two logs are equal when they hold
/// the same events: the packing is a function of the event alone.
#[derive(Clone, Default, PartialEq)]
pub struct EventLog {
    slots: Vec<Slot>,
    /// Kinds of the slots tagged `SPILLED`, oldest first.
    spilled: VecDeque<EventKind>,
}

impl EventLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        EventLog::default()
    }

    #[inline]
    fn slot_for(&mut self, event: TraceEvent) -> Slot {
        let (task, word) = pack(event.kind).unwrap_or_else(|kind| {
            self.spilled.push_back(kind);
            (0, SPILLED)
        });
        Slot {
            ts: event.ts,
            task,
            word,
        }
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        let slot = self.slot_for(event);
        self.slots.push(slot);
    }

    /// Makes room for exactly `additional` more events, so a writer that
    /// knows its count fills the log without regrowing it.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.slots.reserve_exact(additional);
    }

    /// Puts `event`, the newest, where the oldest event sits at `oldest`,
    /// releasing what that one held out of line.
    #[inline]
    pub(crate) fn overwrite_oldest(&mut self, oldest: usize, event: TraceEvent) {
        if self.slots[oldest].word & TAG_MASK == SPILLED {
            self.spilled.pop_front();
        }
        self.slots[oldest] = self.slot_for(event);
    }

    /// Makes the slot at `oldest` the first (a wrapped ring read in order).
    pub(crate) fn rotate_left(&mut self, oldest: usize) {
        self.slots.rotate_left(oldest);
    }

    /// Events held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no event is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Events kept out of line (phase names, victims beyond 24 bits).
    pub fn out_of_line(&self) -> usize {
        self.spilled.len()
    }

    /// The events in order, by value.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            slots: self.slots.iter(),
            spilled: self.spilled.iter(),
        }
    }
}

/// Iterator over an [`EventLog`], decoding each event.
#[derive(Debug)]
pub struct Iter<'a> {
    slots: std::slice::Iter<'a, Slot>,
    spilled: std::collections::vec_deque::Iter<'a, EventKind>,
}

impl Iterator for Iter<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        let slot = self.slots.next()?;
        let kind = slot.kind().unwrap_or_else(|| {
            let kind = self.spilled.next();
            kind.expect("every spilled slot has its kind queued")
                .clone()
        });
        Some(TraceEvent { ts: slot.ts, kind })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl FromIterator<TraceEvent> for EventLog {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(events: I) -> Self {
        let events = events.into_iter();
        let mut log = EventLog::new();
        log.slots.reserve(events.size_hint().0);
        for event in events {
            log.push(event);
        }
        log
    }
}

impl From<Vec<TraceEvent>> for EventLog {
    fn from(events: Vec<TraceEvent>) -> Self {
        events.into_iter().collect()
    }
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_was_pushed() {
        let wide = Provenance::Steal {
            victim: VICTIM_MAX + 1,
            cross_group: true,
        };
        let events = vec![
            TraceEvent {
                ts: 0,
                kind: EventKind::PhaseStart {
                    name: "seed".to_string(),
                },
            },
            TraceEvent {
                ts: u64::MAX,
                kind: EventKind::TaskDequeued {
                    task: u32::MAX,
                    provenance: Provenance::Steal {
                        victim: VICTIM_MAX,
                        cross_group: false,
                    },
                },
            },
            TraceEvent {
                ts: 3,
                kind: EventKind::TaskDequeued {
                    task: 7,
                    provenance: wide,
                },
            },
            TraceEvent {
                ts: 4,
                kind: EventKind::Park,
            },
        ];
        let log = EventLog::from(events.clone());
        assert_eq!(log.len(), 4);
        assert_eq!(log.out_of_line(), 2);
        assert_eq!(log.iter().collect::<Vec<_>>(), events);
        assert_eq!(format!("{log:?}"), format!("{events:?}"));
        assert_ne!(log, events[..3].iter().cloned().collect());
    }
}
