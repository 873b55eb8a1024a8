//! Packed record storage: what a lane's records are kept in.

use crate::event::{EventKind, Provenance, TraceEvent};
use std::collections::VecDeque;
use std::fmt;

// Slot tags: the low four bits of `Slot::word`.
const READY: u32 = 0;
const RUN: u32 = 1;
const PARK: u32 = 2;
const UNPARK: u32 = 3;
/// The record's kind is the next entry of `EventLog::spilled`.
const SPILLED: u32 = 4;
const TAG_MASK: u32 = 0xf;

// A run's provenance code sits above the tag, the victim above that.
const PROVENANCE_SHIFT: u32 = 4;
const VICTIM_SHIFT: u32 = 8;
const VICTIM_MAX: u32 = u32::MAX >> VICTIM_SHIFT;
/// The provenance code of a run whose claim was not recorded.
const UNCLAIMED: u32 = 6;

/// One record in 24 bytes: the timestamp, a run's end, the task index, and
/// the kind with a run's provenance and victim in one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    ts: u64,
    end: u64,
    task: u32,
    word: u32,
}

const _: () = assert!(size_of::<Slot>() == 24);

/// `(task, word, end)` of a kind that fits a slot; the kind back when it
/// does not: a phase event (its name is heap data) or a steal whose victim
/// index needs more than 24 bits.
#[inline]
fn pack(kind: EventKind) -> Result<(u32, u32, u64), EventKind> {
    match kind {
        EventKind::TaskReady { task } => Ok((task, READY, 0)),
        EventKind::Park => Ok((0, PARK, 0)),
        EventKind::Unpark => Ok((0, UNPARK, 0)),
        EventKind::TaskRun {
            task,
            end,
            provenance,
        } => {
            let (code, victim) = match provenance {
                None => (UNCLAIMED, 0),
                Some(Provenance::Local) => (0, 0),
                Some(Provenance::Queue) => (1, 0),
                Some(Provenance::Inject { cross_group }) => (2 + u32::from(cross_group), 0),
                Some(Provenance::Steal {
                    victim,
                    cross_group,
                }) => (4 + u32::from(cross_group), victim),
            };
            if victim > VICTIM_MAX {
                return Err(kind);
            }
            let word = RUN | code << PROVENANCE_SHIFT | victim << VICTIM_SHIFT;
            Ok((task, word, end))
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
            PARK => EventKind::Park,
            UNPARK => EventKind::Unpark,
            RUN => {
                let code = (self.word >> PROVENANCE_SHIFT) & TAG_MASK;
                let cross_group = code & 1 == 1;
                let provenance = match code {
                    0 => Some(Provenance::Local),
                    1 => Some(Provenance::Queue),
                    2 | 3 => Some(Provenance::Inject { cross_group }),
                    4 | 5 => Some(Provenance::Steal {
                        victim: self.word >> VICTIM_SHIFT,
                        cross_group,
                    }),
                    _ => None,
                };
                EventKind::TaskRun {
                    task,
                    end: self.end,
                    provenance,
                }
            }
            _ => return None,
        })
    }
}

/// A sequence of [`TraceEvent`] records stored packed: 24 bytes per task
/// run, ready, park and unpark record. Records that own heap data (phase
/// names) or do not fit a slot keep their kind out of line, in a queue in
/// slot order, so the log reads back exactly the records pushed. Two logs
/// are equal when they hold the same records: the packing is a function of
/// the record alone.
#[derive(Clone, Default, PartialEq)]
pub struct EventLog {
    slots: Vec<Slot>,
    /// Kinds of the slots tagged `SPILLED`, oldest first.
    spilled: VecDeque<EventKind>,
}

impl EventLog {
    #[inline]
    fn slot_for(&mut self, event: TraceEvent) -> Slot {
        let (task, word, end) = pack(event.kind).unwrap_or_else(|kind| {
            self.spilled.push_back(kind);
            (0, SPILLED, 0)
        });
        Slot {
            ts: event.ts,
            end,
            task,
            word,
        }
    }

    /// Appends one record.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        let slot = self.slot_for(event);
        self.slots.push(slot);
    }

    /// An empty log with room for exactly `records`, so a writer that
    /// knows its count fills it without regrowing it.
    pub fn with_capacity(records: usize) -> Self {
        let slots = Vec::with_capacity(records);
        EventLog {
            slots,
            ..EventLog::default()
        }
    }

    /// Puts `event`, the newest, where the oldest record sits at `oldest`,
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

    /// Records held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no record is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The events the records stand for, as the trace codec writes them: a
    /// run is two (its start and end), three when its claim is known;
    /// every other record is one.
    pub fn event_count(&self) -> usize {
        let events = |s: &Slot| match (s.word & TAG_MASK, (s.word >> PROVENANCE_SHIFT) & TAG_MASK) {
            (RUN, UNCLAIMED) => 2,
            (RUN, _) => 3,
            _ => 1,
        };
        // A run spills only for its victim, so it is claimed: two more.
        let spilled_runs = (self.spilled.iter())
            .filter(|kind| matches!(kind, EventKind::TaskRun { .. }))
            .count();
        self.slots.iter().map(events).sum::<usize>() + 2 * spilled_runs
    }

    /// Sorts a log of runs kept in line by `(start, end)`, stably; a log
    /// in that order already is left as it is.
    pub fn sort_runs(&mut self) {
        debug_assert!(self.spilled.is_empty(), "only a log kept in line sorts");
        if !self.slots.is_sorted_by_key(|s| (s.ts, s.end)) {
            self.slots.sort_by_key(|s| (s.ts, s.end));
        }
    }

    /// Records kept out of line (phase names, victims beyond 24 bits).
    pub fn out_of_line(&self) -> usize {
        self.spilled.len()
    }

    /// The records in order, by value.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            slots: self.slots.iter(),
            spilled: self.spilled.iter(),
        }
    }
}

/// Iterator over an [`EventLog`], decoding each record.
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
        let mut log = EventLog::default();
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

    fn run(ts: u64, task: u32, provenance: Option<Provenance>) -> TraceEvent {
        TraceEvent {
            ts,
            kind: EventKind::TaskRun {
                task,
                end: ts + 1,
                provenance,
            },
        }
    }

    #[test]
    fn reads_back_what_was_pushed() {
        let wide = Provenance::Steal {
            victim: VICTIM_MAX + 1,
            cross_group: true,
        };
        let phase = TraceEvent {
            ts: 0,
            kind: EventKind::PhaseStart {
                name: "seed".to_string(),
            },
        };
        let steal = Provenance::Steal {
            victim: VICTIM_MAX,
            cross_group: false,
        };
        let events = vec![
            phase.clone(),
            run(u64::MAX - 1, u32::MAX, Some(steal)),
            run(3, 7, Some(wide)),
            run(4, 8, None),
            TraceEvent {
                ts: 4,
                kind: EventKind::Park,
            },
        ];
        let log = EventLog::from(events.clone());
        assert_eq!(log.len(), 5);
        assert_eq!(log.out_of_line(), 2);
        assert_eq!(log.event_count(), 1 + 3 + 3 + 2 + 1);
        assert_eq!(log.iter().collect::<Vec<_>>(), events);
        assert_eq!(format!("{log:?}"), format!("{events:?}"));
        assert_ne!(log, events[..3].iter().cloned().collect());
    }
}
