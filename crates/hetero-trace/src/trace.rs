//! The drained trace of one run, its PDL metadata and its invariants.

use crate::event::{EventKind, Provenance, TraceEvent};
use crate::labels::TaskTable;
use crate::log::EventLog;
use crate::phase::PhaseSpan;
use std::collections::BTreeMap;
use std::fmt;

/// What the timestamps mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeUnit {
    /// Real nanoseconds from a [`crate::TraceClock`] (thread engines).
    #[default]
    RealNanos,
    /// Virtual nanoseconds of a simulated run (sim/dyn engines).
    VirtualNanos,
}

impl TimeUnit {
    /// Label used in exported JSON.
    pub fn label(&self) -> &'static str {
        match self {
            TimeUnit::RealNanos => "real-ns",
            TimeUnit::VirtualNanos => "virtual-ns",
        }
    }

    /// Inverse of [`TimeUnit::label`] (`None` for unknown labels).
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "real-ns" => Some(TimeUnit::RealNanos),
            "virtual-ns" => Some(TimeUnit::VirtualNanos),
            _ => None,
        }
    }
}

/// PDL identity of one lane (worker thread or simulated device).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LaneLabel {
    /// Lane name: the PU id from the platform description when known
    /// (`"gpu0"`), otherwise a worker name (`"w3"`).
    pub name: String,
    /// The PDL logic group the lane belongs to, if any.
    pub group: Option<String>,
}

/// Run-level metadata: the PDL identity every event is resolved against.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Name of the platform descriptor that produced the schedule.
    pub platform: Option<String>,
    /// One label per lane, indexed by worker/device id.
    pub lanes: Vec<LaneLabel>,
    /// One entry per task, indexed by the task ids in events.
    pub tasks: TaskTable,
    /// Timestamp semantics.
    pub time_unit: TimeUnit,
}

/// Events recorded by one worker, in recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTrace {
    /// The worker (lane) index.
    pub worker: usize,
    /// Events, oldest retained first.
    pub events: EventLog,
    /// Events lost to ring overflow (see [`crate::RingBuffer`]).
    pub overwritten: u64,
}

/// The complete drained trace of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// PDL identity and task table.
    pub meta: TraceMeta,
    /// Events recorded outside any worker (initial task readiness, run-level
    /// phases); exported as a synthetic `run` lane.
    pub prelude: EventLog,
    /// Per-worker event streams.
    pub workers: Vec<WorkerTrace>,
}

/// One reconstructed task execution interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpan {
    /// Task index (into [`TraceMeta::tasks`]).
    pub task: u32,
    /// Lane that executed it.
    pub worker: usize,
    /// Start timestamp (ns).
    pub start: u64,
    /// End timestamp (ns).
    pub end: u64,
    /// How the executing worker obtained the task, when a dequeue event
    /// preceded the start.
    pub provenance: Option<Provenance>,
}

/// An invariant violation found by [`RunTrace::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A worker's ring overflowed; the trace is lossy and cannot be
    /// strictly validated.
    Lossy {
        /// The worker whose ring overflowed.
        worker: usize,
        /// Events lost.
        overwritten: u64,
    },
    /// Timestamps on one lane went backwards.
    NonMonotonic {
        /// The lane.
        worker: usize,
        /// Index of the offending event within the lane.
        index: usize,
    },
    /// A task started twice.
    DuplicateStart {
        /// The task.
        task: u32,
    },
    /// A task ended without (or not innermost to) a matching start — spans
    /// must nest per lane.
    BadNesting {
        /// The lane.
        worker: usize,
        /// Index of the offending event within the lane.
        index: usize,
    },
    /// A task started but never ended.
    MissingEnd {
        /// The task.
        task: u32,
    },
    /// A phase was left open, or closed out of LIFO order.
    UnbalancedPhase {
        /// The lane (lane count = the prelude).
        worker: usize,
        /// The phase name.
        name: String,
    },
    /// A task event references a task index outside the meta task table.
    UnknownTask {
        /// The out-of-range index.
        task: u32,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Lossy {
                worker,
                overwritten,
            } => write!(
                f,
                "worker {worker} ring overflowed ({overwritten} events lost); \
                 raise the ring capacity to validate"
            ),
            TraceError::NonMonotonic { worker, index } => {
                write!(f, "worker {worker} event {index} has a backwards timestamp")
            }
            TraceError::DuplicateStart { task } => write!(f, "task {task} started twice"),
            TraceError::BadNesting { worker, index } => write!(
                f,
                "worker {worker} event {index} ends a span that is not the innermost open one"
            ),
            TraceError::MissingEnd { task } => write!(f, "task {task} started but never ended"),
            TraceError::UnbalancedPhase { worker, name } => {
                write!(f, "lane {worker}: phase {name:?} not closed in LIFO order")
            }
            TraceError::UnknownTask { task } => {
                write!(f, "event references task {task} outside the task table")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Per-task scratch for the passes over a trace: a vector indexed by task
/// id, as long as the task table (as the event count when the trace has no
/// labels, so memory stays within the trace's own size); ids beyond it —
/// which only a label-less trace with sparse ids, or a broken one, has —
/// fall back to a map.
pub(crate) struct TaskMap<T> {
    dense: Vec<Option<T>>,
    sparse: BTreeMap<u32, Option<T>>,
}

impl<T> TaskMap<T> {
    pub(crate) fn for_trace(trace: &RunTrace) -> Self {
        let len = match trace.meta.tasks.len() {
            0 => trace.total_events(),
            tasks => tasks,
        };
        TaskMap {
            dense: std::iter::repeat_with(|| None).take(len).collect(),
            sparse: BTreeMap::new(),
        }
    }

    /// The entry of `task`, to fill, replace or take.
    pub(crate) fn slot(&mut self, task: u32) -> &mut Option<T> {
        match self.dense.get_mut(task as usize) {
            Some(slot) => slot,
            None => self.sparse.entry(task).or_insert(None),
        }
    }

    pub(crate) fn get(&self, task: u32) -> Option<&T> {
        match self.dense.get(task as usize) {
            Some(slot) => slot.as_ref(),
            None => self.sparse.get(&task).and_then(Option::as_ref),
        }
    }

    /// Filled entries in ascending task order.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let dense = self.dense.iter().zip(0u32..);
        let sparse = self.sparse.iter().map(|(task, slot)| (slot, *task));
        dense
            .chain(sparse)
            .filter_map(|(slot, task)| Some((task, slot.as_ref()?)))
    }
}

/// One open entry on a lane's span stack during validation.
enum Open {
    Task(u32),
    Phase(String),
}

impl RunTrace {
    /// Builds a workerless trace from a list of phase spans (e.g. the
    /// Cascabel compile pipeline) so phase timings can use the same
    /// exporters as engine runs.
    pub fn from_phases(platform: Option<String>, phases: &[PhaseSpan]) -> RunTrace {
        // Sort by (start, longest-first) and emit with an explicit stack so
        // sequential phases sharing a boundary timestamp still close in
        // strict LIFO order (ends are emitted before the next start).
        let mut sorted: Vec<&PhaseSpan> = phases.iter().collect();
        sorted.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        let mut prelude = EventLog::new();
        let mut open: Vec<&PhaseSpan> = Vec::new();
        let close_until = |open: &mut Vec<&PhaseSpan>, prelude: &mut EventLog, ts| {
            while open.last().is_some_and(|p| p.end_ns <= ts) {
                let p = open.pop().expect("checked non-empty");
                prelude.push(TraceEvent {
                    ts: p.end_ns,
                    kind: EventKind::PhaseEnd {
                        name: p.name.clone(),
                    },
                });
            }
        };
        for p in sorted {
            close_until(&mut open, &mut prelude, p.start_ns);
            prelude.push(TraceEvent {
                ts: p.start_ns,
                kind: EventKind::PhaseStart {
                    name: p.name.clone(),
                },
            });
            open.push(p);
        }
        close_until(&mut open, &mut prelude, u64::MAX);
        RunTrace {
            meta: TraceMeta {
                platform,
                ..TraceMeta::default()
            },
            prelude,
            workers: Vec::new(),
        }
    }

    /// Total events across the prelude and all workers.
    pub fn total_events(&self) -> usize {
        self.prelude.len() + self.workers.iter().map(|w| w.events.len()).sum::<usize>()
    }

    /// Total events lost to ring overflow.
    pub fn overwritten(&self) -> u64 {
        self.workers.iter().map(|w| w.overwritten).sum()
    }

    /// First `TaskReady` timestamp per task, across the prelude and all
    /// lanes, and the earliest timestamp of the trace (0 without events);
    /// `each` sees the kind of every event on the way.
    pub(crate) fn ready_timestamps(&self, mut each: impl FnMut(&EventKind)) -> (TaskMap<u64>, u64) {
        let mut first_ready = TaskMap::for_trace(self);
        let mut start = u64::MAX;
        for e in self
            .prelude
            .iter()
            .chain(self.workers.iter().flat_map(|w| w.events.iter()))
        {
            if let EventKind::TaskReady { task } = e.kind {
                first_ready.slot(task).get_or_insert(e.ts);
            }
            start = start.min(e.ts);
            each(&e.kind);
        }
        let start = if self.total_events() == 0 { 0 } else { start };
        (first_ready, start)
    }

    /// Reconstructs every task execution interval from start/end pairs, in
    /// per-lane order. Dequeue provenance is attached from the closest
    /// preceding dequeue event for the same task on the same lane.
    pub fn task_spans(&self) -> Vec<TaskSpan> {
        let mut spans = Vec::new();
        self.for_each_span(|_, span| spans.push(span));
        spans
    }

    /// Hands each span of [`RunTrace::task_spans`], in the same order, to
    /// `f` with the index of its lane in `workers`.
    pub(crate) fn for_each_span(&self, mut f: impl FnMut(usize, TaskSpan)) {
        // Dequeues waiting for their span, with the lane that saw them: a
        // dequeue never pairs with a span on another lane.
        let mut dequeued: TaskMap<(usize, Provenance)> = TaskMap::for_trace(self);
        for (lane, w) in self.workers.iter().enumerate() {
            let mut open: Vec<(u32, u64)> = Vec::new();
            for e in w.events.iter() {
                match e.kind {
                    EventKind::TaskDequeued {
                        task,
                        provenance: p,
                    } => *dequeued.slot(task) = Some((lane, p)),
                    EventKind::TaskStart { task } => open.push((task, e.ts)),
                    EventKind::TaskEnd { task } => {
                        if let Some(pos) = open.iter().rposition(|(t, _)| *t == task) {
                            let (_, start) = open.remove(pos);
                            let here = dequeued.slot(task).take_if(|(at, _)| *at == lane);
                            let span = TaskSpan {
                                task,
                                worker: w.worker,
                                start,
                                end: e.ts,
                                provenance: here.map(|(_, p)| p),
                            };
                            f(lane, span);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Checks the trace invariants; [`RunTrace::stats`] does the counting:
    ///
    /// * the trace is lossless (no ring overflowed);
    /// * timestamps are monotonic (non-decreasing) per lane;
    /// * every started task ends exactly once, and task/phase spans nest
    ///   properly per lane (LIFO order);
    /// * task indices stay inside the meta task table (when non-empty).
    pub fn validate(&self) -> Result<(), TraceError> {
        for w in &self.workers {
            if w.overwritten > 0 {
                return Err(TraceError::Lossy {
                    worker: w.worker,
                    overwritten: w.overwritten,
                });
            }
        }

        let task_count = self.meta.tasks.len();
        let lane_count = self.workers.len();
        // 0 = never started, 1 = started, 2 = ended.
        let mut task_state: TaskMap<u8> = TaskMap::for_trace(self);

        let check_task = |task: u32| -> Result<(), TraceError> {
            if task_count > 0 && task as usize >= task_count {
                return Err(TraceError::UnknownTask { task });
            }
            Ok(())
        };

        let lanes = self
            .workers
            .iter()
            .map(|w| (w.worker, &w.events))
            .chain(std::iter::once((lane_count, &self.prelude)));
        for (lane, events) in lanes {
            let mut last_ts = 0u64;
            let mut open: Vec<Open> = Vec::new();
            for (index, e) in events.iter().enumerate() {
                if e.ts < last_ts {
                    return Err(TraceError::NonMonotonic {
                        worker: lane,
                        index,
                    });
                }
                last_ts = e.ts;
                match &e.kind {
                    EventKind::TaskReady { task } | EventKind::TaskDequeued { task, .. } => {
                        check_task(*task)?;
                    }
                    EventKind::TaskStart { task } => {
                        check_task(*task)?;
                        if task_state.slot(*task).replace(1).is_some() {
                            return Err(TraceError::DuplicateStart { task: *task });
                        }
                        open.push(Open::Task(*task));
                    }
                    EventKind::TaskEnd { task } => {
                        check_task(*task)?;
                        match open.pop() {
                            Some(Open::Task(t)) if t == *task => {
                                *task_state.slot(*task) = Some(2);
                            }
                            _ => {
                                return Err(TraceError::BadNesting {
                                    worker: lane,
                                    index,
                                })
                            }
                        }
                    }
                    EventKind::Park | EventKind::Unpark => {}
                    EventKind::PhaseStart { name } => open.push(Open::Phase(name.clone())),
                    EventKind::PhaseEnd { name } => match open.pop() {
                        Some(Open::Phase(n)) if &n == name => {}
                        _ => {
                            return Err(TraceError::UnbalancedPhase {
                                worker: lane,
                                name: name.clone(),
                            })
                        }
                    },
                }
            }
            if let Some(entry) = open.pop() {
                return Err(match entry {
                    Open::Task(task) => TraceError::MissingEnd { task },
                    Open::Phase(name) => TraceError::UnbalancedPhase { worker: lane, name },
                });
            }
        }

        if let Some((task, _)) = task_state.iter().find(|(_, s)| **s == 1) {
            return Err(TraceError::MissingEnd { task });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { ts, kind }
    }

    fn lane(worker: usize, events: Vec<TraceEvent>) -> WorkerTrace {
        WorkerTrace {
            worker,
            events: events.into(),
            overwritten: 0,
        }
    }

    fn meta(tasks: usize) -> TraceMeta {
        let mut meta = TraceMeta::default();
        for i in 0..tasks {
            meta.tasks.push(&format!("t{i}"), "task", None);
        }
        meta
    }

    #[test]
    fn valid_trace_produces_stats() {
        let trace = RunTrace {
            meta: meta(2),
            prelude: vec![ev(0, EventKind::TaskReady { task: 0 })].into(),
            workers: vec![lane(
                0,
                vec![
                    ev(
                        1,
                        EventKind::TaskDequeued {
                            task: 0,
                            provenance: Provenance::Local,
                        },
                    ),
                    ev(2, EventKind::TaskStart { task: 0 }),
                    ev(5, EventKind::TaskEnd { task: 0 }),
                    ev(
                        6,
                        EventKind::TaskDequeued {
                            task: 1,
                            provenance: Provenance::Steal {
                                victim: 1,
                                cross_group: true,
                            },
                        },
                    ),
                    ev(6, EventKind::TaskStart { task: 1 }),
                    ev(9, EventKind::TaskEnd { task: 1 }),
                    ev(9, EventKind::Park),
                ],
            )],
        };
        trace.validate().unwrap();
        let stats = trace.stats();
        assert_eq!(stats.tasks, 2);
        assert_eq!(stats.dequeues, 2);
        assert_eq!(stats.steals, 1);
        assert_eq!(stats.cross_group_steals, 1);
        assert_eq!(stats.parks, 1);
        assert_eq!(stats.readies, 1);
        assert_eq!(stats.lanes[0].busy_ns, 6);

        let spans = trace.task_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start, 2);
        assert_eq!(spans[0].end, 5);
        assert_eq!(spans[1].provenance.unwrap().label(), "steal-cross-group");
    }

    /// Without a task table, ids index a vector only up to the event count;
    /// larger ones take the map, and both give what a map alone gave.
    #[test]
    fn sparse_ids_without_a_task_table() {
        let far = 4_000_000_000;
        let dequeue = |task| EventKind::TaskDequeued {
            task,
            provenance: Provenance::Queue,
        };
        let trace = RunTrace {
            meta: meta(0),
            prelude: vec![
                ev(0, EventKind::TaskReady { task: far }),
                ev(1, EventKind::TaskReady { task: 2 }),
                ev(2, EventKind::TaskReady { task: far }),
            ]
            .into(),
            workers: vec![
                lane(
                    0,
                    vec![
                        ev(1, dequeue(far)),
                        ev(1, dequeue(2)),
                        ev(2, EventKind::TaskStart { task: far }),
                        ev(5, EventKind::TaskEnd { task: far }),
                    ],
                ),
                // Task 2 was dequeued on lane 0 but ran here: no provenance.
                lane(
                    1,
                    vec![
                        ev(3, EventKind::TaskStart { task: 2 }),
                        ev(4, EventKind::TaskEnd { task: 2 }),
                    ],
                ),
            ],
        };
        trace.validate().unwrap();
        let stats = trace.stats();
        assert_eq!((stats.tasks, stats.readies), (2, 3));
        let spans = trace.task_spans();
        assert_eq!(spans[0].task, far);
        assert_eq!(spans[0].provenance, Some(Provenance::Queue));
        assert_eq!((spans[1].task, spans[1].provenance), (2, None));
        let (first_ready, _) = trace.ready_timestamps(|_| {});
        assert_eq!(first_ready.get(far), Some(&0));
        assert_eq!(first_ready.get(2), Some(&1));
        assert_eq!(first_ready.get(3), None);

        let mut twice = trace.clone();
        for again in [
            EventKind::TaskStart { task: far },
            EventKind::TaskEnd { task: far },
        ] {
            twice.workers[1].events.push(ev(6, again));
        }
        assert_eq!(
            twice.validate(),
            Err(TraceError::DuplicateStart { task: far })
        );
    }

    #[test]
    fn backwards_time_rejected() {
        let trace = RunTrace {
            meta: meta(1),
            prelude: Default::default(),
            workers: vec![lane(
                0,
                vec![
                    ev(5, EventKind::TaskStart { task: 0 }),
                    ev(3, EventKind::TaskEnd { task: 0 }),
                ],
            )],
        };
        assert_eq!(
            trace.validate(),
            Err(TraceError::NonMonotonic {
                worker: 0,
                index: 1
            })
        );
    }

    #[test]
    fn duplicate_start_rejected() {
        let trace = RunTrace {
            meta: meta(1),
            prelude: Default::default(),
            workers: vec![lane(
                0,
                vec![
                    ev(1, EventKind::TaskStart { task: 0 }),
                    ev(2, EventKind::TaskEnd { task: 0 }),
                    ev(3, EventKind::TaskStart { task: 0 }),
                    ev(4, EventKind::TaskEnd { task: 0 }),
                ],
            )],
        };
        assert_eq!(
            trace.validate(),
            Err(TraceError::DuplicateStart { task: 0 })
        );
    }

    #[test]
    fn missing_end_rejected() {
        let trace = RunTrace {
            meta: meta(1),
            prelude: Default::default(),
            workers: vec![lane(0, vec![ev(1, EventKind::TaskStart { task: 0 })])],
        };
        assert_eq!(trace.validate(), Err(TraceError::MissingEnd { task: 0 }));
    }

    #[test]
    fn interleaved_spans_rejected() {
        // start 0, start 1, end 0 — spans must nest.
        let trace = RunTrace {
            meta: meta(2),
            prelude: Default::default(),
            workers: vec![lane(
                0,
                vec![
                    ev(1, EventKind::TaskStart { task: 0 }),
                    ev(2, EventKind::TaskStart { task: 1 }),
                    ev(3, EventKind::TaskEnd { task: 0 }),
                    ev(4, EventKind::TaskEnd { task: 1 }),
                ],
            )],
        };
        assert_eq!(
            trace.validate(),
            Err(TraceError::BadNesting {
                worker: 0,
                index: 2
            })
        );
    }

    #[test]
    fn lossy_trace_rejected() {
        let trace = RunTrace {
            meta: meta(0),
            prelude: Default::default(),
            workers: vec![WorkerTrace {
                worker: 0,
                events: EventLog::new(),
                overwritten: 7,
            }],
        };
        assert_eq!(
            trace.validate(),
            Err(TraceError::Lossy {
                worker: 0,
                overwritten: 7
            })
        );
    }

    #[test]
    fn out_of_range_task_rejected() {
        let trace = RunTrace {
            meta: meta(1),
            prelude: Default::default(),
            workers: vec![lane(0, vec![ev(1, EventKind::TaskReady { task: 9 })])],
        };
        assert_eq!(trace.validate(), Err(TraceError::UnknownTask { task: 9 }));
    }

    #[test]
    fn phases_nest_and_unbalanced_rejected() {
        let ok = RunTrace {
            meta: meta(0),
            prelude: vec![
                ev(
                    0,
                    EventKind::PhaseStart {
                        name: "outer".to_string(),
                    },
                ),
                ev(
                    1,
                    EventKind::PhaseStart {
                        name: "inner".to_string(),
                    },
                ),
                ev(
                    2,
                    EventKind::PhaseEnd {
                        name: "inner".to_string(),
                    },
                ),
                ev(
                    3,
                    EventKind::PhaseEnd {
                        name: "outer".to_string(),
                    },
                ),
            ]
            .into(),
            workers: Vec::new(),
        };
        assert!(ok.validate().is_ok());

        let bad = RunTrace {
            meta: meta(0),
            prelude: vec![ev(
                0,
                EventKind::PhaseStart {
                    name: "open".to_string(),
                },
            )]
            .into(),
            workers: Vec::new(),
        };
        assert!(matches!(
            bad.validate(),
            Err(TraceError::UnbalancedPhase { .. })
        ));
    }

    #[test]
    fn from_phases_round_trips() {
        let phases = vec![
            PhaseSpan {
                name: "parse".to_string(),
                start_ns: 0,
                end_ns: 10,
            },
            PhaseSpan {
                name: "codegen".to_string(),
                start_ns: 10,
                end_ns: 30,
            },
        ];
        let trace = RunTrace::from_phases(Some("testbed".to_string()), &phases);
        assert_eq!(trace.meta.platform.as_deref(), Some("testbed"));
        assert_eq!(trace.prelude.len(), 4);
        trace.validate().unwrap();
    }
}
