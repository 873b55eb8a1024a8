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

/// Records of one worker, in recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTrace {
    /// The worker (lane) index.
    pub worker: usize,
    /// Records, oldest retained first.
    pub events: EventLog,
    /// Records lost to ring overflow (see [`crate::RingBuffer`]).
    pub overwritten: u64,
}

/// The complete drained trace of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// PDL identity and task table.
    pub meta: TraceMeta,
    /// Records made outside any worker (initial task readiness, run-level
    /// phases); exported as a synthetic `run` lane.
    pub prelude: EventLog,
    /// Per-worker record streams.
    pub workers: Vec<WorkerTrace>,
}

/// One task run, as [`RunTrace::task_spans`] lists it.
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
    /// How the executing worker obtained the task, when the run's claim was
    /// recorded.
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
    /// Timestamps on one lane went backwards: a record before the end of
    /// the run before it, or a run that ends before it starts.
    NonMonotonic {
        /// The lane.
        worker: usize,
        /// Index of the offending event within the lane.
        index: usize,
    },
    /// A task ran twice.
    DuplicateStart {
        /// The task.
        task: u32,
    },
    /// A task end without the start of that task open before it on its
    /// lane (reading a trace file).
    BadNesting {
        /// The lane.
        worker: usize,
        /// Index of the offending event within the lane.
        index: usize,
    },
    /// A task claim or start while the run before it on its lane has not
    /// ended: a nested task span (reading a trace file).
    Overlap {
        /// The lane.
        worker: usize,
        /// Index of the offending record within the lane.
        index: usize,
    },
    /// A task started but never ended (reading a trace file).
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
            TraceError::Overlap { worker, index } => write!(
                f,
                "worker {worker} event {index} falls inside the task span before it"
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
/// id, as long as the task table (as the record count when the trace has no
/// labels, so memory stays within the trace's own size); ids beyond it —
/// which only a label-less trace with sparse ids, or a broken one, has —
/// fall back to a map.
pub(crate) struct TaskMap<T> {
    dense: Vec<Option<T>>,
    sparse: BTreeMap<u32, Option<T>>,
}

impl<T> TaskMap<T> {
    pub(crate) fn for_trace(trace: &RunTrace) -> Self {
        let records = trace.workers.iter().map(|w| w.events.len());
        let len = match trace.meta.tasks.len() {
            0 => trace.prelude.len() + records.sum::<usize>(),
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
        let mut prelude = EventLog::default();
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

    /// Total events across the prelude and all workers, counted as the
    /// trace codec writes them ([`EventLog::event_count`]).
    pub fn total_events(&self) -> usize {
        let workers = self.workers.iter().map(|w| w.events.event_count());
        self.prelude.event_count() + workers.sum::<usize>()
    }

    /// Total records lost to ring overflow.
    pub fn overwritten(&self) -> u64 {
        self.workers.iter().map(|w| w.overwritten).sum()
    }

    /// First `TaskReady` timestamp per task, across the prelude and all
    /// lanes, and the earliest timestamp of the trace (0 without records);
    /// `each` sees the kind of every record on the way.
    pub(crate) fn ready_timestamps(&self, mut each: impl FnMut(&EventKind)) -> (TaskMap<u64>, u64) {
        let mut first_ready = TaskMap::for_trace(self);
        let mut start = None;
        for e in self
            .prelude
            .iter()
            .chain(self.workers.iter().flat_map(|w| w.events.iter()))
        {
            if let EventKind::TaskReady { task } = e.kind {
                first_ready.slot(task).get_or_insert(e.ts);
            }
            start = Some(start.map_or(e.ts, |start: u64| start.min(e.ts)));
            each(&e.kind);
        }
        (first_ready, start.unwrap_or(0))
    }

    /// Every task run, lane by lane in `workers` order, each lane's in
    /// recording order.
    pub fn task_spans(&self) -> Vec<TaskSpan> {
        let mut spans = Vec::new();
        self.for_each_span(|_, span| spans.push(span));
        spans
    }

    /// Hands each span of [`RunTrace::task_spans`], in the same order, to
    /// `f` with the index of its lane in `workers`.
    pub(crate) fn for_each_span(&self, mut f: impl FnMut(usize, TaskSpan)) {
        for (lane, w) in self.workers.iter().enumerate() {
            for e in w.events.iter() {
                if let EventKind::TaskRun {
                    task,
                    end,
                    provenance,
                } = e.kind
                {
                    let (worker, start) = (w.worker, e.ts);
                    f(
                        lane,
                        TaskSpan {
                            task,
                            worker,
                            start,
                            end,
                            provenance,
                        },
                    );
                }
            }
        }
    }

    /// The first task that runs a second time, on the prelude and the
    /// lanes that lost no record.
    pub(crate) fn repeated_run(&self) -> Option<u32> {
        let mut ran: TaskMap<()> = TaskMap::for_trace(self);
        let lossless = self.workers.iter().filter(|w| w.overwritten == 0);
        let mut logs = lossless.map(|w| &w.events).chain([&self.prelude]);
        logs.find_map(|log| {
            log.iter().find_map(|e| match e.kind {
                EventKind::TaskRun { task, .. } => ran.slot(task).replace(()).map(|()| task),
                _ => None,
            })
        })
    }

    /// Checks the trace invariants; [`RunTrace::stats`] does the counting:
    ///
    /// * the trace is lossless (no ring overflowed);
    /// * timestamps are monotonic (non-decreasing) per lane, where a run is
    ///   recorded at its end: no run ends before it starts, and no record
    ///   of a lane falls inside a run on that lane;
    /// * every task runs at most once;
    /// * task indices stay inside the meta task table (when non-empty);
    /// * phases close in LIFO order per lane.
    pub fn validate(&self) -> Result<(), TraceError> {
        if let Some(w) = self.workers.iter().find(|w| w.overwritten > 0) {
            let (worker, overwritten) = (w.worker, w.overwritten);
            return Err(TraceError::Lossy {
                worker,
                overwritten,
            });
        }
        let tasks = self.meta.tasks.len();
        let lanes = (self.workers.iter().map(|w| (w.worker, &w.events)))
            .chain([(self.workers.len(), &self.prelude)]);
        for (worker, events) in lanes {
            let (mut clock, mut phases) = (0, Vec::new());
            for (index, e) in events.iter().enumerate() {
                let (task, end) = match e.kind {
                    EventKind::TaskReady { task } => (Some(task), e.ts),
                    EventKind::TaskRun { task, end, .. } => (Some(task), end),
                    EventKind::Park | EventKind::Unpark => (None, e.ts),
                    EventKind::PhaseStart { name } => {
                        phases.push(name);
                        (None, e.ts)
                    }
                    EventKind::PhaseEnd { name } => match phases.pop() {
                        Some(open) if open == name => (None, e.ts),
                        _ => return Err(TraceError::UnbalancedPhase { worker, name }),
                    },
                };
                if e.ts < clock || end < e.ts {
                    return Err(TraceError::NonMonotonic { worker, index });
                }
                clock = end;
                if let Some(task) = task.filter(|&task| tasks > 0 && task as usize >= tasks) {
                    return Err(TraceError::UnknownTask { task });
                }
            }
            if let Some(name) = phases.pop() {
                return Err(TraceError::UnbalancedPhase { worker, name });
            }
        }
        match self.repeated_run() {
            Some(task) => Err(TraceError::DuplicateStart { task }),
            None => Ok(()),
        }
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

    fn run(ts: u64, task: u32, end: u64, provenance: Option<Provenance>) -> TraceEvent {
        ev(
            ts,
            EventKind::TaskRun {
                task,
                end,
                provenance,
            },
        )
    }

    #[test]
    fn valid_trace_produces_stats() {
        let steal = Provenance::Steal {
            victim: 1,
            cross_group: true,
        };
        let trace = RunTrace {
            meta: meta(2),
            prelude: vec![ev(0, EventKind::TaskReady { task: 0 })].into(),
            workers: vec![lane(
                0,
                vec![
                    run(2, 0, 5, Some(Provenance::Local)),
                    run(6, 1, 9, Some(steal)),
                    ev(9, EventKind::Park),
                ],
            )],
        };
        trace.validate().unwrap();
        assert_eq!(trace.total_events(), 1 + 3 + 3 + 1);
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

    /// Without a task table, ids index a vector only up to the record
    /// count; larger ones take the map, and both give what a map alone gave.
    #[test]
    fn sparse_ids_without_a_task_table() {
        let far = 4_000_000_000;
        let trace = RunTrace {
            meta: meta(0),
            prelude: vec![
                ev(0, EventKind::TaskReady { task: far }),
                ev(1, EventKind::TaskReady { task: 2 }),
                ev(2, EventKind::TaskReady { task: far }),
            ]
            .into(),
            workers: vec![
                lane(0, vec![run(2, far, 5, Some(Provenance::Queue))]),
                lane(1, vec![run(3, 2, 4, None)]),
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
        twice.workers[1].events.push(run(6, far, 7, None));
        assert_eq!(
            twice.validate(),
            Err(TraceError::DuplicateStart { task: far })
        );
        // A lane that lost records may hold a repeat; the trace is lossy.
        twice.workers[1].overwritten = 1;
        assert_eq!(twice.repeated_run(), None);
    }

    #[test]
    fn backwards_time_rejected() {
        let reversed = RunTrace {
            meta: meta(1),
            prelude: Default::default(),
            workers: vec![lane(0, vec![run(5, 0, 3, None)])],
        };
        let backwards = TraceError::NonMonotonic {
            worker: 0,
            index: 0,
        };
        assert_eq!(reversed.validate(), Err(backwards));
        let trace = RunTrace {
            meta: meta(1),
            prelude: Default::default(),
            workers: vec![lane(
                0,
                vec![ev(5, EventKind::Park), ev(3, EventKind::Unpark)],
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
            workers: vec![lane(0, vec![run(1, 0, 2, None), run(3, 0, 4, None)])],
        };
        assert_eq!(
            trace.validate(),
            Err(TraceError::DuplicateStart { task: 0 })
        );
    }

    #[test]
    fn a_record_inside_a_run_is_rejected() {
        // A nested run, and a ready while a run is going on: a run is
        // recorded at its end, so either goes back in time.
        let overlap = TraceError::NonMonotonic {
            worker: 0,
            index: 1,
        };
        for inside in [run(2, 1, 4, None), ev(3, EventKind::TaskReady { task: 1 })] {
            let trace = RunTrace {
                meta: meta(2),
                prelude: Default::default(),
                workers: vec![lane(0, vec![run(1, 0, 5, None), inside])],
            };
            assert_eq!(trace.validate(), Err(overlap.clone()));
        }
        // A record at a run's end, and runs of no length, are not inside.
        let trace = RunTrace {
            meta: meta(3),
            prelude: Default::default(),
            workers: vec![lane(
                0,
                vec![
                    run(1, 0, 5, None),
                    run(5, 1, 5, None),
                    run(5, 2, 6, None),
                    ev(6, EventKind::Park),
                ],
            )],
        };
        trace.validate().unwrap();
    }

    #[test]
    fn lossy_trace_rejected() {
        let trace = RunTrace {
            meta: meta(0),
            prelude: Default::default(),
            workers: vec![WorkerTrace {
                worker: 0,
                events: EventLog::default(),
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
