//! The seed thread engine, kept as the reference `tests/work_stealing.rs`
//! and `tests/trace_invariants.rs` hold the work-stealing
//! [`ThreadedExecutor`](hetero_rt::thread_engine::ThreadedExecutor) to:
//! every ready task flows through one shared channel. Written against the
//! engine's public API, and included by `#[path]` into each binary that
//! uses it.

use hetero_rt::graph::CompiledGraph;
use hetero_rt::task::TaskId;
use hetero_rt::thread_engine::{ExecReport, ThreadEngineError, ThreadTask, WorkerStats};
use hetero_trace::{
    EventKind, LaneLabel, Provenance, RunTrace, TaskInfo, TimeUnit, TraceClock, TraceMeta,
    TraceSink, WorkerTrace,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration as StdDuration;

/// The seed engine: a fixed-size pool where every ready task flows through
/// one shared channel whose receiver the workers take turns on. Placement
/// groups are ignored, and a task body that panics takes the run down with
/// it.
#[derive(Debug, Clone)]
pub(crate) struct SingleQueueExecutor {
    workers: usize,
    sink: TraceSink,
}

/// The pool's locks guard only a receive, a take or a push, none of which
/// panics, so a poisoned one is a bug in this pool.
const POISONED: &str = "a pool lock's critical section panicked";

fn phase(start: bool, name: &str) -> EventKind {
    if start {
        EventKind::PhaseStart { name: name.into() }
    } else {
        EventKind::PhaseEnd { name: name.into() }
    }
}

impl SingleQueueExecutor {
    /// A pool with the given number of worker threads (min 1).
    pub(crate) fn new(workers: usize) -> Self {
        SingleQueueExecutor {
            workers: workers.max(1),
            sink: TraceSink::Null,
        }
    }

    /// Enables (or disables) event tracing for subsequent runs.
    #[allow(dead_code)] // `tests/work_stealing.rs` runs it untraced.
    pub(crate) fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Executes all tasks, returning per-worker stats and, traced, one run
    /// per task.
    pub(crate) fn run(&self, tasks: Vec<ThreadTask>) -> Result<ExecReport, ThreadEngineError> {
        let clock = TraceClock::new();
        let mut prelude = self.sink.worker_tracer();
        prelude.record(&clock, phase(true, "validate"));
        let meta = self.sink.enabled().then(|| TraceMeta {
            platform: None,
            lanes: (0..self.workers)
                .map(|w| LaneLabel {
                    name: format!("w{w}"),
                    group: None,
                })
                .collect(),
            tasks: tasks
                .iter()
                .map(|t| TaskInfo {
                    label: &t.label,
                    category: "task",
                    group: t.group.as_deref(),
                })
                .collect(),
            time_unit: TimeUnit::RealNanos,
        });
        let graph =
            CompiledGraph::from_dependencies(tasks.len(), |i| tasks[i].deps.iter().copied())
                .map_err(|(task, dep)| ThreadEngineError::ForwardDependency { task, dep })?;
        let pending: Vec<AtomicUsize> = graph
            .pending()
            .iter()
            .map(|&p| AtomicUsize::new(p))
            .collect();
        let work: Vec<_> = tasks
            .into_iter()
            .map(|t| Mutex::new(Some(t.work)))
            .collect();
        prelude.record(&clock, phase(false, "validate"));
        let n = graph.len();
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(self.workers);
        if n == 0 {
            worker_stats.extend((0..self.workers).map(|worker| WorkerStats {
                worker,
                busy: Some(StdDuration::ZERO),
                ..WorkerStats::default()
            }));
            return Ok(ExecReport {
                wall: StdDuration::from_nanos(clock.now()),
                workers: self.workers,
                worker_stats,
                groups: vec!["all".to_string()],
                trace: None,
            });
        }

        // Queue protocol: task indices flow through the channel; SHUTDOWN
        // sentinels release blocked workers once all tasks completed (the
        // channel can never close on its own, since every blocked worker
        // holds a sender clone).
        const SHUTDOWN: usize = usize::MAX;
        let (tx, rx) = mpsc::channel::<usize>();
        prelude.record(&clock, phase(true, "seed"));
        for &TaskId(i) in graph.ready() {
            prelude.record(&clock, EventKind::TaskReady { task: i as u32 });
            tx.send(i).expect("queue open");
        }
        prelude.record(&clock, phase(false, "seed"));

        let completed = AtomicUsize::new(0);
        let rx = Mutex::new(rx);
        let mut worker_traces: Vec<WorkerTrace> = Vec::new();

        prelude.record(&clock, phase(true, "execute"));
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers);
            for worker in 0..self.workers {
                let tx = tx.clone();
                let (rx, graph, pending, work) = (&rx, &graph, &pending, &work);
                let completed = &completed;
                let workers_total = self.workers;
                let mut tracer = self.sink.worker_tracer();
                handles.push(scope.spawn(move || {
                    let mut out = WorkerStats {
                        worker,
                        ..WorkerStats::default()
                    };
                    let mut busy = StdDuration::ZERO;
                    // The receiver's guard ends with the closure: kept across
                    // the loop body, it would serialize the pool.
                    let recv = || rx.lock().expect(POISONED).recv();
                    while let Ok(i) = recv() {
                        if i == SHUTDOWN {
                            break;
                        }
                        let job = work[i]
                            .lock()
                            .expect(POISONED)
                            .take()
                            .expect("task runs once");
                        let t0 = clock.now();
                        job();
                        let t1 = clock.now();
                        let run = EventKind::TaskRun {
                            task: i as u32,
                            end: t1,
                            provenance: Some(Provenance::Queue),
                        };
                        tracer.record_at(t0, run);
                        out.executed += 1;
                        busy += TraceClock::between(t0, t1);
                        for &TaskId(dep) in graph.dependents(TaskId(i)) {
                            if pending[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                                tracer.record(&clock, EventKind::TaskReady { task: dep as u32 });
                                let _ = tx.send(dep);
                            }
                        }
                        if completed.fetch_add(1, Ordering::AcqRel) + 1 == n {
                            // All done: wake every worker (including self on
                            // the next recv) with shutdown sentinels.
                            for _ in 0..workers_total {
                                let _ = tx.send(SHUTDOWN);
                            }
                        }
                    }
                    // The oracle times every task.
                    out.busy = Some(busy);
                    (out, tracer.finish(worker))
                }));
            }
            drop(tx);
            for h in handles {
                let (ws, wt) = h.join().expect("worker panicked");
                worker_stats.push(ws);
                worker_traces.extend(wt);
            }
        });
        prelude.record(&clock, phase(false, "execute"));

        let trace = meta.map(|meta| RunTrace {
            meta,
            prelude: prelude
                .finish(self.workers)
                .map(|wt| wt.events)
                .unwrap_or_default(),
            workers: worker_traces,
        });

        Ok(ExecReport {
            wall: StdDuration::from_nanos(clock.now()),
            workers: self.workers,
            worker_stats,
            groups: vec!["all".to_string()],
            trace,
        })
    }
}
