//! Baselines: the implementations the shipped engines replaced, kept where
//! benchmarks and differential tests can reach them and users cannot.
//!
//! * [`SingleQueueExecutor`] — the seed thread engine, every ready task
//!   through one shared channel; what `engine_scaling` measures the
//!   work-stealing [`hetero_rt::thread_engine::ThreadedExecutor`] against.
//! * [`HeapEventQueue`] — the `BinaryHeap` event queue; the reference of
//!   `tests/calendar_queue.rs` and `sim_scaling` for [`simhw::EventQueue`].
//!
//! Both are written against the public API of the crates they baseline.

use hetero_rt::graph::CompiledGraph;
use hetero_rt::task::TaskId;
use hetero_rt::thread_engine::{ExecReport, TaskStats, ThreadEngineError, ThreadTask, WorkerStats};
use hetero_trace::{
    EventKind, LaneLabel, Provenance, RunTrace, TaskInfo, TimeUnit, TraceClock, TraceMeta,
    TraceSink, WorkerTrace,
};
use simhw::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration as StdDuration;

/// The seed engine: a fixed-size pool where every ready task flows through
/// one shared channel whose receiver the workers take turns on. Placement
/// groups are ignored, and a task body that panics takes the run down with
/// it.
#[derive(Debug, Clone)]
pub struct SingleQueueExecutor {
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
    pub fn new(workers: usize) -> Self {
        SingleQueueExecutor {
            workers: workers.max(1),
            sink: TraceSink::Null,
        }
    }

    /// Enables (or disables) event tracing for subsequent runs.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Executes all tasks, returning per-task stats in global completion
    /// order.
    pub fn run(&self, tasks: Vec<ThreadTask>) -> Result<ExecReport, ThreadEngineError> {
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
                    label: t.label.clone(),
                    category: "task".into(),
                    group: t.group.as_deref().map(Arc::from),
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
        let (labels, work): (Vec<Arc<str>>, Vec<_>) = tasks
            .into_iter()
            .map(|t| (t.label, Mutex::new(Some(t.work))))
            .unzip();
        prelude.record(&clock, phase(false, "validate"));
        let n = graph.len();
        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(self.workers);
        if n == 0 {
            worker_stats.extend((0..self.workers).map(|worker| WorkerStats {
                worker,
                ..WorkerStats::default()
            }));
            return Ok(ExecReport {
                tasks: Vec::new(),
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
        let stats: Mutex<Vec<TaskStats>> = Mutex::new(Vec::with_capacity(n));
        let mut worker_traces: Vec<WorkerTrace> = Vec::new();

        prelude.record(&clock, phase(true, "execute"));
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers);
            for worker in 0..self.workers {
                let tx = tx.clone();
                let (rx, graph, pending, labels, work) = (&rx, &graph, &pending, &labels, &work);
                let completed = &completed;
                let stats = &stats;
                let workers_total = self.workers;
                let mut tracer = self.sink.worker_tracer();
                handles.push(scope.spawn(move || {
                    let mut out = WorkerStats {
                        worker,
                        ..WorkerStats::default()
                    };
                    // The receiver's guard ends with the closure: kept across
                    // the loop body, it would serialize the pool.
                    let recv = || rx.lock().expect(POISONED).recv();
                    while let Ok(i) = recv() {
                        if i == SHUTDOWN {
                            break;
                        }
                        tracer.record(
                            &clock,
                            EventKind::TaskDequeued {
                                task: i as u32,
                                provenance: Provenance::Queue,
                            },
                        );
                        let job = work[i]
                            .lock()
                            .expect(POISONED)
                            .take()
                            .expect("task runs once");
                        let t0 = clock.now();
                        tracer.record_at(t0, EventKind::TaskStart { task: i as u32 });
                        job();
                        let t1 = clock.now();
                        tracer.record_at(t1, EventKind::TaskEnd { task: i as u32 });
                        let dt = TraceClock::between(t0, t1);
                        out.executed += 1;
                        out.busy += dt;
                        stats.lock().expect(POISONED).push(TaskStats {
                            label: labels[i].clone(),
                            worker,
                            duration: dt,
                        });
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
            tasks: stats.into_inner().expect(POISONED),
            wall: StdDuration::from_nanos(clock.now()),
            workers: self.workers,
            worker_stats,
            groups: vec!["all".to_string()],
            trace,
        })
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

/// The original `BinaryHeap`-backed event queue.
///
/// Functionally identical to [`simhw::EventQueue`] (same API, same
/// deterministic order); kept as the reference implementation that
/// differential tests and the `sim_scaling` benchmark compare the calendar
/// queue against.
#[derive(Debug, Clone)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time: the fire time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past (before [`now`](Self::now)).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
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
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.payload))
    }

    /// Fire time of the next event, without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simhw::time::Duration;
    use simhw::EventQueue;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn traced_single_queue_uses_queue_provenance() {
        let tasks: Vec<ThreadTask> = (0..12)
            .map(|i| ThreadTask::new(format!("t{i}"), || {}))
            .collect();
        let report = SingleQueueExecutor::new(3)
            .with_trace(hetero_trace::TraceSink::ring())
            .run(tasks)
            .unwrap();
        let trace = report.trace.as_ref().expect("trace collected");
        trace.validate().expect("invariants hold");
        for span in trace.task_spans() {
            assert_eq!(span.provenance, Some(Provenance::Queue));
        }
    }

    #[test]
    fn single_queue_baseline_agrees() {
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<ThreadTask> = (0..30)
            .map(|i| {
                let c = counter.clone();
                let mut t = ThreadTask::new(format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
                if i >= 10 {
                    t = t.after([i - 10]);
                }
                t
            })
            .collect();
        let report = SingleQueueExecutor::new(3).run(tasks).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 30);
        assert_eq!(report.tasks.len(), 30);
        assert_eq!(report.total_steals(), 0); // no steal concept
    }

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn heap_scheduling_into_the_past_panics() {
        let mut q = HeapEventQueue::new();
        q.schedule(t(5.0), ());
        q.pop();
        q.schedule(t(1.0), ());
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
                let mut at = cal.now() + Duration::new(rng.f64() * horizon);
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
}
