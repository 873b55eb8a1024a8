//! Real (non-simulated) task execution on a work-stealing thread pool.
//!
//! The simulated engine answers *how long would this run on that machine*;
//! this engine actually runs task closures, respecting the same dependency
//! semantics, so functional correctness of generated programs can be tested
//! end-to-end (the vecadd/DGEMM examples execute real kernels through it).
//!
//! # Execution model
//!
//! [`ThreadedExecutor`] is a **work-stealing** executor: every worker owns a
//! deque — a `std::sync::Mutex<VecDeque>` — and pops it **LIFO** (a
//! just-unblocked dependent reuses the cache its parent warmed), while other
//! workers steal **FIFO** from the opposite end (the oldest task is the best
//! candidate to migrate — it has waited longest and tends to root the
//! largest untouched subtree); a thief that finds the lock held moves on.
//! Dependency bookkeeping is lock-free: each task carries an `AtomicUsize`
//! of outstanding dependencies; the worker completing the last one
//! decrements it to zero and enqueues the dependent directly, so the ready
//! set never funnels through a shared queue.
//!
//! # Affinity
//!
//! Workers can be partitioned into **placement groups** — the thread-level
//! image of the PDL's logic groups (§III-B) that Cascabel's `execute`
//! annotations name as execution groups (§IV-A). A [`Placement`] is built
//! either by hand ([`Placement::with_group`]) or straight from a platform
//! description ([`Placement::from_logic_groups`], resolving `pdl-query`
//! group set-expressions). Tasks annotated with a group are seeded to and
//! woken on that group's workers; other groups steal them only when their
//! own group has run completely dry, so affinity is a strong preference,
//! never a deadlock risk.
//!
//! # One submission path
//!
//! Every run executes a [`CompiledGraph`]: [`ThreadedExecutor::run`]
//! compiles a [`TaskList`]'s dependency lists and runs the result once,
//! [`ThreadedExecutor::compile_graph`] + [`ThreadedExecutor::run_compiled`]
//! compile a [`TaskGraph`] once and run it many times. Dependencies must
//! point to earlier task indices (submission order), which guarantees
//! acyclicity by construction — same rule as the graphs built by
//! [`TaskGraph`]. Either way a worker obtains a task's body only once it
//! has claimed the task: `run` takes it out of the list's claim slot, and
//! `run_compiled` has its factory build it on that worker. A task body (or
//! a factory) that panics ends the run with
//! [`ThreadEngineError::TaskPanicked`]; it never hangs the pool.
//!
//! A [`TaskList`] is columns — one label column, every dependency list
//! back to back, a group symbol per task, the bodies — whether
//! [`from_graph`] copied it from a graph or it was collected from
//! hand-built [`ThreadTask`] rows. A traced run copies the label column
//! into its trace's task table once, and writes one record per task run —
//! task index, start, end and steal provenance — into the worker's ring:
//! besides its body, a task costs the list path no allocation of its own.
//!
//! The seed single-queue engine this one replaced lives on as a test
//! reference in `tests/common/single_queue.rs`.

use crate::graph::{CompiledGraph, TaskGraph};
use crate::task::TaskId;
use hetero_trace::{
    EventKind, Labels, LaneLabel, Provenance, RunTrace, TaskTable, TimeUnit, TraceClock, TraceMeta,
    TraceSink, WorkerTrace, WorkerTracer,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration as StdDuration;

mod placement;
mod report;
mod task_list;

pub use placement::{Placement, PlacementGroup};
pub use report::{ExecReport, ThreadEngineError, WorkerStats};
pub use task_list::{from_graph, ListedTask, TaskList, ThreadTask};

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

/// Builds task `i`'s body, on the worker that has just claimed task `i`.
type BodyFactory<'a> = &'a (dyn Fn(usize) -> Box<dyn FnOnce() + Send> + Sync);

/// A [`TaskGraph`] compiled for one executor's placement.
///
/// [`ThreadedExecutor::compile_graph`] prebuilds everything a run needs
/// besides the task bodies — the graph's [`CompiledGraph`], its label
/// column, the placement-resolved group of every task — so each
/// [`ThreadedExecutor::run_compiled`] batch only instantiates fresh atomic
/// counters. A traced batch's task table copies the label column.
#[derive(Debug, Clone)]
pub struct PlacedGraph {
    graph: CompiledGraph,
    labels: Labels,
    task_group: Vec<Option<usize>>,
    group_names: Vec<String>,
}

/// Lane labels for `workers` threads under an optional placement: PU ids
/// where the placement knows them, `w<i>` otherwise, plus the logic-group
/// name of each worker's range.
fn lane_labels(workers: usize, placement: Option<&Placement>) -> Vec<LaneLabel> {
    let mut lanes = Vec::with_capacity(workers);
    for g in placement.into_iter().flat_map(|p| &p.groups) {
        for k in 0..g.workers {
            lanes.push(LaneLabel {
                name: g
                    .members
                    .get(k)
                    .cloned()
                    .unwrap_or_else(|| format!("w{}", lanes.len())),
                group: Some(g.name.clone()),
            });
        }
    }
    lanes.truncate(workers);
    while lanes.len() < workers {
        lanes.push(LaneLabel {
            name: format!("w{}", lanes.len()),
            group: None,
        });
    }
    lanes
}

// ---------------------------------------------------------------------------
// Work-stealing executor
// ---------------------------------------------------------------------------

/// How long an idle worker sleeps between steal scans. Only three things
/// notify sleepers: the run's last completion, a completion that hands a
/// task to another group, and a panicking task. Same-group work, a fork
/// point's surplus included, waits for a sleeper's next scan, so this bounds
/// how long such work sits idle, as well as the shutdown latency.
const PARK_TIMEOUT: StdDuration = StdDuration::from_millis(2);

/// A work-stealing, affinity-aware thread pool executing dependency graphs.
#[derive(Debug, Clone)]
pub struct ThreadedExecutor {
    workers: usize,
    placement: Option<Placement>,
    sink: TraceSink,
    task_stats: bool,
}

fn phase_start(name: &str) -> EventKind {
    EventKind::PhaseStart { name: name.into() }
}

fn phase_end(name: &str) -> EventKind {
    EventKind::PhaseEnd { name: name.into() }
}

impl ThreadedExecutor {
    /// A pool with the given number of worker threads (min 1) and no
    /// placement groups: every task may run on every worker.
    pub fn new(workers: usize) -> Self {
        ThreadedExecutor {
            workers: workers.max(1),
            placement: None,
            sink: TraceSink::Null,
            task_stats: true,
        }
    }

    /// A pool partitioned according to `placement`: one dedicated worker
    /// range per group, `placement.total_workers()` threads overall.
    /// A group given no workers gets one, as [`Placement::with_group`]
    /// would have.
    pub fn with_placement(mut placement: Placement) -> Self {
        for g in &mut placement.groups {
            g.workers = g.workers.max(1);
        }
        let workers = placement.total_workers().max(1);
        ThreadedExecutor {
            workers,
            placement: (placement.total_workers() > 0).then_some(placement),
            sink: TraceSink::Null,
            task_stats: true,
        }
    }

    /// Enables (or disables) event tracing, builder style. The default is
    /// [`TraceSink::Null`]: no events, no clock reads, no overhead. With a
    /// ring sink, [`ExecReport::trace`] carries the drained [`RunTrace`],
    /// every event labeled with the worker's PDL identity from the
    /// placement.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Enables or disables timing the task bodies (default **on**).
    ///
    /// With it off, a run that does not trace either reads no clock per
    /// task: the two readings that time a body (≈ 50 ns each) cost more
    /// than an empty task itself. Such an untimed run reports
    /// [`WorkerStats::busy`] as `None`; its counters (`executed`, steals,
    /// failed scans) and [`ExecReport::wall`] are kept. A traced run still
    /// times every task, so its `busy` is the sum of its spans; per-task
    /// rows are its trace's runs ([`RunTrace::task_spans`]).
    pub fn with_task_stats(mut self, enabled: bool) -> Self {
        self.task_stats = enabled;
        self
    }

    /// Whether a run has a consumer for per-task times — busy time or a
    /// recording sink — and so reads the clock around every body.
    fn timed(&self) -> bool {
        self.task_stats || self.sink.enabled()
    }

    /// Group names under the configured placement (a single `"all"`
    /// pseudo-group when there is none).
    fn group_names(&self) -> Vec<String> {
        match &self.placement {
            None => vec!["all".to_string()],
            Some(p) => p.groups.iter().map(|g| g.name.clone()).collect(),
        }
    }

    /// Resolves each task's group — an index into `names`, the groups its
    /// tasks name — against the placement: each name once, then a lookup
    /// per task. The first task whose group the placement lacks is the
    /// error.
    fn resolve_task_groups(
        &self,
        names: &[String],
        groups: impl Iterator<Item = Option<usize>>,
    ) -> Result<Vec<Option<usize>>, ThreadEngineError> {
        let Some(p) = &self.placement else {
            return Ok(groups.map(|_| None).collect());
        };
        let resolved: Vec<Option<usize>> = names
            .iter()
            .map(|name| p.groups.iter().position(|g| g.name == *name))
            .collect();
        groups
            .enumerate()
            .map(|(task, group)| match group {
                None => Ok(None),
                Some(g) => resolved[g]
                    .map(Some)
                    .ok_or_else(|| ThreadEngineError::UnknownGroup {
                        task,
                        group: names[g].clone(),
                    }),
            })
            .collect()
    }

    /// Starts a run: one clock for the whole run — every worker stamps
    /// events and measures durations against the same monotonic origin —
    /// and the prelude lane with the `validate` phase open.
    fn begin(&self) -> (TraceClock, WorkerTracer) {
        let clock = TraceClock::new();
        let mut prelude = self.sink.worker_tracer();
        prelude.record(&clock, phase_start("validate"));
        (clock, prelude)
    }

    /// Executes all tasks, returning per-worker stats: the dependency lists
    /// are compiled, then run like any compiled graph. A `Vec<ThreadTask>`
    /// converts into a [`TaskList`]; a traced run's task table copies the
    /// list's label column.
    pub fn run(&self, tasks: impl Into<TaskList>) -> Result<ExecReport, ThreadEngineError> {
        let tasks = tasks.into();
        let start = self.begin();
        let task_group = self.resolve_task_groups(
            &tasks.group_names,
            (0..tasks.len()).map(|i| tasks.group_index(i)),
        )?;
        let graph =
            CompiledGraph::from_dependencies(tasks.len(), |i| tasks.deps(i).iter().copied())
                .map_err(|(task, dep)| ThreadEngineError::ForwardDependency { task, dep })?;
        // Each body is claimable exactly once, by whichever worker runs it.
        let slots: Vec<Mutex<Option<_>>> = tasks
            .work
            .into_iter()
            .map(|w| Mutex::new(Some(w)))
            .collect();
        let take = |i: usize| lock(&slots[i]).take().expect("task runs once");
        self.execute(start, &graph, &task_group, &tasks.labels, &take)
    }

    /// Compiles a [`TaskGraph`]'s structure for repeated execution with
    /// [`run_compiled`](Self::run_compiled): [`TaskGraph::compile`] plus
    /// the label column and the placement-resolved group of every task.
    pub fn compile_graph(&self, graph: &TaskGraph) -> Result<PlacedGraph, ThreadEngineError> {
        let task_group = self.resolve_task_groups(
            graph.groups(),
            (0..graph.len()).map(|t| graph.group_index(TaskId(t))),
        )?;
        Ok(PlacedGraph {
            graph: graph.compile(),
            labels: graph.labels().clone(),
            task_group,
            group_names: self.group_names(),
        })
    }

    /// Executes a graph compiled by [`compile_graph`](Self::compile_graph);
    /// `work` builds each task's body from its task index.
    ///
    /// `work` is called on a worker thread, right after that worker claims
    /// the task and before the body's timed interval starts. It is called
    /// at most once per task, only for tasks that start — after a panic
    /// cancels the run, no further body is built — and possibly from
    /// several workers at once, hence `Sync`. A panic inside `work` is
    /// treated like a panic in the body it was building: the run ends with
    /// [`ThreadEngineError::TaskPanicked`] naming that task.
    ///
    /// The executor must define the same placement groups the graph was
    /// compiled against (group indices are baked in at compile time);
    /// otherwise [`ThreadEngineError::PlacementMismatch`] is returned.
    pub fn run_compiled(
        &self,
        graph: &PlacedGraph,
        work: impl Fn(usize) -> Box<dyn FnOnce() + Send> + Sync,
    ) -> Result<ExecReport, ThreadEngineError> {
        let start = self.begin();
        let group_names = self.group_names();
        if group_names != graph.group_names {
            return Err(ThreadEngineError::PlacementMismatch {
                compiled: graph.group_names.clone(),
                executor: group_names,
            });
        }
        self.execute(start, &graph.graph, &graph.task_group, &graph.labels, &work)
    }

    /// The one submission path: fresh pending counters over the compiled
    /// edges, the pool run, and the report. A traced run's task table
    /// copies `labels`, the run's column.
    fn execute(
        &self,
        (clock, mut prelude): (TraceClock, WorkerTracer),
        graph: &CompiledGraph,
        task_group: &[Option<usize>],
        labels: &Labels,
        work: BodyFactory<'_>,
    ) -> Result<ExecReport, ThreadEngineError> {
        let group_names = self.group_names();
        // PDL-labeled trace metadata, built only when events are kept: the
        // task table takes a copy of the whole label column.
        let meta = self.sink.enabled().then(|| TraceMeta {
            platform: self.placement.as_ref().and_then(|p| p.platform.clone()),
            lanes: lane_labels(self.workers, self.placement.as_ref()),
            tasks: TaskTable::from_column(
                labels.clone(),
                "task",
                task_group
                    .iter()
                    .map(|g| g.map(|g| group_names[g].as_str())),
            ),
            time_unit: TimeUnit::RealNanos,
        });
        let pending: Vec<AtomicUsize> = graph
            .pending()
            .iter()
            .map(|&p| AtomicUsize::new(p))
            .collect();
        prelude.record(&clock, phase_end("validate"));
        let out = if graph.is_empty() {
            // Nothing to run: no pool, and every lane of the trace is empty.
            RunOutput {
                worker_stats: (0..self.workers)
                    .map(|worker| WorkerStats {
                        worker,
                        busy: self.timed().then_some(StdDuration::ZERO),
                        ..WorkerStats::default()
                    })
                    .collect(),
                worker_traces: (0..self.workers)
                    .filter_map(|worker| self.sink.worker_tracer().finish(worker))
                    .collect(),
                prelude,
                wall: StdDuration::from_nanos(clock.now()),
            }
        } else {
            let rt = Runtime {
                graph,
                pending: &pending,
                work,
                task_group,
            };
            self.run_pool(clock, prelude, rt)?
        };

        let trace = meta.map(|meta| RunTrace {
            meta,
            prelude: out
                .prelude
                .finish(self.workers)
                .map(|wt| wt.events)
                .unwrap_or_default(),
            workers: out.worker_traces,
        });
        Ok(ExecReport {
            wall: out.wall,
            workers: self.workers,
            worker_stats: out.worker_stats,
            groups: group_names,
            trace,
        })
    }

    /// Seeds the ready tasks, spawns the scoped worker pool, joins it and
    /// collects raw per-worker output — or the first task panic.
    fn run_pool(
        &self,
        clock: TraceClock,
        mut prelude: WorkerTracer,
        rt: Runtime<'_>,
    ) -> Result<RunOutput, ThreadEngineError> {
        let n = rt.graph.len();
        // Worker → group map: contiguous ranges in group order.
        let worker_group: Vec<usize> = match &self.placement {
            None => vec![0; self.workers],
            Some(p) => p
                .groups
                .iter()
                .enumerate()
                .flat_map(|(g, spec)| std::iter::repeat_n(g, spec.workers))
                .collect(),
        };
        let group_count = worker_group.iter().copied().max().unwrap_or(0) + 1;
        let mut group_workers: Vec<Vec<usize>> = vec![Vec::new(); group_count];
        for (w, &g) in worker_group.iter().enumerate() {
            group_workers[g].push(w);
        }

        let injectors: Vec<Queue> = (0..group_count).map(|_| Queue::default()).collect();

        // Seed initially-ready tasks round-robin across their group's
        // workers (or all workers when ungrouped), so there is no single
        // contended entry queue even at t=0.
        prelude.record(&clock, phase_start("seed"));
        // Every seed is ready now, before any is pushed: one reading.
        let seeds_ready = if prelude.enabled() { clock.now() } else { 0 };
        let mut rr = vec![0usize; group_count + 1];
        let mut seeds = vec![VecDeque::new(); self.workers];
        for &TaskId(i) in rt.graph.ready() {
            prelude.record_at(seeds_ready, EventKind::TaskReady { task: i as u32 });
            let w = match rt.task_group[i] {
                Some(g) => {
                    let targets = &group_workers[g];
                    let slot = rr[g];
                    rr[g] = (slot + 1) % targets.len();
                    targets[slot]
                }
                None => {
                    rr[group_count] = (rr[group_count] + 1) % self.workers;
                    rr[group_count]
                }
            };
            seeds[w].push_back(i);
        }
        prelude.record(&clock, phase_end("seed"));
        let deques: Vec<Queue> = seeds.into_iter().map(Mutex::new).collect();

        let completed = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let park = Mutex::new(());
        let wake = Condvar::new();

        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(self.workers);
        let mut worker_traces: Vec<WorkerTrace> = Vec::new();
        prelude.record(&clock, phase_start("execute"));
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers);
            for me in 0..self.workers {
                let ctx = WorkerCtx {
                    me,
                    my_group: worker_group[me],
                    deques: &deques,
                    injectors: &injectors,
                    group_workers: &group_workers,
                    worker_group: &worker_group,
                    rt,
                    completed: &completed,
                    cancelled: &cancelled,
                    panicked: &panicked,
                    park: &park,
                    wake: &wake,
                    n,
                    clock,
                    tracer: self.sink.worker_tracer(),
                    timed: self.timed(),
                };
                handles.push(scope.spawn(move || ctx.run()));
            }
            for h in handles {
                // Task panics are caught inside the worker; this fires
                // only for a bug in the engine itself.
                let (ws, wt) = h.join().expect("worker panicked");
                worker_stats.push(ws);
                worker_traces.extend(wt);
            }
        });
        if let Some((task, message)) = lock(&panicked).take() {
            return Err(ThreadEngineError::TaskPanicked { task, message });
        }
        prelude.record(&clock, phase_end("execute"));
        Ok(RunOutput {
            worker_stats,
            worker_traces,
            prelude,
            wall: StdDuration::from_nanos(clock.now()),
        })
    }
}

/// One run's dependency state — the shape the workers actually touch: the
/// compiled edges (shared across batches), this run's counters, the body
/// factory and the group of every task.
#[derive(Clone, Copy)]
struct Runtime<'a> {
    graph: &'a CompiledGraph,
    pending: &'a [AtomicUsize],
    work: BodyFactory<'a>,
    task_group: &'a [Option<usize>],
}

/// Raw output of [`ThreadedExecutor::run_pool`], before label resolution
/// and trace assembly.
struct RunOutput {
    worker_stats: Vec<WorkerStats>,
    worker_traces: Vec<WorkerTrace>,
    prelude: WorkerTracer,
    wall: StdDuration,
}

/// Everything one worker thread needs, borrowed from the run invocation.
struct WorkerCtx<'a> {
    me: usize,
    my_group: usize,
    /// Every worker's deque, indexed by worker; this one's is `deques[me]`.
    deques: &'a [Queue],
    /// One FIFO queue per group, for tasks readied by another group.
    injectors: &'a [Queue],
    group_workers: &'a [Vec<usize>],
    worker_group: &'a [usize],
    rt: Runtime<'a>,
    completed: &'a AtomicUsize,
    /// Raised by the worker whose task panicked, read wherever `completed`
    /// is: the run is over, claim nothing more. It publishes no data of
    /// its own (the panic record sits behind its mutex), but every load
    /// decides whether another task body starts, so it is `SeqCst`.
    cancelled: &'a AtomicBool,
    /// The first task panic of the run: `(task, message)`.
    panicked: &'a Mutex<Option<(usize, String)>>,
    park: &'a Mutex<()>,
    wake: &'a Condvar,
    n: usize,
    clock: TraceClock,
    tracer: WorkerTracer,
    /// Whether to read the clock around each body: busy time or a
    /// recording tracer will use the readings. Implied by an enabled
    /// `tracer`.
    timed: bool,
}

/// What a panicking task body left behind, as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(
            || "non-string panic payload".to_string(),
            |m| (*m).to_string(),
        ),
    }
}

impl WorkerCtx<'_> {
    /// Whether the run is over: every task completed, or one panicked.
    fn finished(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst) || self.completed.load(Ordering::Acquire) >= self.n
    }

    fn run(mut self) -> (WorkerStats, Option<WorkerTrace>) {
        // The counters and busy time the hot loop writes without touching
        // any shared atomic, handed back once at join time.
        let mut out = WorkerStats {
            worker: self.me,
            group: self.my_group,
            busy: self.timed.then_some(StdDuration::ZERO),
            ..WorkerStats::default()
        };
        // Same-group dependents readied by one completion beyond its
        // continuation, pushed to the deque under one lock.
        let mut surplus = Vec::new();
        let mut tracer = std::mem::replace(&mut self.tracer, WorkerTracer::Null);
        while !self.finished() {
            match self.find_task() {
                Some((task, mut provenance)) => {
                    out.steals += usize::from(provenance.is_steal());
                    out.cross_group_steals += usize::from(provenance.is_cross_group());
                    // Continuation chaining: when a completed task readies
                    // exactly one same-group dependent, run it directly —
                    // no deque round-trip, no wake.
                    let mut current = Some(task);
                    while let Some(task) = current {
                        current =
                            self.execute(task, provenance, &mut out, &mut surplus, &mut tracer);
                        provenance = Provenance::Local;
                    }
                }
                None => {
                    out.failed_steals += 1;
                    let guard = lock(self.park);
                    if self.finished() {
                        break;
                    }
                    // Timed wait: a missed notification costs at most
                    // PARK_TIMEOUT, so no wake-up protocol bug can hang the
                    // pool.
                    tracer.record(&self.clock, EventKind::Park);
                    let _ = self
                        .wake
                        .wait_timeout(guard, PARK_TIMEOUT)
                        .unwrap_or_else(PoisonError::into_inner);
                    tracer.record(&self.clock, EventKind::Unpark);
                }
            }
        }
        (out, tracer.finish(self.me))
    }

    /// Claims one ready task: own deque, then own group's injector and
    /// siblings, then — only when the whole group is dry — other groups.
    /// The claim's provenance feeds the steal counters and the task's run.
    fn find_task(&self) -> Option<(usize, Provenance)> {
        let steal = |victim: usize, cross_group| Provenance::Steal {
            victim: victim as u32,
            cross_group,
        };
        if let Some(i) = lock(&self.deques[self.me]).pop_back() {
            return Some((i, Provenance::Local));
        }
        if let Some(i) = lock(&self.injectors[self.my_group]).pop_front() {
            return Some((i, Provenance::Inject { cross_group: false }));
        }
        for &w in &self.group_workers[self.my_group] {
            if w == self.me {
                continue;
            }
            if let Some(i) = steal_from(&self.deques[w]) {
                return Some((i, steal(w, false)));
            }
        }
        // Group dry: scan foreign injectors, then foreign workers.
        for (g, injector) in self.injectors.iter().enumerate() {
            if g == self.my_group {
                continue;
            }
            if let Some(i) = lock(injector).pop_front() {
                return Some((i, Provenance::Inject { cross_group: true }));
            }
        }
        for (w, deque) in self.deques.iter().enumerate() {
            if self.worker_group[w] == self.my_group {
                continue;
            }
            if let Some(i) = steal_from(deque) {
                return Some((i, steal(w, true)));
            }
        }
        None
    }

    /// Builds and runs the task, counts and records it worker-locally,
    /// publishes newly-ready dependents. Returns, when one of the ready
    /// dependents belongs to this worker's group, that dependent as a
    /// continuation to run directly — skipping the deque entirely. A body
    /// (or its factory) that panics cancels the run instead: nothing is
    /// published, nothing continues.
    fn execute(
        &self,
        i: usize,
        provenance: Provenance,
        out: &mut WorkerStats,
        surplus: &mut Vec<usize>,
        tracer: &mut WorkerTracer,
    ) -> Option<usize> {
        // Both the busy time and the trace's run come from the run's shared
        // clock, so per-worker busy time and the exported spans are the same
        // numbers. They time the body alone, not its building. An untimed
        // run takes neither reading.
        let mut t0 = 0;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let job = (self.rt.work)(i);
            if self.timed {
                t0 = self.clock.now();
            }
            job();
        }));
        if let Err(payload) = ran {
            lock(self.panicked).get_or_insert_with(|| (i, panic_message(payload)));
            self.cancelled.store(true, Ordering::SeqCst);
            self.wake.notify_all();
            return None;
        }
        out.executed += 1;
        if let Some(busy) = &mut out.busy {
            let t1 = self.clock.now();
            let run = EventKind::TaskRun {
                task: i as u32,
                end: t1,
                provenance: Some(provenance),
            };
            tracer.record_at(t0, run);
            *busy += StdDuration::from_nanos(t1.saturating_sub(t0));
        }
        // Fused wakeups: the first runnable-here dependent becomes the
        // continuation, the rest go to the deque under one lock, and at most
        // one notify covers all cross-group hand-offs.
        let mut next: Option<usize> = None;
        let mut woke_other_group = false;
        let mut released_at: Option<u64> = None;
        for &TaskId(dep) in self.rt.graph.dependents(TaskId(i)) {
            if self.rt.pending[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                if tracer.enabled() {
                    // One reading per completion, taken after its first
                    // release and before that dependent is published, so
                    // ready ≤ the dependent's start. A later dependent that waited on this
                    // task alone shares it; one with other dependencies may
                    // have seen the last of them end after the reading, so
                    // it gets its own and ready ≥ every dependency's end.
                    let ts = match released_at {
                        Some(ts) if self.rt.graph.pending()[dep] == 1 => ts,
                        _ => *released_at.insert(self.clock.now()),
                    };
                    tracer.record_at(ts, EventKind::TaskReady { task: dep as u32 });
                }
                match self.rt.task_group[dep] {
                    Some(g) if g != self.my_group => {
                        // Affinity routing: deliver to the task's group.
                        lock(&self.injectors[g]).push_back(dep);
                        woke_other_group = true;
                    }
                    _ => {
                        if next.is_none() {
                            next = Some(dep);
                        } else {
                            surplus.push(dep);
                        }
                    }
                }
            }
        }
        // One deque lock per completion, not one per dependent. It is not
        // held across the loop above: a thief that finds it held moves on.
        if !surplus.is_empty() {
            lock(&self.deques[self.me]).extend(surplus.drain(..));
        }
        let me_last = self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.n;
        if me_last || woke_other_group {
            // Cross-group hand-offs are latency-sensitive (the target
            // group may be entirely asleep), so they get an eager wake.
            // Same-group surplus is left to the timed steal scans: waking
            // a sleeper per fork point costs a context switch per wake and
            // the sleepers re-scan within PARK_TIMEOUT anyway.
            self.wake.notify_all();
        }
        // A continuation is a task that has not started: after a panic
        // elsewhere it stays unrun like everything still queued.
        next.filter(|_| !self.cancelled.load(Ordering::SeqCst))
    }
}

/// A worker's deque or a group's injector: ready task indices.
type Queue = Mutex<VecDeque<usize>>;

/// Every engine lock is taken through here, poison ignored. That is sound
/// because a poisoned engine lock never guards broken data: task bodies and
/// factories panic only inside `catch_unwind`, never while holding an
/// engine lock, and no engine critical section can panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the oldest task of another worker's deque (thief FIFO). Bounded
/// attempts: on a held lock it moves on, because the task will be found by
/// a later scan and waiting would fight the owner for its own lock.
fn steal_from(deque: &Queue) -> Option<usize> {
    for _ in 0..2 {
        match deque.try_lock() {
            Ok(mut q) => return q.pop_front(),
            Err(TryLockError::Poisoned(p)) => return p.into_inner().pop_front(),
            Err(TryLockError::WouldBlock) => continue,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_trace::TaskSpan;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn runs_all_tasks() {
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<ThreadTask> = (0..50)
            .map(|i| {
                let c = counter.clone();
                ThreadTask::new(format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let report = ThreadedExecutor::new(4).run(tasks).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(report.workers, 4);
        assert_eq!(report.worker_stats.len(), 4);
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 50);
    }

    #[test]
    fn dependencies_respected() {
        // Each task appends its index; deps force strict order 0,1,2,3.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut tasks = Vec::new();
        for i in 0..4 {
            let log = log.clone();
            let mut t = ThreadTask::new(format!("t{i}"), move || {
                log.lock().unwrap().push(i);
            });
            if i > 0 {
                t = t.after([i - 1]);
            }
            tasks.push(t);
        }
        ThreadedExecutor::new(4).run(tasks).unwrap();
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn diamond_dependency() {
        //    0
        //   / \
        //  1   2
        //   \ /
        //    3
        let log = Arc::new(Mutex::new(Vec::new()));
        let push = |i: usize| {
            let log = log.clone();
            move || log.lock().unwrap().push(i)
        };
        let tasks = vec![
            ThreadTask::new("a", push(0)),
            ThreadTask::new("b", push(1)).after([0]),
            ThreadTask::new("c", push(2)).after([0]),
            ThreadTask::new("d", push(3)).after([1, 2]),
        ];
        ThreadedExecutor::new(3).run(tasks).unwrap();
        let order = log.lock().unwrap().clone();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
    }

    /// The error names the task and the first dependency, in the order
    /// written, that is not an earlier task.
    #[test]
    fn forward_dependency_rejected() {
        let tasks = vec![
            ThreadTask::new("a", || {}).after([1]), // forward!
            ThreadTask::new("b", || {}),
        ];
        let err = ThreadedExecutor::new(2).run(tasks).unwrap_err();
        assert_eq!(
            err,
            ThreadEngineError::ForwardDependency { task: 0, dep: 1 }
        );
        let tasks = vec![
            ThreadTask::new("a", || {}),
            ThreadTask::new("b", || {}),
            ThreadTask::new("c", || {}).after([1, 0, 1]),
            ThreadTask::new("d", || {}).after([1, 5, 4]),
            ThreadTask::new("e", || {}),
            ThreadTask::new("f", || {}),
        ];
        let err = ThreadedExecutor::new(2).run(tasks).unwrap_err();
        assert_eq!(
            err,
            ThreadEngineError::ForwardDependency { task: 3, dep: 5 }
        );
    }

    #[test]
    fn self_dependency_rejected() {
        let tasks = vec![ThreadTask::new("a", || {}).after([0])];
        assert!(ThreadedExecutor::new(1).run(tasks).is_err());
    }

    #[test]
    fn empty_graph() {
        let report = ThreadedExecutor::new(2).run(Vec::new()).unwrap();
        assert_eq!(report.worker_stats.len(), 2);
        assert!(report.trace.is_none(), "the null sink collects nothing");
        assert_eq!(report.total_busy(), Some(StdDuration::ZERO));
        let untimed = ThreadedExecutor::new(2)
            .with_task_stats(false)
            .run(Vec::new())
            .unwrap();
        assert!(untimed.worker_stats.iter().all(|w| w.busy.is_none()));
    }

    /// The runs of a traced report, with their labels.
    fn labelled_runs(report: &ExecReport) -> Vec<(TaskSpan, String)> {
        let trace = report.trace.as_ref().expect("a ring sink collects a trace");
        let label = |task: u32| trace.meta.tasks.get(task as usize).expect("in the table");
        (trace.task_spans().into_iter())
            .map(|span| (span.clone(), label(span.task).label.to_string()))
            .collect()
    }

    /// Each worker's busy time is exactly the sum of its own runs in the
    /// trace, on both submission paths.
    #[test]
    fn busy_is_the_sum_of_the_worker_runs() {
        let tasks: Vec<ThreadTask> = (0..48usize)
            .map(|i| {
                ThreadTask::new(format!("t{i}"), move || {
                    std::hint::black_box(i.wrapping_mul(0x9e37));
                })
                .after((i >= 4).then(|| i - 4))
            })
            .collect();
        let pool = ThreadedExecutor::new(3).with_trace(TraceSink::ring());
        let placed = pool.compile_graph(&diamond_graph()).unwrap();
        let reports = [
            pool.run(tasks).unwrap(),
            pool.run_compiled(&placed, |_| Box::new(|| {})).unwrap(),
        ];
        for report in reports {
            let runs = labelled_runs(&report);
            let length =
                |(span, _): &(TaskSpan, String)| StdDuration::from_nanos(span.end - span.start);
            for ws in &report.worker_stats {
                let own = runs.iter().filter(|(span, _)| span.worker == ws.worker);
                assert_eq!(ws.busy, Some(own.map(length).sum()), "worker {}", ws.worker);
            }
            assert_eq!(report.total_busy(), Some(runs.iter().map(length).sum()));
        }
    }

    /// A traced run of nothing still returns its trace: the lanes and the
    /// closed `validate` phase, through both entry points.
    #[test]
    fn empty_graph_traced_returns_a_valid_trace() {
        let pool = ThreadedExecutor::new(2).with_trace(TraceSink::ring());
        let placed = pool.compile_graph(&TaskGraph::new()).unwrap();
        assert_eq!(placed.graph.len(), 0);
        let reports = [
            pool.run(Vec::new()).unwrap(),
            pool.run_compiled(&placed, |_| unreachable!("no task to build"))
                .unwrap(),
        ];
        for report in reports {
            let trace = report.trace.expect("a ring sink collects a trace");
            trace.validate().expect("invariants hold");
            assert_eq!(trace.stats().tasks, 0);
            assert_eq!(trace.meta.lanes.len(), 2);
            assert_eq!(trace.workers.len(), 2);
            let phases: Vec<EventKind> = trace.prelude.iter().map(|e| e.kind).collect();
            assert_eq!(phases, [phase_start("validate"), phase_end("validate")]);
        }
        let plain = ThreadedExecutor::new(2)
            .run_compiled(&placed, |_| unreachable!("no task to build"))
            .unwrap();
        assert!(plain.trace.is_none());
    }

    /// A traced run's task table holds the run's label column: the placed
    /// graph's on every batch, a list's on its run.
    #[test]
    fn the_task_table_holds_the_label_column() {
        let pool = ThreadedExecutor::new(2).with_trace(TraceSink::ring());
        let placed = pool.compile_graph(&diamond_graph()).unwrap();
        let quiet = pool.clone().with_task_stats(false);
        for report in [
            pool.run_compiled(&placed, |_| Box::new(|| {})).unwrap(),
            quiet.run_compiled(&placed, |_| Box::new(|| {})).unwrap(),
        ] {
            let table = &report.trace.as_ref().expect("trace collected").meta;
            assert!(table.tasks.iter().map(|t| t.label).eq(placed.labels.iter()));
            assert!(table.tasks.iter().all(|t| t.category == "task"));
        }
        let list = from_graph(&diamond_graph(), |_| Box::new(|| {}));
        let text = list.labels.clone();
        let report = pool.run(list).unwrap();
        let table = &report.trace.as_ref().expect("trace collected").meta;
        assert!(table.tasks.iter().map(|t| t.label).eq(text.iter()));
    }

    /// On both paths a traced run holds exactly one run record per executed
    /// task, under the task's own label, with the claim's provenance.
    #[test]
    fn a_traced_run_holds_one_run_per_task() {
        let n = 24;
        let pool = ThreadedExecutor::new(3).with_trace(TraceSink::ring());
        let tasks: Vec<ThreadTask> = (0..n)
            .map(|i| ThreadTask::new(format!("t{i}"), || {}).after((i >= 5).then(|| i - 5)))
            .collect();
        let placed = pool.compile_graph(&independent_graph(n)).unwrap();
        let reports = [
            pool.run(tasks).unwrap(),
            pool.run_compiled(&placed, |_| Box::new(|| {})).unwrap(),
        ];
        for report in reports {
            let trace = report.trace.as_ref().expect("trace collected");
            let records = trace.workers.iter().flat_map(|w| w.events.iter());
            let runs = records.filter(|e| matches!(e.kind, EventKind::TaskRun { .. }));
            assert_eq!(runs.count(), n);
            let mut rows: Vec<(usize, String)> = labelled_runs(&report)
                .into_iter()
                .map(|(span, label)| {
                    assert!(span.provenance.is_some() && span.start <= span.end);
                    (span.task as usize, label)
                })
                .collect();
            rows.sort_unstable();
            let expect: Vec<(usize, String)> = (0..n).map(|i| (i, format!("t{i}"))).collect();
            assert_eq!(rows, expect);
            let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
            assert_eq!(executed, n);
            trace.validate().expect("one run per task validates");
        }
    }

    /// Each body is built exactly once, for a task that starts, on the
    /// worker that runs it — never on the caller's thread.
    #[test]
    fn bodies_are_built_on_the_worker_that_runs_them() {
        let caller = std::thread::current().id();
        for workers in [1, 3] {
            let pool = ThreadedExecutor::new(workers);
            let placed = pool.compile_graph(&independent_graph(24)).unwrap();
            let built = Mutex::new(Vec::new());
            let ran = Arc::new(Mutex::new(Vec::new()));
            pool.run_compiled(&placed, |i| {
                built.lock().unwrap().push((i, std::thread::current().id()));
                let ran = ran.clone();
                Box::new(move || ran.lock().unwrap().push((i, std::thread::current().id())))
            })
            .unwrap();
            let mut built = built.into_inner().unwrap();
            let mut ran = ran.lock().unwrap().clone();
            built.sort_by_key(|&(i, _)| i);
            ran.sort_by_key(|&(i, _)| i);
            assert_eq!(built, ran, "{workers} workers");
            assert!(built.iter().map(|&(i, _)| i).eq(0..24));
            assert!(built.iter().all(|&(_, at)| at != caller));
        }
    }

    /// After a body panics, no task that had not started gets a body built:
    /// every body built is a body that ran.
    #[test]
    fn no_body_is_built_after_a_panic() {
        const BOOM: usize = 5;
        for workers in [1, 4] {
            let pool = ThreadedExecutor::new(workers);
            let placed = pool.compile_graph(&independent_graph(32)).unwrap();
            let built: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
            let ran = Arc::new((0..32).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
            let err = pool
                .run_compiled(&placed, |i| {
                    built[i].fetch_add(1, Ordering::SeqCst);
                    let ran = ran.clone();
                    Box::new(move || {
                        ran[i].fetch_add(1, Ordering::SeqCst);
                        assert!(i != BOOM, "boom");
                    })
                })
                .unwrap_err();
            assert!(matches!(
                err,
                ThreadEngineError::TaskPanicked { task: BOOM, .. }
            ));
            let counts = |v: &[AtomicU64]| -> Vec<u64> {
                v.iter().map(|c| c.load(Ordering::SeqCst)).collect()
            };
            assert_eq!(counts(&built), counts(&ran), "{workers} workers");
            if workers == 1 {
                // One worker pops its seeds last-first: 31 down to the boom.
                let expect: Vec<u64> = (0..32).map(|i| u64::from(i >= BOOM)).collect();
                assert_eq!(counts(&built), expect);
            }
        }
    }

    /// A factory that panics fails its task like a body would, and the
    /// same pool runs the next batch.
    #[test]
    fn factory_panic_is_a_task_panic() {
        const BOOM: usize = 2;
        for workers in [1, 4] {
            let pool = ThreadedExecutor::new(workers);
            let placed = pool.compile_graph(&diamond_graph()).unwrap();
            let err = pool
                .run_compiled(&placed, |i| {
                    assert!(i != BOOM, "no body for task {i}");
                    Box::new(|| {})
                })
                .unwrap_err();
            match err {
                ThreadEngineError::TaskPanicked { task, message } => {
                    assert_eq!(task, BOOM);
                    assert_eq!(message, format!("no body for task {BOOM}"));
                }
                other => panic!("expected TaskPanicked, got {other:?}"),
            }
            let report = pool.run_compiled(&placed, |_| Box::new(|| {})).unwrap();
            let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
            assert_eq!(executed, 4, "{workers} workers");
        }
    }

    #[test]
    fn single_worker_still_completes_parallel_graph() {
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<ThreadTask> = (0..20)
            .map(|i| {
                let c = counter.clone();
                ThreadTask::new(format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        ThreadedExecutor::new(1).run(tasks).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    /// A hand-built list keeps its dependencies as written — unsorted and
    /// repeated — and runs them as edges.
    #[test]
    fn duplicate_deps_handled() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let push = |i: usize| {
            let log = log.clone();
            move || log.lock().unwrap().push(i)
        };
        let tasks: TaskList = vec![
            ThreadTask::new("a", push(0)),
            ThreadTask::new("b", push(1)).after([0, 0, 0]),
            ThreadTask::new("c", push(2)).after([1, 0, 1]).in_group("x"),
            ThreadTask::new("d", push(3)).after([2, 0, 2, 1]),
        ]
        .into();
        let listed: Vec<(&str, &[usize], Option<&str>)> =
            tasks.iter().map(|t| (t.label, t.deps, t.group)).collect();
        let expect: [(&str, &[usize], Option<&str>); 4] = [
            ("a", &[], None),
            ("b", &[0, 0, 0], None),
            ("c", &[1, 0, 1], Some("x")),
            ("d", &[2, 0, 2, 1], None),
        ];
        assert_eq!(listed, expect);
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn real_computation_through_pool() {
        // Two vector halves summed in parallel, then combined — the shape
        // of an offloaded vecadd.
        let a: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let partials = Arc::new(Mutex::new(vec![0.0f64; 2]));
        let total = Arc::new(Mutex::new(0.0f64));

        let mut tasks = Vec::new();
        for half in 0..2 {
            let a = a.clone();
            let partials = partials.clone();
            tasks.push(ThreadTask::new(format!("sum{half}"), move || {
                let range = if half == 0 { 0..500 } else { 500..1000 };
                let s: f64 = range.map(|i| a[i]).sum();
                partials.lock().unwrap()[half] = s;
            }));
        }
        {
            let partials = partials.clone();
            let total = total.clone();
            tasks.push(
                ThreadTask::new("combine", move || {
                    *total.lock().unwrap() = partials.lock().unwrap().iter().sum();
                })
                .after([0, 1]),
            );
        }
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(*total.lock().unwrap(), 499500.0);
    }

    #[test]
    fn unknown_group_rejected() {
        let placement = Placement::new().with_group("gpus", 2);
        let tasks = vec![ThreadTask::new("t", || {}).in_group("tpus")];
        let err = ThreadedExecutor::with_placement(placement)
            .run(tasks)
            .unwrap_err();
        assert_eq!(
            err,
            ThreadEngineError::UnknownGroup {
                task: 0,
                group: "tpus".into()
            }
        );
        // Names resolve once each; the error is still the first task
        // whose group the placement lacks.
        let pool = ThreadedExecutor::with_placement(
            Placement::new().with_group("a", 1).with_group("yy", 1),
        );
        let tasks: Vec<ThreadTask> = ["a", "zz", "a", "yy", "zz"]
            .into_iter()
            .map(|g| ThreadTask::new(g, || {}).in_group(g))
            .collect();
        assert_eq!(
            pool.run(tasks).unwrap_err(),
            ThreadEngineError::UnknownGroup {
                task: 1,
                group: "zz".into()
            }
        );
    }

    #[test]
    fn groups_ignored_without_placement() {
        // An executor built with new() runs grouped tasks anywhere.
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        let tasks = vec![ThreadTask::new("t", move || {
            c.fetch_add(1, Ordering::Relaxed);
        })
        .in_group("gpus")];
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn placement_pins_tasks_to_group_workers() {
        // Group "a" = workers 0..2, group "b" = workers 2..4. With both
        // groups continuously loaded, group-b tasks must not run on group-a
        // workers unless a cross-group steal happened — and then the
        // counters must say so.
        let placement = Placement::new().with_group("a", 2).with_group("b", 2);
        let mut tasks = Vec::new();
        for i in 0..40 {
            let g = if i % 2 == 0 { "a" } else { "b" };
            tasks.push(ThreadTask::new(format!("{g}{i}"), || {}).in_group(g));
        }
        let report = ThreadedExecutor::with_placement(placement)
            .with_trace(TraceSink::ring())
            .run(tasks)
            .unwrap();
        assert_eq!(report.workers, 4);
        let cross = report.total_cross_group_steals();
        for (span, label) in labelled_runs(&report) {
            let expect_a = label.starts_with('a');
            let on_a = span.worker < 2;
            if expect_a != on_a {
                assert!(
                    cross > 0,
                    "{label} ran on worker {} without any cross-group steal",
                    span.worker
                );
            }
        }
    }

    #[test]
    fn traced_run_validates_and_matches_report() {
        let tasks: Vec<ThreadTask> = (0..40)
            .map(|i| {
                let mut t = ThreadTask::new(format!("t{i}"), move || {
                    std::hint::black_box((0..200).sum::<u64>());
                });
                if i >= 8 {
                    t = t.after([i - 8]);
                }
                t
            })
            .collect();
        let report = ThreadedExecutor::new(4)
            .with_trace(hetero_trace::TraceSink::ring())
            .run(tasks)
            .unwrap();
        let trace = report.trace.as_ref().expect("trace collected");
        assert_eq!(trace.meta.lanes.len(), 4);
        assert_eq!(trace.meta.tasks.len(), 40);
        assert_eq!(trace.meta.time_unit, hetero_trace::TimeUnit::RealNanos);
        trace.validate().expect("invariants hold");
        let stats = trace.stats();
        assert_eq!(stats.tasks, 40);
        assert_eq!(stats.steals, report.total_steals() as u64);
        assert_eq!(
            stats.cross_group_steals,
            report.total_cross_group_steals() as u64
        );
        // Seed readies live in the prelude, dependency readies on worker
        // lanes; together every task became ready exactly once.
        assert_eq!(stats.readies, 40);

        // Null sink keeps the report trace-free.
        let tasks2: Vec<ThreadTask> = (0..4)
            .map(|i| ThreadTask::new(format!("t{i}"), || {}))
            .collect();
        let plain = ThreadedExecutor::new(2).run(tasks2).unwrap();
        assert!(plain.trace.is_none());
    }

    #[test]
    fn from_graph_mirrors_structure() {
        let mut g = TaskGraph::new();
        let c = g.add_codelet(
            crate::task::Codelet::new("k").with_variant(crate::task::Variant::new("x86")),
        );
        let h = g.register_data("d", 8.0);
        let acc = |mode| crate::task::DataAccess { handle: h, mode };
        g.submit(
            c,
            "w",
            1.0,
            vec![acc(crate::data::AccessMode::Write)],
            Some("gpus"),
        );
        g.submit(c, "r", 1.0, vec![acc(crate::data::AccessMode::Read)], None);

        let log = Arc::new(Mutex::new(Vec::new()));
        let tasks = from_graph(&g, |t| {
            let log = log.clone();
            let label = t.label.to_owned();
            Box::new(move || log.lock().unwrap().push(label))
        });
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks.task(0).group, Some("gpus"));
        assert_eq!(tasks.task(1).deps, [0]);
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(*log.lock().unwrap(), vec!["w".to_string(), "r".to_string()]);
    }

    /// A list built from a graph lists each task's label, dependencies and
    /// group exactly as the graph holds them.
    #[test]
    fn from_graph_lists_what_the_graph_holds() {
        for g in [diamond_graph(), grouped_graph()] {
            let list = from_graph(&g, |_| Box::new(|| {}));
            assert_eq!(list.len(), g.len());
            for (listed, t) in list.iter().zip(g.tasks()) {
                assert_eq!(listed.label, t.label);
                assert!(listed
                    .deps
                    .iter()
                    .eq(g.dependencies(t.id).iter().map(|d| &d.0)));
                assert_eq!(listed.group, t.execution_group);
            }
        }
    }

    /// A chain-heavy diamond graph for the compiled-path tests.
    fn diamond_graph() -> TaskGraph {
        let mut g = TaskGraph::with_capacity(4);
        let c = g.add_codelet(
            crate::task::Codelet::new("k").with_variant(crate::task::Variant::new("x86")),
        );
        let h = g.register_data("d", 8.0);
        let a = g.register_data("a", 8.0);
        let b = g.register_data("b", 8.0);
        let acc = |h, mode| crate::task::DataAccess { handle: h, mode };
        use crate::data::AccessMode::{Read, Write};
        g.submit(c, "src", 1.0, vec![acc(h, Write)], None);
        g.submit(c, "l", 1.0, vec![acc(h, Read), acc(a, Write)], None);
        g.submit(c, "r", 1.0, vec![acc(h, Read), acc(b, Write)], None);
        g.submit(c, "join", 1.0, vec![acc(a, Read), acc(b, Read)], None);
        g
    }

    /// Eight independent tasks, alternately pinned to "cpus" and "gpus",
    /// every third left unpinned.
    fn grouped_graph() -> TaskGraph {
        let mut g = TaskGraph::with_capacity(8);
        let c = g.add_codelet(
            crate::task::Codelet::new("k").with_variant(crate::task::Variant::new("x86")),
        );
        for i in 0..8 {
            let group = if i % 3 == 2 {
                None
            } else if i % 2 == 0 {
                Some("cpus")
            } else {
                Some("gpus")
            };
            g.submit(c, format!("t{i}"), 1.0, vec![], group);
        }
        g
    }

    /// `n` tasks with no dependencies, all seeded at once.
    fn independent_graph(n: usize) -> TaskGraph {
        let mut g = TaskGraph::with_capacity(n);
        let c = g.add_codelet(
            crate::task::Codelet::new("k").with_variant(crate::task::Variant::new("x86")),
        );
        for i in 0..n {
            g.submit(c, format!("t{i}"), 1.0, vec![], None);
        }
        g
    }

    #[test]
    fn compiled_graph_reruns_with_fresh_counters() {
        let g = diamond_graph();
        let pool = ThreadedExecutor::new(3).with_trace(TraceSink::ring());
        let compiled = pool.compile_graph(&g).unwrap();
        assert_eq!(compiled.graph.len(), 4);
        // Two runs off the same compiled graph: each must execute all four
        // tasks in dependency order (src first, join last).
        for _ in 0..2 {
            let log = Arc::new(Mutex::new(Vec::new()));
            let report = pool
                .run_compiled(&compiled, |i| {
                    let log = log.clone();
                    Box::new(move || log.lock().unwrap().push(i))
                })
                .unwrap();
            let order = log.lock().unwrap().clone();
            assert_eq!(order.len(), 4);
            assert_eq!(order[0], 0);
            assert_eq!(order[3], 3);
            let runs = labelled_runs(&report);
            assert_eq!(runs.len(), 4);
            assert!(runs.iter().any(|(_, label)| label == "join"));
            let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
            assert_eq!(executed, 4);
        }
    }

    #[test]
    fn compiled_graph_rejects_mismatched_placement() {
        let g = diamond_graph();
        let compiled = ThreadedExecutor::with_placement(Placement::new().with_group("cpus", 2))
            .compile_graph(&g)
            .unwrap();
        let err = ThreadedExecutor::with_placement(Placement::new().with_group("gpus", 2))
            .run_compiled(&compiled, |_| Box::new(|| {}))
            .unwrap_err();
        assert!(matches!(err, ThreadEngineError::PlacementMismatch { .. }));
    }

    #[test]
    fn task_stats_off_still_counts_everything() {
        let counter = Arc::new(AtomicU64::new(0));
        let tasks: Vec<ThreadTask> = (0..40)
            .map(|i| {
                let c = counter.clone();
                let mut t = ThreadTask::new(format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
                if i >= 8 {
                    t = t.after([i - 8]);
                }
                t
            })
            .collect();
        let report = ThreadedExecutor::new(4)
            .with_task_stats(false)
            .run(tasks)
            .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 40);
        // Bodies are not timed, but aggregate accounting is intact.
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 40);
        assert!(report.wall > StdDuration::ZERO);
        // Nothing reads a task's time, so none is taken: busy is unknown,
        // not zero, and the fractions read 0.
        assert!(report.worker_stats.iter().all(|w| w.busy.is_none()));
        assert_eq!(report.total_busy(), None);
        assert_eq!(report.busy_fraction(), 0.0);

        // Steals are still counted. In a chain alternating between two
        // one-worker groups, a task whose predecessor ran in its own group
        // waits in an injector, and one whose predecessor ran elsewhere
        // followed a claim from a foreign queue: at least every other task
        // is a steal.
        let chain: Vec<ThreadTask> = (0..16)
            .map(|i| {
                ThreadTask::new(format!("c{i}"), || {})
                    .after((i > 0).then(|| i - 1))
                    .in_group(if i % 2 == 0 { "a" } else { "b" })
            })
            .collect();
        let report = ThreadedExecutor::with_placement(
            Placement::new().with_group("a", 1).with_group("b", 1),
        )
        .with_task_stats(false)
        .run(chain)
        .unwrap();
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 16);
        assert!(report.total_steals() >= 8, "{:?}", report.worker_stats);
        assert!(report.wall > StdDuration::ZERO);
        assert!(report.worker_stats.iter().all(|w| w.busy.is_none()));
        let util = report.utilization_by_group();
        assert!(util.iter().all(|&(_, u)| u == 0.0), "{util:?}");
    }

    #[test]
    fn compiled_graph_respects_group_affinity() {
        let mut g = TaskGraph::with_capacity(8);
        let c = g.add_codelet(
            crate::task::Codelet::new("k").with_variant(crate::task::Variant::new("x86")),
        );
        for i in 0..8 {
            let group = if i % 2 == 0 { "cpus" } else { "gpus" };
            g.submit(c, format!("t{i}"), 1.0, vec![], Some(group));
        }
        let pool = ThreadedExecutor::with_placement(
            Placement::new().with_group("cpus", 2).with_group("gpus", 2),
        )
        .with_trace(TraceSink::ring());
        let compiled = pool.compile_graph(&g).unwrap();
        let report = pool.run_compiled(&compiled, |_| Box::new(|| {})).unwrap();
        // cpus tasks run on workers 0-1 and gpus tasks on 2-3 — unless a
        // cross-group steal rebalanced them, which the counters must show.
        let cross = report.total_cross_group_steals();
        for (span, label) in labelled_runs(&report) {
            let on_home = if span.task.is_multiple_of(2) {
                span.worker < 2
            } else {
                span.worker >= 2
            };
            if !on_home {
                assert!(
                    cross > 0,
                    "{label} ran on worker {} without any cross-group steal",
                    span.worker
                );
            }
        }
    }

    /// A thief takes the oldest task while the owner pops the newest, and
    /// on a held lock it returns `None` at once rather than wait.
    #[test]
    fn steal_from_takes_the_oldest_and_never_waits() {
        let deque: Queue = Mutex::new(VecDeque::from([1, 2, 3, 4]));
        assert_eq!(steal_from(&deque), Some(1));
        assert_eq!(lock(&deque).pop_back(), Some(4));
        let held = lock(&deque);
        assert_eq!(steal_from(&deque), None);
        drop(held);
        assert_eq!(steal_from(&deque), Some(2));
        assert_eq!(steal_from(&deque), Some(3));
        assert_eq!(steal_from(&deque), None);
    }
}
