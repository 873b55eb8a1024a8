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
//! compiles the tasks' dependency lists and runs the result once,
//! [`ThreadedExecutor::compile_graph`] + [`ThreadedExecutor::run_compiled`]
//! compile a [`TaskGraph`] once and run it many times. Dependencies must
//! point to earlier task indices (submission order), which guarantees
//! acyclicity by construction — same rule as the graphs built by
//! [`TaskGraph`]. Either way a worker obtains a task's body only once it
//! has claimed the task: `run` takes it out of the task list, and
//! `run_compiled` has its factory build it on that worker. A task body (or
//! a factory) that panics ends the run with
//! [`ThreadEngineError::TaskPanicked`]; it never hangs the pool.
//!
//! The seed single-queue engine this one replaced lives on as a test
//! reference in `tests/common/single_queue.rs`.

use crate::data;
use crate::graph::{CompiledGraph, TaskGraph};
use crate::task::{Task, TaskId};
use hetero_trace::telemetry::{self, AtomicHistogram, Counter, Gauge};
use hetero_trace::{
    EventKind, Histogram, LaneLabel, Provenance, RunTrace, TaskInfo, TimeUnit, TraceClock,
    TraceMeta, TraceSink, WorkerTrace, WorkerTracer,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::time::Duration as StdDuration;

mod placement;
mod report;

pub use placement::{Placement, PlacementGroup};
pub use report::{ExecReport, TaskStats, ThreadEngineError, WorkerStats};

/// One executable task.
pub struct ThreadTask {
    /// Display label, shared with the trace's task table and the report's
    /// per-task stats.
    pub label: Arc<str>,
    /// Indices of tasks that must complete first (all `<` this task's
    /// index).
    pub deps: Vec<usize>,
    /// Placement group this task prefers (a [`Placement`] group name);
    /// `None` runs anywhere. Ignored by executors built without a
    /// placement.
    pub group: Option<String>,
    /// The work itself.
    pub work: Box<dyn FnOnce() + Send>,
}

impl ThreadTask {
    /// A task with no dependencies.
    pub fn new(label: impl Into<Arc<str>>, work: impl FnOnce() + Send + 'static) -> Self {
        ThreadTask {
            label: label.into(),
            deps: Vec::new(),
            group: None,
            work: Box::new(work),
        }
    }

    /// Adds dependencies, builder style.
    pub fn after(mut self, deps: impl IntoIterator<Item = usize>) -> Self {
        self.deps.extend(deps);
        self
    }

    /// Pins the task to a placement group, builder style.
    pub fn in_group(mut self, group: impl Into<String>) -> Self {
        self.group = Some(group.into());
        self
    }
}

/// Builds [`ThreadTask`]s mirroring a [`TaskGraph`]'s dependency structure
/// and execution-group annotations; `work` supplies each task's closure.
///
/// This is the bridge from Cascabel-shaped graphs (whose tasks carry the
/// paper's execution groups) to real execution: submission order becomes
/// index order, graph edges become index dependencies, and each task's
/// `execution_group` becomes its placement group.
pub fn from_graph(
    graph: &TaskGraph,
    mut work: impl FnMut(Task<'_>) -> Box<dyn FnOnce() + Send>,
) -> Vec<ThreadTask> {
    graph
        .tasks()
        .map(|t| ThreadTask {
            label: t.label.into(),
            deps: graph.dependencies(t.id).iter().map(|d| d.0).collect(),
            group: t.execution_group.map(str::to_owned),
            work: work(t),
        })
        .collect()
}

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
/// counters. The labels stay one text column until a batch reports them
/// (task stats on, or a recording trace sink): that batch cuts one
/// `Arc<str>` per task, and every later batch shares those.
#[derive(Debug, Clone)]
pub struct PlacedGraph {
    graph: CompiledGraph,
    labels: data::Labels,
    cut_labels: OnceLock<Vec<Arc<str>>>,
    task_group: Vec<Option<usize>>,
    group_names: Vec<String>,
}

impl PlacedGraph {
    /// Number of tasks in the compiled graph.
    pub(crate) fn len(&self) -> usize {
        self.graph.len()
    }

    /// One shared label per task, cut from the column on first use.
    fn labels(&self) -> &[Arc<str>] {
        self.cut_labels
            .get_or_init(|| (0..self.len()).map(|i| self.labels.get(i).into()).collect())
    }
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

/// How long an idle worker sleeps between steal scans. Wake-ups are
/// event-driven (fork points and cross-group hand-offs notify sleepers), so
/// this is only the safety net bounding the cost of a missed notification
/// and the shutdown latency.
const PARK_TIMEOUT: StdDuration = StdDuration::from_millis(2);

/// A work-stealing, affinity-aware thread pool executing dependency graphs.
#[derive(Debug, Clone)]
pub struct ThreadedExecutor {
    workers: usize,
    placement: Option<Placement>,
    sink: TraceSink,
    telemetry: bool,
    task_stats: bool,
}

/// Always-on instrument handles for the executor, resolved once per run
/// from the process-wide [`telemetry::global`] registry and then used
/// lock-free by the workers.
#[derive(Debug)]
struct ExecutorTelemetry {
    tasks: Arc<Counter>,
    dequeues: Arc<Counter>,
    steals: Arc<Counter>,
    cross_group_steals: Arc<Counter>,
    failed_steals: Arc<Counter>,
    parks: Arc<Counter>,
    task_latency: Arc<AtomicHistogram>,
    /// Peak ready-queue depth any worker observed on its own deque
    /// (worker-local estimate; steals by siblings are reconciled at the
    /// next empty pop, so this is a high-water mark, not a live sample).
    queue_depth: Arc<Gauge>,
    /// Per-batch submit latency: one observation per `run`/`run_compiled`
    /// covering validation + runtime construction up to the first seed.
    submit_latency: Arc<AtomicHistogram>,
}

impl ExecutorTelemetry {
    fn handles() -> Self {
        let t = telemetry::global();
        ExecutorTelemetry {
            tasks: t.counter("executor_tasks_total"),
            dequeues: t.counter("executor_dequeues_total"),
            steals: t.counter("executor_steals_total"),
            cross_group_steals: t.counter("executor_cross_group_steals_total"),
            failed_steals: t.counter("executor_failed_steals_total"),
            parks: t.counter("executor_parks_total"),
            task_latency: t.histogram("executor_task_latency_ns"),
            queue_depth: t.gauge("executor_queue_depth_peak"),
            submit_latency: t.histogram("executor_submit_latency_ns"),
        }
    }
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
            telemetry: true,
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
            telemetry: true,
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

    /// Enables or disables always-on telemetry (default **on**). The
    /// instruments are sharded atomics fed from values the engine measures
    /// anyway (no extra clock reads, no locks on the hot path), so leaving
    /// this on costs a few relaxed atomic ops per task. Off is the baseline
    /// a measurement of that cost needs, and suits embedders that want a
    /// silent pool.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Enables or disables per-task stats collection (default **on**).
    ///
    /// With stats off, [`ExecReport::tasks`] comes back empty and workers
    /// skip the per-task `(index, duration)` record — at a million tasks
    /// per run, that record and its stats row are the dominant fixed cost,
    /// so throughput benchmarks and embedders that only need the aggregate
    /// counters turn it off. A [`PlacedGraph`] run with stats off and no
    /// recording trace sink never cuts its labels into `Arc`s at all.
    /// Worker-level stats, traces and telemetry are unaffected.
    pub fn with_task_stats(mut self, enabled: bool) -> Self {
        self.task_stats = enabled;
        self
    }

    /// Group names under the configured placement (a single `"all"`
    /// pseudo-group when there is none).
    fn group_names(&self) -> Vec<String> {
        match &self.placement {
            None => vec!["all".to_string()],
            Some(p) => p.groups.iter().map(|g| g.name.clone()).collect(),
        }
    }

    /// Resolves each task's optional group name against the placement.
    fn resolve_task_groups<'g>(
        &self,
        groups: impl Iterator<Item = Option<&'g str>>,
    ) -> Result<Vec<Option<usize>>, ThreadEngineError> {
        let Some(p) = &self.placement else {
            return Ok(groups.map(|_| None).collect());
        };
        groups
            .enumerate()
            .map(|(task, group)| match group {
                None => Ok(None),
                Some(name) => match p.groups.iter().position(|g| g.name == name) {
                    Some(index) => Ok(Some(index)),
                    None => Err(ThreadEngineError::UnknownGroup {
                        task,
                        group: name.to_string(),
                    }),
                },
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

    /// Executes all tasks, returning per-task and per-worker stats: the
    /// dependency lists are compiled, then run like any compiled graph.
    pub fn run(&self, tasks: Vec<ThreadTask>) -> Result<ExecReport, ThreadEngineError> {
        let start = self.begin();
        let task_group = self.resolve_task_groups(tasks.iter().map(|t| t.group.as_deref()))?;
        let graph =
            CompiledGraph::from_dependencies(tasks.len(), |i| tasks[i].deps.iter().copied())
                .map_err(|(task, dep)| ThreadEngineError::ForwardDependency { task, dep })?;
        // Each body is claimable exactly once, by whichever worker runs it.
        let (labels, slots): (Vec<Option<Arc<str>>>, Vec<Mutex<Option<_>>>) = tasks
            .into_iter()
            .map(|t| (Some(t.label), Mutex::new(Some(t.work))))
            .unzip();
        let take = |i: usize| lock(&slots[i]).take().expect("task runs once");
        let labels = ReportLabels::Owned(labels);
        self.execute(start, &graph, &task_group, labels, &take)
    }

    /// Compiles a [`TaskGraph`]'s structure for repeated execution with
    /// [`run_compiled`](Self::run_compiled): [`TaskGraph::compile`] plus
    /// the label column and the placement-resolved group of every task.
    pub fn compile_graph(&self, graph: &TaskGraph) -> Result<PlacedGraph, ThreadEngineError> {
        let task_group = self.resolve_task_groups(graph.tasks().map(|t| t.execution_group))?;
        Ok(PlacedGraph {
            graph: graph.compile(),
            labels: graph.labels(),
            cut_labels: OnceLock::new(),
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
        let labels = ReportLabels::Shared(graph);
        self.execute(start, &graph.graph, &graph.task_group, labels, &work)
    }

    /// The one submission path: fresh pending counters over the compiled
    /// edges, the pool run, and the report. The trace's task table and the
    /// per-task stats share `labels`; nothing is copied.
    fn execute(
        &self,
        (clock, mut prelude): (TraceClock, WorkerTracer),
        graph: &CompiledGraph,
        task_group: &[Option<usize>],
        mut labels: ReportLabels<'_>,
        work: BodyFactory<'_>,
    ) -> Result<ExecReport, ThreadEngineError> {
        let group_names = self.group_names();
        // PDL-labeled trace metadata, built only when events are kept: a
        // count bump per label, one category and one name per group.
        let meta = self.sink.enabled().then(|| {
            let category: Arc<str> = "task".into();
            let groups: Vec<Arc<str>> = group_names.iter().map(|g| g.as_str().into()).collect();
            TraceMeta {
                platform: self.placement.as_ref().and_then(|p| p.platform.clone()),
                lanes: lane_labels(self.workers, self.placement.as_ref()),
                tasks: task_group
                    .iter()
                    .enumerate()
                    .map(|(task, group)| TaskInfo {
                        label: labels.of(task).clone(),
                        category: category.clone(),
                        group: group.map(|g| groups[g].clone()),
                    })
                    .collect(),
                time_unit: TimeUnit::RealNanos,
            }
        });
        let pending: Vec<AtomicUsize> = graph
            .pending()
            .iter()
            .map(|&p| AtomicUsize::new(p))
            .collect();
        prelude.record(&clock, phase_end("validate"));
        let submit_ns = clock.now();
        let out = if graph.is_empty() {
            // Nothing to run: no pool, and every lane of the trace is empty.
            RunOutput {
                records: Vec::new(),
                worker_stats: (0..self.workers)
                    .map(|worker| WorkerStats {
                        worker,
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
            self.run_pool(clock, prelude, rt, submit_ns)?
        };

        // Per-task stats are assembled outside the hot path, straight from
        // what each worker recorded: (task index, nanoseconds).
        let mut tasks = Vec::with_capacity(out.records.iter().map(Vec::len).sum());
        for (worker, records) in out.records.into_iter().enumerate() {
            tasks.extend(records.into_iter().map(|(task, ns)| TaskStats {
                label: labels.for_stats(task as usize),
                worker,
                duration: StdDuration::from_nanos(ns),
            }));
        }
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
            tasks,
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
        submit_ns: u64,
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
        let seeded: Vec<usize> = seeds.iter().map(VecDeque::len).collect();
        let deques: Vec<Queue> = seeds.into_iter().map(Mutex::new).collect();

        let completed = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let panicked: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let park = Mutex::new(());
        let wake = Condvar::new();
        let tel = self.telemetry.then(ExecutorTelemetry::handles);
        if let Some(t) = &tel {
            t.submit_latency.observe(submit_ns);
        }

        let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(self.workers);
        let mut records = Vec::with_capacity(self.workers);
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
                    tel: tel.as_ref(),
                    collect: self.task_stats,
                    seeded: seeded[me],
                };
                handles.push(scope.spawn(move || ctx.run()));
            }
            for h in handles {
                // Task panics are caught inside the worker; this fires
                // only for a bug in the engine itself.
                let (ws, recs, wt) = h.join().expect("worker panicked");
                worker_stats.push(ws);
                records.push(recs);
                worker_traces.extend(wt);
            }
        });
        if let Some((task, message)) = lock(&panicked).take() {
            return Err(ThreadEngineError::TaskPanicked { task, message });
        }
        prelude.record(&clock, phase_end("execute"));
        Ok(RunOutput {
            records,
            worker_stats,
            worker_traces,
            prelude,
            wall: StdDuration::from_nanos(clock.now()),
        })
    }
}

/// Where a run's labels live, which decides how its report gets them. Only
/// a report that carries labels asks for one.
enum ReportLabels<'a> {
    /// `run` owns its tasks: each label moves into its task's stats row.
    Owned(Vec<Option<Arc<str>>>),
    /// `run_compiled` borrows the placed graph's, cut on first use: a count
    /// bump per row.
    Shared(&'a PlacedGraph),
}

impl ReportLabels<'_> {
    fn of(&self, task: usize) -> &Arc<str> {
        match self {
            ReportLabels::Owned(labels) => labels[task].as_ref().expect("stats rows come last"),
            ReportLabels::Shared(graph) => &graph.labels()[task],
        }
    }

    /// The label for the one stats row `task` gets.
    fn for_stats(&mut self, task: usize) -> Arc<str> {
        match self {
            ReportLabels::Owned(labels) => labels[task].take().expect("a task completes once"),
            ReportLabels::Shared(graph) => graph.labels()[task].clone(),
        }
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
    /// Each worker's `(task, nanoseconds)` rows, in worker order; empty
    /// rows when task stats are off.
    records: Vec<Vec<(u32, u64)>>,
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
    tel: Option<&'a ExecutorTelemetry>,
    /// Whether to record per-task `(index, duration)` rows for
    /// `ExecReport::tasks` (off for large batched runs).
    collect: bool,
    /// Tasks seeded into this worker's deque before it started: the
    /// initial value of the local queue-depth estimate.
    seeded: usize,
}

/// Worker-local accumulation that the hot loop writes without touching any
/// shared atomics; flushed once at join time.
struct HotState {
    /// `(task, nanoseconds)` rows, only filled when stats collection is on.
    records: Vec<(u32, u64)>,
    /// Task latencies pre-aggregated locally when stats collection is off
    /// (otherwise derived from `records` at flush).
    latencies: Histogram,
    /// Estimate of this worker's own deque depth: seeded count, +1 per
    /// local push, -1 per local pop, reset on steal/inject (the deque was
    /// observed empty). Never reads the deque, so it costs nothing.
    depth: usize,
    depth_peak: usize,
    /// Same-group dependents readied by one completion beyond its
    /// continuation, pushed to the deque under one lock.
    surplus: Vec<usize>,
}

/// Where a claimed task came from, for the steal counters and the trace's
/// steal-provenance events.
enum Source {
    Local,
    /// Popped from a group injector (affinity hand-off or seed surplus).
    Inject {
        cross: bool,
    },
    /// Stolen from another worker's deque.
    Steal {
        victim: usize,
        cross: bool,
    },
}

impl Source {
    fn provenance(&self) -> Provenance {
        match *self {
            Source::Local => Provenance::Local,
            Source::Inject { cross } => Provenance::Inject { cross_group: cross },
            Source::Steal { victim, cross } => Provenance::Steal {
                victim: victim as u32,
                cross_group: cross,
            },
        }
    }
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

    fn run(mut self) -> (WorkerStats, Vec<(u32, u64)>, Option<WorkerTrace>) {
        let mut out = WorkerStats {
            worker: self.me,
            group: self.my_group,
            ..WorkerStats::default()
        };
        let mut hot = HotState {
            records: Vec::new(),
            latencies: Histogram::new(),
            depth: self.seeded,
            depth_peak: self.seeded,
            surplus: Vec::new(),
        };
        let mut parks = 0u64;
        let mut tracer = std::mem::replace(&mut self.tracer, WorkerTracer::Null);
        while !self.finished() {
            match self.find_task() {
                Some((task, source)) => {
                    match source {
                        Source::Local => hot.depth = hot.depth.saturating_sub(1),
                        Source::Inject { cross } | Source::Steal { cross, .. } => {
                            // A steal/inject means our own deque was dry.
                            hot.depth = 0;
                            out.steals += 1;
                            if cross {
                                out.cross_group_steals += 1;
                            }
                        }
                    }
                    // Continuation chaining: when a completed task readies
                    // exactly one same-group dependent, run it directly —
                    // no deque round-trip, no wake.
                    let mut provenance = source.provenance();
                    let mut current = Some(task);
                    while let Some(task) = current {
                        current = self.execute(task, provenance, &mut out, &mut hot, &mut tracer);
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
                    parks += 1;
                    let _ = self
                        .wake
                        .wait_timeout(guard, PARK_TIMEOUT)
                        .unwrap_or_else(PoisonError::into_inner);
                    tracer.record(&self.clock, EventKind::Unpark);
                }
            }
        }
        // Telemetry flush: one batched add per counter per worker, and
        // the per-task latencies (already recorded for the worker's own
        // stats) pre-aggregated locally and merged with one atomic add
        // per bucket — the hot loop does **no** telemetry work at all,
        // and the flush itself cannot contend across workers.
        if let Some(t) = self.tel {
            t.tasks.add(out.executed as u64);
            t.dequeues.add(out.executed as u64);
            t.steals.add(out.steals as u64);
            t.cross_group_steals.add(out.cross_group_steals as u64);
            t.failed_steals.add(out.failed_steals as u64);
            t.parks.add(parks);
            if self.collect {
                let mut latencies = Histogram::new();
                for &(_, ns) in &hot.records {
                    latencies.observe(ns);
                }
                t.task_latency.merge(&latencies);
            } else {
                t.task_latency.merge(&hot.latencies);
            }
            t.queue_depth.raise(hot.depth_peak as u64);
        }
        let trace = tracer.finish(self.me);
        (out, hot.records, trace)
    }

    /// Claims one ready task: own deque, then own group's injector and
    /// siblings, then — only when the whole group is dry — other groups.
    fn find_task(&self) -> Option<(usize, Source)> {
        if let Some(i) = lock(&self.deques[self.me]).pop_back() {
            return Some((i, Source::Local));
        }
        if let Some(i) = lock(&self.injectors[self.my_group]).pop_front() {
            return Some((i, Source::Inject { cross: false }));
        }
        for &w in &self.group_workers[self.my_group] {
            if w == self.me {
                continue;
            }
            if let Some(i) = steal_from(&self.deques[w]) {
                return Some((
                    i,
                    Source::Steal {
                        victim: w,
                        cross: false,
                    },
                ));
            }
        }
        // Group dry: scan foreign injectors, then foreign workers.
        for (g, injector) in self.injectors.iter().enumerate() {
            if g == self.my_group {
                continue;
            }
            if let Some(i) = lock(injector).pop_front() {
                return Some((i, Source::Inject { cross: true }));
            }
        }
        for (w, deque) in self.deques.iter().enumerate() {
            if self.worker_group[w] == self.my_group {
                continue;
            }
            if let Some(i) = steal_from(deque) {
                return Some((
                    i,
                    Source::Steal {
                        victim: w,
                        cross: true,
                    },
                ));
            }
        }
        None
    }

    /// Builds and runs the task, records stats worker-locally, publishes
    /// newly-ready dependents. Returns, when one of the ready dependents
    /// belongs to this worker's group, that dependent as a continuation to
    /// run directly — skipping the deque entirely. A body (or its factory)
    /// that panics cancels the run instead: nothing is published, nothing
    /// continues.
    fn execute(
        &self,
        i: usize,
        provenance: Provenance,
        out: &mut WorkerStats,
        hot: &mut HotState,
        tracer: &mut WorkerTracer,
    ) -> Option<usize> {
        // Both the stat duration and the trace span come from the run's
        // shared clock, so per-worker busy time and the exported spans are
        // the same numbers. They time the body alone, not its building.
        // Tracing reuses the two readings: the claim is stamped with the
        // start it led straight into.
        let mut t0 = 0;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let job = (self.rt.work)(i);
            t0 = self.clock.now();
            job();
        }));
        if let Err(payload) = ran {
            lock(self.panicked).get_or_insert_with(|| (i, panic_message(payload)));
            self.cancelled.store(true, Ordering::SeqCst);
            self.wake.notify_all();
            return None;
        }
        let t1 = self.clock.now();
        let task = i as u32;
        tracer.record_at(t0, EventKind::TaskDequeued { task, provenance });
        tracer.record_at(t0, EventKind::TaskStart { task });
        tracer.record_at(t1, EventKind::TaskEnd { task });
        let ns = t1.saturating_sub(t0);
        out.busy += StdDuration::from_nanos(ns);
        out.executed += 1;
        if self.collect {
            hot.records.push((task, ns));
        } else if self.tel.is_some() {
            hot.latencies.observe(ns);
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
                    // ready ≤ dequeue. A later dependent that waited on this
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
                            hot.surplus.push(dep);
                        }
                    }
                }
            }
        }
        // One deque lock per completion, not one per dependent. It is not
        // held across the loop above: a thief that finds it held moves on.
        if !hot.surplus.is_empty() {
            hot.depth += hot.surplus.len();
            hot.depth_peak = hot.depth_peak.max(hot.depth);
            lock(&self.deques[self.me]).extend(hot.surplus.drain(..));
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
        assert_eq!(report.tasks.len(), 50);
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
    }

    #[test]
    fn self_dependency_rejected() {
        let tasks = vec![ThreadTask::new("a", || {}).after([0])];
        assert!(ThreadedExecutor::new(1).run(tasks).is_err());
    }

    #[test]
    fn empty_graph() {
        let report = ThreadedExecutor::new(2).run(Vec::new()).unwrap();
        assert!(report.tasks.is_empty());
        assert_eq!(report.worker_stats.len(), 2);
        assert!(report.trace.is_none(), "the null sink collects nothing");
    }

    /// A traced run of nothing still returns its trace: the lanes and the
    /// closed `validate` phase, through both entry points.
    #[test]
    fn empty_graph_traced_returns_a_valid_trace() {
        let pool = ThreadedExecutor::new(2).with_trace(TraceSink::ring());
        let placed = pool.compile_graph(&TaskGraph::new()).unwrap();
        assert_eq!(placed.len(), 0);
        let reports = [
            pool.run(Vec::new()).unwrap(),
            pool.run_compiled(&placed, |_| unreachable!("no task to build"))
                .unwrap(),
        ];
        for report in reports {
            let trace = report.trace.expect("a ring sink collects a trace");
            assert_eq!(trace.validate().expect("invariants hold").tasks, 0);
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

    /// The task table and the per-task stats hold the caller's labels, not
    /// copies, and a task table holds one category.
    #[test]
    fn labels_are_shared_not_copied() {
        let tasks: Vec<ThreadTask> = (0..12)
            .map(|i| ThreadTask::new(format!("t{i}"), || {}).after((i > 0).then(|| i - 1)))
            .collect();
        let given: Vec<Arc<str>> = tasks.iter().map(|t| t.label.clone()).collect();
        let report = ThreadedExecutor::new(2)
            .with_trace(TraceSink::ring())
            .run(tasks)
            .unwrap();
        let trace = report.trace.as_ref().expect("trace collected");
        assert_eq!(report.tasks.len(), 12);
        for row in &report.tasks {
            let task: usize = row.label[1..].parse().unwrap();
            assert!(Arc::ptr_eq(&row.label, &given[task]));
            assert!(Arc::ptr_eq(&row.label, &trace.meta.tasks[task].label));
        }
        let category = &trace.meta.tasks[0].category;
        assert!(trace
            .meta
            .tasks
            .iter()
            .all(|t| Arc::ptr_eq(&t.category, category)));

        // Batches of one placed graph share its labels with every report.
        let pool = ThreadedExecutor::new(2);
        let placed = pool.compile_graph(&diamond_graph()).unwrap();
        let by_label = |report: ExecReport| {
            let mut labels: Vec<Arc<str>> = report.tasks.into_iter().map(|t| t.label).collect();
            labels.sort();
            labels
        };
        let first = by_label(pool.run_compiled(&placed, |_| Box::new(|| {})).unwrap());
        let second = by_label(pool.run_compiled(&placed, |_| Box::new(|| {})).unwrap());
        assert_eq!(first.len(), 4);
        assert!(first.iter().zip(&second).all(|(a, b)| Arc::ptr_eq(a, b)));

        // A batch that reports no label cuts none. The stats-on batch and
        // the traced batch after it share the labels the first one cut.
        let fresh = pool.compile_graph(&diamond_graph()).unwrap();
        let quiet = pool
            .clone()
            .with_task_stats(false)
            .run_compiled(&fresh, |_| Box::new(|| {}))
            .unwrap();
        assert!(quiet.tasks.is_empty() && quiet.trace.is_none());
        assert!(fresh.cut_labels.get().is_none(), "no label was read");
        let stats = pool.run_compiled(&fresh, |_| Box::new(|| {})).unwrap();
        let traced = pool
            .clone()
            .with_trace(TraceSink::ring())
            .run_compiled(&fresh, |_| Box::new(|| {}))
            .unwrap();
        let cut = fresh.cut_labels.get().expect("the stats batch cut them");
        assert_eq!(cut.len(), 4);
        for row in stats.tasks.iter().chain(&traced.tasks) {
            assert!(cut.iter().any(|label| Arc::ptr_eq(label, &row.label)));
        }
        let table = &traced.trace.as_ref().expect("trace collected").meta.tasks;
        assert!(cut.iter().zip(table).all(|(a, t)| Arc::ptr_eq(a, &t.label)));
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
            assert_eq!(report.tasks.len(), 4, "{workers} workers");
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

    #[test]
    fn duplicate_deps_handled() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let push = |i: usize| {
            let log = log.clone();
            move || log.lock().unwrap().push(i)
        };
        let tasks = vec![
            ThreadTask::new("a", push(0)),
            ThreadTask::new("b", push(1)).after([0, 0, 0]),
        ];
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(*log.lock().unwrap(), vec![0, 1]);
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
            .run(tasks)
            .unwrap();
        assert_eq!(report.workers, 4);
        let cross = report.total_cross_group_steals();
        for t in &report.tasks {
            let expect_a = t.label.starts_with('a');
            let on_a = t.worker < 2;
            if expect_a != on_a {
                assert!(
                    cross > 0,
                    "{} ran on worker {} without any cross-group steal",
                    t.label,
                    t.worker
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
        let stats = trace.validate().expect("invariants hold");
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
        assert_eq!(tasks[0].group.as_deref(), Some("gpus"));
        assert_eq!(tasks[1].deps, vec![0]);
        ThreadedExecutor::new(2).run(tasks).unwrap();
        assert_eq!(*log.lock().unwrap(), vec!["w".to_string(), "r".to_string()]);
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
        let pool = ThreadedExecutor::new(3);
        let compiled = pool.compile_graph(&g).unwrap();
        assert_eq!(compiled.len(), 4);
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
            assert_eq!(report.tasks.len(), 4);
            assert!(report.tasks.iter().any(|t| &*t.label == "join"));
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
        // Per-task rows are skipped, but aggregate accounting is intact.
        assert!(report.tasks.is_empty());
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 40);
        assert!(report.wall > StdDuration::ZERO);
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
        );
        let compiled = pool.compile_graph(&g).unwrap();
        let report = pool.run_compiled(&compiled, |_| Box::new(|| {})).unwrap();
        // cpus tasks run on workers 0-1 and gpus tasks on 2-3 — unless a
        // cross-group steal rebalanced them, which the counters must show.
        let cross = report.total_cross_group_steals();
        for t in &report.tasks {
            let idx: usize = t.label[1..].parse().unwrap();
            let on_home = if idx.is_multiple_of(2) {
                t.worker < 2
            } else {
                t.worker >= 2
            };
            if !on_home {
                assert!(
                    cross > 0,
                    "{} ran on worker {} without any cross-group steal",
                    t.label,
                    t.worker
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
