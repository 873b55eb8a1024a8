//! What a pool run reports: per-worker statistics, the trace when one was
//! kept, and the errors a run can end with.

use hetero_trace::RunTrace;
use std::time::Duration as StdDuration;

/// Per-worker observability counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Placement-group index the worker belongs to.
    pub group: usize,
    /// Tasks this worker executed.
    pub executed: usize,
    /// Tasks obtained from anywhere other than the worker's own deque:
    /// group injectors, same-group siblings or cross-group sources.
    pub steals: usize,
    /// Steals from *outside* the worker's group (subset of `steals`);
    /// nonzero means some group ran dry and borrowed foreign work.
    pub cross_group_steals: usize,
    /// Full scans (own deque + injectors + every sibling) that found
    /// nothing and sent the worker to sleep.
    pub failed_steals: usize,
    /// Total wall-clock time spent inside task closures: the exact sum of
    /// the worker's task durations in a timed run (bodies timed, the
    /// default, or a recording trace sink), `None` in an untimed one,
    /// which reads no clock per task.
    pub busy: Option<StdDuration>,
}

/// Result of a pool run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// End-to-end wall time.
    pub wall: StdDuration,
    /// Number of worker threads used.
    pub workers: usize,
    /// Per-worker counters (always `workers` entries).
    pub worker_stats: Vec<WorkerStats>,
    /// Placement-group names, indexed by [`WorkerStats::group`]. A single
    /// `"all"` pseudo-group when the executor ran without a placement.
    pub groups: Vec<String>,
    /// The drained trace, when the executor was built with a recording
    /// [`hetero_trace::TraceSink`]: one run per executed task, labelled by
    /// its task table ([`RunTrace::task_spans`]). Export with
    /// [`hetero_trace::chrome::export`] or [`hetero_trace::summary::export`].
    pub trace: Option<RunTrace>,
}

impl ExecReport {
    /// Total successful steals across workers.
    pub fn total_steals(&self) -> usize {
        self.worker_stats.iter().map(|w| w.steals).sum()
    }

    /// Total cross-group steals across workers.
    pub fn total_cross_group_steals(&self) -> usize {
        self.worker_stats.iter().map(|w| w.cross_group_steals).sum()
    }

    /// Total failed steal scans across workers.
    pub fn total_failed_steals(&self) -> usize {
        self.worker_stats.iter().map(|w| w.failed_steals).sum()
    }

    /// Total busy time across workers, `None` for an untimed run (see
    /// [`WorkerStats::busy`]).
    pub fn total_busy(&self) -> Option<StdDuration> {
        self.worker_stats.iter().map(|w| w.busy).sum()
    }

    /// Fraction of the pool's total capacity (`wall × workers`) spent
    /// inside task closures. All durations share one monotonic clock
    /// origin, so this is exact, not a cross-origin estimate.
    ///
    /// An untimed run reads 0.0, as an idle one does; [`total_busy`]
    /// tells the two apart (`None` against `Some(ZERO)`).
    ///
    /// [`total_busy`]: ExecReport::total_busy
    pub fn busy_fraction(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers.max(1) as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            let busy = self.total_busy().unwrap_or_default();
            (busy.as_secs_f64() / capacity).min(1.0)
        }
    }

    /// Busy time per placement group, indexed like [`ExecReport::groups`];
    /// zero throughout for an untimed run.
    pub(crate) fn busy_by_group(&self) -> Vec<StdDuration> {
        let mut busy = vec![StdDuration::ZERO; self.groups.len()];
        for w in &self.worker_stats {
            if let Some(slot) = busy.get_mut(w.group) {
                *slot += w.busy.unwrap_or_default();
            }
        }
        busy
    }

    /// Per-group utilization: `(group name, busy / (wall × group
    /// workers))` — the thread-engine equivalent of the simulated engine's
    /// per-PU utilization, keyed by PDL logic group.
    ///
    /// Every group reads 0.0 in an untimed run, as an idle group does;
    /// [`total_busy`](ExecReport::total_busy) tells the two apart.
    pub fn utilization_by_group(&self) -> Vec<(String, f64)> {
        let wall = self.wall.as_secs_f64();
        let mut workers_per_group = vec![0usize; self.groups.len()];
        for w in &self.worker_stats {
            if let Some(slot) = workers_per_group.get_mut(w.group) {
                *slot += 1;
            }
        }
        self.groups
            .iter()
            .zip(self.busy_by_group())
            .zip(workers_per_group)
            .map(|((name, busy), workers)| {
                let capacity = wall * workers.max(1) as f64;
                let u = if capacity <= 0.0 {
                    0.0
                } else {
                    (busy.as_secs_f64() / capacity).min(1.0)
                };
                (name.clone(), u)
            })
            .collect()
    }
}

/// Errors the threaded executor can report: a graph it refuses to run, or a
/// task body that panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadEngineError {
    /// A dependency index points at the task itself or a later task.
    ForwardDependency {
        /// The offending task index.
        task: usize,
        /// The bad dependency index.
        dep: usize,
    },
    /// A task names a placement group the executor's placement lacks.
    UnknownGroup {
        /// The offending task index.
        task: usize,
        /// The unknown group name.
        group: String,
    },
    /// A group set-expression failed to resolve against the platform.
    BadGroupExpr {
        /// The expression.
        expr: String,
        /// Resolver message.
        message: String,
    },
    /// A compiled graph was run on an executor whose placement differs
    /// from the one it was compiled against.
    PlacementMismatch {
        /// Group names the graph was compiled with.
        compiled: Vec<String>,
        /// Group names the executing pool defines.
        executor: Vec<String>,
    },
    /// A task body panicked. The run was cancelled: tasks that had not
    /// started by then never ran, and the executor is ready for its next
    /// call.
    TaskPanicked {
        /// Index of the first task that panicked.
        task: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for ThreadEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadEngineError::ForwardDependency { task, dep } => write!(
                f,
                "task {task} depends on {dep}, but dependencies must reference earlier tasks"
            ),
            ThreadEngineError::UnknownGroup { task, group } => write!(
                f,
                "task {task} is pinned to group {group:?}, which the placement does not define"
            ),
            ThreadEngineError::BadGroupExpr { expr, message } => {
                write!(f, "cannot resolve group expression {expr:?}: {message}")
            }
            ThreadEngineError::PlacementMismatch { compiled, executor } => write!(
                f,
                "graph compiled for placement {compiled:?} cannot run on a pool with placement {executor:?}"
            ),
            ThreadEngineError::TaskPanicked { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ThreadEngineError {}
