//! Task graphs with implicit data-driven dependencies.
//!
//! Tasks are submitted in program order; the graph derives dependencies
//! from their data accesses exactly like `StarPU`'s sequential-consistency
//! mode: a task depends on the last writer of everything it reads (RAW) and
//! on all previous readers/writers of everything it writes (WAR/WAW).
//! "Explicit task outlining with parameter access-specifiers helps compilers
//! and runtime-systems to derive inter-task data-dependencies" (§IV-A).
//!
//! # Layout
//!
//! A graph is columns, not rows: one fixed-size `TaskRow` per task
//! (codelet, interned group, priority, flops) over three buffers every task
//! shares — a [`Labels`] column, a `Vec<DataAccess>` and a `Vec<TaskId>`
//! of sorted, deduplicated dependencies. A row records only where its
//! slices **end**; it starts where the previous row ends. Nothing is
//! allocated per task, so building a graph costs a few appends and dropping
//! one frees a handful of blocks. [`Task`] is the borrowed view of one row.

use crate::data::{DataRegistry, HandleId};
use crate::task::{Codelet, DataAccess, Task, TaskId};
use hetero_trace::Labels;
use std::fmt;

/// One task of the graph. The two `*_end` fields index the graph's shared
/// buffers; its label is the column's entry of the same index.
#[derive(Debug, Clone, Copy)]
struct TaskRow {
    flops: f64,
    codelet: u32,
    /// 1 + the index into `groups`; 0 = unrestricted.
    group: u32,
    priority: i32,
    accesses_end: u32,
    dependencies_end: u32,
}

/// `len` as a column offset. Offsets are `u32`: a graph is limited to 2³²
/// tasks, label bytes, accesses and edges.
fn offset(len: usize, column: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("task graph exceeds u32 offsets: {len} {column}"))
}

/// A complete submitted program: codelets, data and tasks with edges.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    /// Codelet table.
    pub codelets: Vec<Codelet>,
    /// Data registry (sizes + coherence state used at simulation time).
    pub data: DataRegistry,
    /// Tasks in submission order.
    rows: Vec<TaskRow>,
    /// Every label, in submission order.
    labels: Labels,
    /// Every task's accesses in parameter order, back to back.
    accesses: Vec<DataAccess>,
    /// Every task's dependencies — the tasks that must finish before it
    /// starts, sorted and free of duplicates — back to back. The reverse
    /// edges are derived on demand by [`compile`](Self::compile).
    dependencies: Vec<TaskId>,
    /// Execution-group names in order of first use.
    groups: Vec<String>,
    /// Submission-time tracking, indexed by `HandleId.0` like the registry
    /// itself: 1 + the last writer of each handle, 0 = never written.
    last_writer: Vec<u32>,
    /// 1 + the index in `readers` of the latest reader since the last
    /// write, 0 = none.
    reader_head: Vec<u32>,
    /// Reader lists threaded through one pool: `(task, next)` with `next`
    /// encoded like `reader_head`. A write unlinks its handle's list; the
    /// pool never outgrows the access column.
    readers: Vec<(u32, u32)>,
    /// The dependencies of the task being submitted, before sorting.
    scratch: Vec<TaskId>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph pre-sized for `tasks` submissions: the task rows are
    /// allocated once up front, so million-task submission loops never
    /// re-grow them.
    pub fn with_capacity(tasks: usize) -> Self {
        let mut g = Self::default();
        g.reserve(tasks);
        g
    }

    /// Makes room for `additional` more submissions (what
    /// [`with_capacity`](Self::with_capacity) does for a new graph), for
    /// builders that emit into a graph they did not create.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// Registers a codelet, returning its index for task submission.
    pub fn add_codelet(&mut self, codelet: Codelet) -> usize {
        self.codelets.push(codelet);
        self.codelets.len() - 1
    }

    /// Registers a datum.
    pub fn register_data(&mut self, label: impl fmt::Display, size_bytes: f64) -> HandleId {
        self.data.register(label, size_bytes)
    }

    /// Submits a task; dependencies are derived from `accesses` against all
    /// previously submitted tasks.
    pub fn submit(
        &mut self,
        codelet: usize,
        label: impl fmt::Display,
        flops: f64,
        accesses: impl IntoIterator<Item = DataAccess>,
        execution_group: Option<&str>,
    ) -> TaskId {
        self.submit_prioritized(codelet, label, flops, accesses, execution_group, 0)
    }

    /// [`submit`](Self::submit) with an explicit scheduling priority
    /// (higher = dispatched earlier by the online engine).
    pub fn submit_prioritized(
        &mut self,
        codelet: usize,
        label: impl fmt::Display,
        flops: f64,
        accesses: impl IntoIterator<Item = DataAccess>,
        execution_group: Option<&str>,
        priority: i32,
    ) -> TaskId {
        assert!(codelet < self.codelets.len(), "unknown codelet index");
        let id = self.rows.len();
        let submitted = offset(id + 1, "tasks");
        // A submission that panicked half-way left a tail behind: a row
        // starts where the previous one ends.
        let (first_access, first_dependency) = self.starts(id);
        self.labels.truncate(id);
        self.accesses.truncate(first_access);
        self.dependencies.truncate(first_dependency);
        // Handles registered since the last submission start untracked.
        let handles = self.data.len();
        self.last_writer.resize(handles, 0);
        self.reader_head.resize(handles, 0);

        self.labels.push(label);
        self.accesses.extend(accesses);

        self.scratch.clear();
        for a in &self.accesses[first_access..] {
            let h = a.handle.0;
            assert!(
                h < handles,
                "unknown data handle {h} (this graph registered {handles})"
            );
            // RAW, WAW: reads and writes alike depend on the last writer.
            if let Some(writer) = self.last_writer[h].checked_sub(1) {
                self.scratch.push(TaskId(writer as usize));
            }
            if a.mode.writes() {
                // WAR: a write also depends on the readers since.
                let mut at = self.reader_head[h];
                while let Some(entry) = at.checked_sub(1) {
                    let (reader, next) = self.readers[entry as usize];
                    self.scratch.push(TaskId(reader as usize));
                    at = next;
                }
            }
        }
        // Tracking only ever names earlier tasks, so no edge is a self-edge.
        self.scratch.sort_unstable();
        self.scratch.dedup();
        self.dependencies.extend_from_slice(&self.scratch);

        let group = execution_group.map_or(0, |name| {
            let index = self.groups.iter().position(|g| g == name);
            let index = index.unwrap_or_else(|| {
                self.groups.push(name.to_owned());
                self.groups.len() - 1
            });
            offset(index + 1, "execution groups")
        });
        let row = TaskRow {
            flops,
            codelet: offset(codelet, "codelets"),
            group,
            priority,
            accesses_end: offset(self.accesses.len(), "accesses"),
            dependencies_end: offset(self.dependencies.len(), "edges"),
        };

        // Every check has passed: update submission-time tracking.
        for a in &self.accesses[first_access..] {
            let h = a.handle.0;
            if a.mode.writes() {
                self.last_writer[h] = submitted;
                self.reader_head[h] = 0;
            } else if a.mode.reads() {
                self.readers.push((submitted - 1, self.reader_head[h]));
                // One entry per read access at most, and those fit.
                self.reader_head[h] = offset(self.readers.len(), "reads");
            }
        }
        self.rows.push(row);
        TaskId(id)
    }

    /// Where row `t` starts in the access and dependency buffers: the ends
    /// of the row before it. `starts(len())` is where the buffers'
    /// committed part ends.
    fn starts(&self, t: usize) -> (usize, usize) {
        t.checked_sub(1).map_or((0, 0), |previous| {
            let row = &self.rows[previous];
            (row.accesses_end as usize, row.dependencies_end as usize)
        })
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The task `t`.
    pub fn task(&self, t: TaskId) -> Task<'_> {
        let row = &self.rows[t.0];
        let (first_access, _) = self.starts(t.0);
        Task {
            id: t,
            codelet: row.codelet as usize,
            label: self.labels.get(t.0),
            flops: row.flops,
            accesses: &self.accesses[first_access..row.accesses_end as usize],
            execution_group: self.group_index(t).map(|g| self.groups[g].as_str()),
            priority: row.priority,
        }
    }

    /// The tasks in submission order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = Task<'_>> + Clone {
        (0..self.rows.len()).map(|t| self.task(TaskId(t)))
    }

    /// The task-label column.
    pub(crate) fn labels(&self) -> &Labels {
        &self.labels
    }

    /// Execution-group names in order of first use.
    pub(crate) fn groups(&self) -> &[String] {
        &self.groups
    }

    /// The index in [`groups`](Self::groups) of the group `t` names.
    pub(crate) fn group_index(&self, t: TaskId) -> Option<usize> {
        (self.rows[t.0].group as usize).checked_sub(1)
    }

    /// The accesses of every task, in submission then parameter order.
    pub(crate) fn accesses(&self) -> &[DataAccess] {
        &self.accesses[..self.starts(self.rows.len()).0]
    }

    /// The dependencies of every task, in submission order, back to back.
    pub(crate) fn all_dependencies(&self) -> &[TaskId] {
        &self.dependencies[..self.starts(self.rows.len()).1]
    }

    /// Tasks `t` must wait for.
    pub fn dependencies(&self, t: TaskId) -> &[TaskId] {
        let (_, first) = self.starts(t.0);
        &self.dependencies[first..self.rows[t.0].dependencies_end as usize]
    }

    /// The graph's edges in the form every engine consumes: dependents,
    /// pending counts and the ready seed, derived from
    /// [`dependencies`](Self::dependencies) in one linear pass.
    pub fn compile(&self) -> CompiledGraph {
        CompiledGraph::from_dependencies(self.len(), |t| {
            self.dependencies(TaskId(t)).iter().map(|d| d.0)
        })
        .expect("submit records only edges to earlier tasks")
    }

    /// Tasks with no dependencies (sources).
    pub fn sources(&self) -> Vec<TaskId> {
        (0..self.len())
            .map(TaskId)
            .filter(|&t| self.dependencies(t).is_empty())
            .collect()
    }

    /// Total FLOPs over all tasks.
    pub fn total_flops(&self) -> f64 {
        self.rows.iter().map(|row| row.flops).sum()
    }

    /// Critical-path FLOPs: the heaviest dependency chain. A lower bound on
    /// any schedule's compute span given infinite parallelism.
    pub fn critical_path_flops(&self) -> f64 {
        let mut best = vec![0.0f64; self.len()];
        for t in 0..self.len() {
            let deps_max = self
                .dependencies(TaskId(t))
                .iter()
                .map(|d| best[d.0])
                .fold(0.0f64, f64::max);
            best[t] = deps_max + self.rows[t].flops;
        }
        best.into_iter().fold(0.0, f64::max)
    }
}

/// The reverse adjacency of a dependency graph, compiled once: who waits on
/// each task (CSR), how many tasks each one waits for, and which tasks can
/// start at once. It knows nothing about placement, labels or costs, so the
/// thread engine and both virtual-time engines run on the same value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledGraph {
    /// Distinct dependencies per task.
    pending: Vec<usize>,
    /// `targets[offsets[t]..offsets[t + 1]]` are the dependents of `t`.
    offsets: Vec<usize>,
    targets: Vec<TaskId>,
    /// Tasks with no dependencies, in submission order.
    ready: Vec<TaskId>,
}

impl CompiledGraph {
    /// Compiles `tasks` tasks whose dependencies `deps_of(t)` lists, in any
    /// order and with repeats. Every dependency must name an earlier task;
    /// the first `(task, dep)` pair that does not is returned as the error.
    ///
    /// This is the only place reverse edges are derived: count each task's
    /// dependents, prefix-sum the counts into offsets, then scatter in task
    /// order — which leaves every dependents list ascending and puts the
    /// repeats of one edge next to each other, so no list is ever sorted.
    pub fn from_dependencies<D: Iterator<Item = usize>>(
        tasks: usize,
        deps_of: impl Fn(usize) -> D,
    ) -> Result<Self, (usize, usize)> {
        let mut pending = vec![0usize; tasks];
        let mut offsets = vec![0usize; tasks + 1];
        // last_seen[d] = t + 1 once the edge d → t has been counted.
        let mut last_seen = vec![0usize; tasks];
        for (t, waits_for) in pending.iter_mut().enumerate() {
            for d in deps_of(t) {
                if d >= t {
                    return Err((t, d));
                }
                if last_seen[d] != t + 1 {
                    last_seen[d] = t + 1;
                    *waits_for += 1;
                    offsets[d + 1] += 1;
                }
            }
        }
        for t in 0..tasks {
            offsets[t + 1] += offsets[t];
        }
        // The marker array becomes the write cursor of each dependents list.
        let mut cursor = last_seen;
        cursor.copy_from_slice(&offsets[..tasks]);
        let mut targets = vec![TaskId(0); offsets[tasks]];
        for t in 0..tasks {
            for d in deps_of(t) {
                let at = cursor[d];
                if at == offsets[d] || targets[at - 1] != TaskId(t) {
                    targets[at] = TaskId(t);
                    cursor[d] = at + 1;
                }
            }
        }
        let ready = (0..tasks)
            .filter(|&t| pending[t] == 0)
            .map(TaskId)
            .collect();
        Ok(CompiledGraph {
            pending,
            offsets,
            targets,
            ready,
        })
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Tasks waiting on `t`, ascending.
    pub fn dependents(&self, t: TaskId) -> &[TaskId] {
        &self.targets[self.offsets[t.0]..self.offsets[t.0 + 1]]
    }

    /// How many distinct tasks each task waits for, indexed by task.
    pub fn pending(&self) -> &[usize] {
        &self.pending
    }

    /// Tasks that wait for nothing, in submission order.
    pub fn ready(&self) -> &[TaskId] {
        &self.ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::AccessMode;
    use crate::task::Variant;

    fn graph_with_codelet() -> (TaskGraph, usize) {
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        (g, c)
    }

    fn acc(h: HandleId, mode: AccessMode) -> DataAccess {
        DataAccess { handle: h, mode }
    }

    #[test]
    fn raw_dependency() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let t0 = g.submit(c, "w", 1.0, vec![acc(a, AccessMode::Write)], None);
        let t1 = g.submit(c, "r", 1.0, vec![acc(a, AccessMode::Read)], None);
        assert_eq!(g.dependencies(t1), &[t0]);
        assert_eq!(g.compile().dependents(t0), &[t1]);
    }

    #[test]
    fn war_and_waw_dependencies() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let w1 = g.submit(c, "w1", 1.0, vec![acc(a, AccessMode::Write)], None);
        let r1 = g.submit(c, "r1", 1.0, vec![acc(a, AccessMode::Read)], None);
        let r2 = g.submit(c, "r2", 1.0, vec![acc(a, AccessMode::Read)], None);
        let w2 = g.submit(c, "w2", 1.0, vec![acc(a, AccessMode::Write)], None);
        // w2 waits on the last writer (WAW) and all readers since (WAR).
        assert_eq!(g.dependencies(w2), &[w1, r1, r2]);
    }

    #[test]
    fn independent_reads_run_in_parallel() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let r1 = g.submit(c, "r1", 1.0, vec![acc(a, AccessMode::Read)], None);
        let r2 = g.submit(c, "r2", 1.0, vec![acc(a, AccessMode::Read)], None);
        assert!(g.dependencies(r1).is_empty());
        assert!(g.dependencies(r2).is_empty());
        assert_eq!(g.sources(), vec![r1, r2]);
    }

    #[test]
    fn readwrite_chains_serialize() {
        let (mut g, c) = graph_with_codelet();
        let acc_h = g.register_data("acc", 8.0);
        let t0 = g.submit(c, "t0", 1.0, vec![acc(acc_h, AccessMode::ReadWrite)], None);
        let t1 = g.submit(c, "t1", 1.0, vec![acc(acc_h, AccessMode::ReadWrite)], None);
        let t2 = g.submit(c, "t2", 1.0, vec![acc(acc_h, AccessMode::ReadWrite)], None);
        assert_eq!(g.dependencies(t1), &[t0]);
        assert_eq!(g.dependencies(t2), &[t1]);
    }

    #[test]
    fn duplicate_deps_merged() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let b = g.register_data("b", 8.0);
        let w = g.submit(
            c,
            "w",
            1.0,
            vec![acc(a, AccessMode::Write), acc(b, AccessMode::Write)],
            None,
        );
        let r = g.submit(
            c,
            "r",
            1.0,
            vec![acc(a, AccessMode::Read), acc(b, AccessMode::Read)],
            None,
        );
        assert_eq!(g.dependencies(r), &[w]); // one edge, not two
    }

    #[test]
    fn dgemm_tile_pattern() {
        // C[i][j] accumulated over k: tasks on the same C tile serialize,
        // different C tiles are independent.
        let (mut g, c) = graph_with_codelet();
        let c00 = g.register_data("C00", 8.0);
        let c01 = g.register_data("C01", 8.0);
        let a0 = g.register_data("A0", 8.0);
        let b0 = g.register_data("B0", 8.0);
        let reads = |h| acc(h, AccessMode::Read);
        let t_00_k0 = g.submit(
            c,
            "c00k0",
            1.0,
            vec![reads(a0), reads(b0), acc(c00, AccessMode::ReadWrite)],
            None,
        );
        let t_00_k1 = g.submit(
            c,
            "c00k1",
            1.0,
            vec![reads(a0), reads(b0), acc(c00, AccessMode::ReadWrite)],
            None,
        );
        let t_01_k0 = g.submit(
            c,
            "c01k0",
            1.0,
            vec![reads(a0), reads(b0), acc(c01, AccessMode::ReadWrite)],
            None,
        );
        assert_eq!(g.dependencies(t_00_k1), &[t_00_k0]);
        assert!(g.dependencies(t_01_k0).is_empty());
    }

    #[test]
    fn critical_path_and_totals() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let b = g.register_data("b", 8.0);
        // Chain on `a` of 3 × 10 flops; independent task on `b` of 5.
        for i in 0..3 {
            g.submit(
                c,
                format!("chain{i}"),
                10.0,
                vec![acc(a, AccessMode::ReadWrite)],
                None,
            );
        }
        g.submit(c, "solo", 5.0, vec![acc(b, AccessMode::Write)], None);
        assert_eq!(g.total_flops(), 35.0);
        assert_eq!(g.critical_path_flops(), 30.0);
    }

    #[test]
    #[should_panic(expected = "unknown codelet")]
    fn bad_codelet_index_panics() {
        let mut g = TaskGraph::new();
        g.submit(0, "x", 1.0, vec![], None);
    }

    #[test]
    #[should_panic(expected = "unknown data handle 3 (this graph registered 1)")]
    fn handle_of_another_graph_panics_with_its_number() {
        let (mut g, c) = graph_with_codelet();
        g.register_data("mine", 8.0);
        g.submit(c, "x", 1.0, vec![acc(HandleId(3), AccessMode::Read)], None);
    }

    #[test]
    fn a_panicked_submission_leaves_nothing_behind() {
        let (mut g, c) = graph_with_codelet();
        let a = g.register_data("a", 8.0);
        let w = g.submit(c, "w", 1.0, [acc(a, AccessMode::Write)], None);
        let bad = [acc(a, AccessMode::Read), acc(HandleId(9), AccessMode::Read)];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.submit(c, "bad", 1.0, bad, Some("gpus"));
        }));
        assert!(caught.is_err());
        // A label whose `Display` panics half-way leaves no text either.
        struct Torn;
        impl fmt::Display for Torn {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("torn")?;
                panic!("a label that fails half-way")
            }
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.submit(c, Torn, 1.0, [acc(a, AccessMode::Read)], None);
        }));
        assert!(caught.is_err());
        assert_eq!(g.len(), 1);
        let next = g.submit(c, "next", 1.0, [acc(a, AccessMode::Write)], None);
        let task = g.task(next);
        assert_eq!(task.label, "next");
        assert_eq!(task.accesses, [acc(a, AccessMode::Write)]);
        // The read that never happened is not waited for.
        assert_eq!(g.dependencies(next), [w]);
        assert_eq!(g.task(w).label, "w");
    }

    proptest::proptest! {
        /// The per-handle tracking arrays derive exactly the edges of the
        /// rule stated by scanning every earlier task: a task depends on
        /// the latest earlier writer of each handle it touches and, where
        /// it writes, on everything that touched the handle since.
        #[test]
        fn edges_equal_the_scan_of_all_earlier_tasks(
            tasks in proptest::collection::vec(
                proptest::collection::vec((0usize..6, 0usize..3), 0..4),
                0..40,
            ),
        ) {
            let modes = [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite];
            let (mut g, c) = graph_with_codelet();
            for accesses in &tasks {
                // Handles appear as tasks first name them, so the tracking
                // arrays grow between submissions.
                for &(h, _) in accesses {
                    while g.data.len() <= h {
                        g.register_data("h", 8.0);
                    }
                }
                let accesses = accesses.iter().map(|&(h, m)| acc(HandleId(h), modes[m]));
                g.submit(c, "t", 1.0, accesses, None);
            }

            let writes = |t: usize, h: usize| tasks[t].iter().any(|&(x, m)| x == h && modes[m].writes());
            let touches = |t: usize, h: usize| tasks[t].iter().any(|&(x, _)| x == h);
            let mut dependents = vec![Vec::new(); tasks.len()];
            for (t, accesses) in tasks.iter().enumerate() {
                let mut deps = Vec::new();
                for &(h, m) in accesses {
                    let writer = (0..t).rev().find(|&e| writes(e, h));
                    deps.extend(writer);
                    if modes[m].writes() {
                        deps.extend((writer.map_or(0, |w| w + 1)..t).filter(|&e| touches(e, h)));
                    }
                }
                deps.sort_unstable();
                deps.dedup();
                for &d in &deps {
                    dependents[d].push(TaskId(t));
                }
                let deps: Vec<TaskId> = deps.into_iter().map(TaskId).collect();
                assert_eq!(g.dependencies(TaskId(t)), deps, "dependencies of task {t}");
            }
            // The compiled form against the same scan: reverse edges,
            // pending counts and the ready seed.
            let compiled = g.compile();
            assert_eq!(compiled.len(), tasks.len());
            for (t, expected) in dependents.iter().enumerate() {
                assert_eq!(compiled.dependents(TaskId(t)), expected, "dependents of task {t}");
                assert_eq!(compiled.pending()[t], g.dependencies(TaskId(t)).len());
            }
            assert_eq!(compiled.ready(), g.sources());
        }

        /// Dependency lists as `ThreadTask::after` leaves them — unsorted,
        /// repeated, possibly naming a later task — compile to what their
        /// sorted, deduplicated form compiles to, or fail on the first
        /// offending pair in task-then-list order.
        #[test]
        fn unsorted_and_repeated_lists_compile_like_their_sorted_sets(
            raw in proptest::collection::vec(
                proptest::collection::vec((0usize..64, 0usize..20), 0..6),
                0..40,
            ),
        ) {
            // Mostly backward edges (`t - 1 - back`), now and then a forward one.
            let lists: Vec<Vec<usize>> = raw
                .iter()
                .enumerate()
                .map(|(t, picks)| {
                    picks
                        .iter()
                        .map(|&(back, forward)| if forward == 0 || t == 0 { t + back % 3 } else { (t - 1).saturating_sub(back) })
                        .collect()
                })
                .collect();
            let compiled = CompiledGraph::from_dependencies(lists.len(), |t| lists[t].iter().copied());
            let offender = lists
                .iter()
                .enumerate()
                .find_map(|(t, deps)| deps.iter().find(|&&d| d >= t).map(|&d| (t, d)));
            match offender {
                Some(pair) => assert_eq!(compiled, Err(pair)),
                None => {
                    let sets: Vec<Vec<usize>> = lists
                        .iter()
                        .map(|deps| {
                            let mut set = deps.clone();
                            set.sort_unstable();
                            set.dedup();
                            set
                        })
                        .collect();
                    let clean = CompiledGraph::from_dependencies(sets.len(), |t| sets[t].iter().copied());
                    assert_eq!(compiled, clean);
                    let compiled = compiled.unwrap();
                    for (t, set) in sets.iter().enumerate() {
                        assert_eq!(compiled.pending()[t], set.len());
                        let waiting: Vec<TaskId> = (0..sets.len())
                            .filter(|&u| sets[u].contains(&t))
                            .map(TaskId)
                            .collect();
                        assert_eq!(compiled.dependents(TaskId(t)), waiting);
                    }
                }
            }
        }
    }
}
