//! What [`ThreadedExecutor::run`](super::ThreadedExecutor::run) executes: a
//! [`TaskList`] of columns, built from a [`TaskGraph`] by [`from_graph`] or
//! from hand-built [`ThreadTask`] rows.

use crate::graph::TaskGraph;
use crate::task::Task;
use hetero_trace::Labels;
use std::collections::HashMap;
use std::sync::Arc;

/// A task's work.
pub(super) type Body = Box<dyn FnOnce() + Send>;

/// One executable task: the row a hand-built list is written in. A
/// [`TaskList`] collected from rows copies each into its columns.
pub struct ThreadTask {
    /// Display label, copied into the list's label column; the run's report
    /// and trace read it from there.
    pub label: Arc<str>,
    /// Indices of tasks that must complete first (all `<` this task's
    /// index).
    pub deps: Vec<usize>,
    /// Placement group this task prefers (a [`Placement`](super::Placement)
    /// group name); `None` runs anywhere. Ignored by executors built
    /// without a placement.
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

/// Tasks for one run, held as columns: one [`Labels`] column, every
/// dependency list back to back, a group symbol per task and the bodies.
/// Nothing besides a body is allocated per task, and the label column moves
/// whole into the run's [`ExecReport`](super::ExecReport).
///
/// The encoding is [`TaskGraph`]'s, which owns it: the same label column,
/// dependency lists back to back with an end per task, and group symbols
/// as 1 + index with 0 for none. Mirroring it lets [`from_graph`] copy
/// three columns instead of converting task by task. Hand-built rows are
/// what the list is for; a graph runs without it through
/// [`compile_graph`](super::ThreadedExecutor::compile_graph) and
/// [`run_compiled`](super::ThreadedExecutor::run_compiled).
#[derive(Default)]
pub struct TaskList {
    pub(super) labels: Labels,
    /// Task `i`'s dependencies end at `deps_end[i]` and start where task
    /// `i - 1`'s end.
    deps: Vec<usize>,
    deps_end: Vec<usize>,
    /// Per task, 1 + the index of its group in `group_names`; 0 = none.
    groups: Vec<u32>,
    /// Group names in order of first use.
    pub(super) group_names: Vec<String>,
    pub(super) work: Vec<Body>,
}

/// One task of a [`TaskList`], borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListedTask<'a> {
    /// Display label.
    pub label: &'a str,
    /// Indices of tasks that must complete first, as given.
    pub deps: &'a [usize],
    /// Placement group the task prefers, if any.
    pub group: Option<&'a str>,
}

impl TaskList {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.work.len()
    }

    /// Whether the list holds no task.
    pub fn is_empty(&self) -> bool {
        self.work.is_empty()
    }

    /// Task `i`. Panics when `i` is not below [`len`](Self::len).
    pub(crate) fn task(&self, i: usize) -> ListedTask<'_> {
        ListedTask {
            label: self.labels.get(i),
            deps: self.deps(i),
            group: self.group_index(i).map(|g| self.group_names[g].as_str()),
        }
    }

    /// The tasks in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ListedTask<'_>> + '_ {
        (0..self.len()).map(|i| self.task(i))
    }

    /// Task `i`'s dependencies.
    pub(super) fn deps(&self, i: usize) -> &[usize] {
        let start = i.checked_sub(1).map_or(0, |p| self.deps_end[p]);
        &self.deps[start..self.deps_end[i]]
    }

    /// The index in `group_names` of task `i`'s group.
    pub(super) fn group_index(&self, i: usize) -> Option<usize> {
        (self.groups[i] as usize).checked_sub(1)
    }

    /// Appends a hand-built row; `seen` numbers the group names met so far,
    /// and is turned into `group_names` when collecting ends.
    fn push(&mut self, task: ThreadTask, seen: &mut HashMap<String, usize>) {
        self.labels.push_str(&task.label);
        self.deps.extend(task.deps);
        self.deps_end.push(self.deps.len());
        let group = task.group.map_or(0, |name| {
            let next = seen.len();
            group_symbol(*seen.entry(name).or_insert(next))
        });
        self.groups.push(group);
        self.work.push(task.work);
    }
}

/// 1 + `index`, as a group column entry.
fn group_symbol(index: usize) -> u32 {
    u32::try_from(index + 1).expect("group symbols fit u32")
}

impl FromIterator<ThreadTask> for TaskList {
    fn from_iter<I: IntoIterator<Item = ThreadTask>>(tasks: I) -> Self {
        let tasks = tasks.into_iter();
        let mut list = TaskList::default();
        let n = tasks.size_hint().0;
        list.deps_end.reserve(n);
        list.groups.reserve(n);
        list.work.reserve(n);
        let mut seen = HashMap::new();
        tasks.for_each(|t| list.push(t, &mut seen));
        list.group_names = vec![String::new(); seen.len()];
        for (name, index) in seen {
            list.group_names[index] = name;
        }
        list
    }
}

impl From<Vec<ThreadTask>> for TaskList {
    fn from(tasks: Vec<ThreadTask>) -> Self {
        tasks.into_iter().collect()
    }
}

/// A [`TaskList`] mirroring a [`TaskGraph`]'s dependency structure and
/// execution-group annotations; `work` supplies each task's closure.
///
/// This is the bridge from Cascabel-shaped graphs (whose tasks carry the
/// paper's execution groups) to real execution: submission order becomes
/// index order, graph edges become index dependencies, and each task's
/// `execution_group` becomes its placement group. The list holds one copy
/// of the graph's label column and of its edges.
pub fn from_graph(
    graph: &TaskGraph,
    mut work: impl FnMut(Task<'_>) -> Box<dyn FnOnce() + Send>,
) -> TaskList {
    let n = graph.len();
    let mut list = TaskList {
        labels: graph.labels().clone(),
        deps: graph.all_dependencies().iter().map(|d| d.0).collect(),
        deps_end: Vec::with_capacity(n),
        groups: Vec::with_capacity(n),
        group_names: graph.groups().to_vec(),
        work: Vec::with_capacity(n),
    };
    let mut end = 0;
    for t in graph.tasks() {
        end += graph.dependencies(t.id).len();
        list.deps_end.push(end);
        list.groups
            .push(graph.group_index(t.id).map_or(0, group_symbol));
        list.work.push(work(t));
    }
    list
}
