//! Text held as one column: the stack's labels, and a trace's task table.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::num::TryFromIntError;

/// Labels back to back in one `String`: label `i` ends at `ends[i]` and
/// starts where the one before it ends. A column of any length is two
/// allocations. Task graphs, handle registries, simulation reports and
/// trace task tables keep their labels this way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Labels {
    text: String,
    ends: Vec<u32>,
}

impl Labels {
    /// Appends `label` as its `Display` writes it.
    pub fn push(&mut self, label: impl fmt::Display) {
        write!(self.text, "{label}").expect("a label's Display does not fail");
        self.end_label();
    }

    /// Appends `label`.
    pub fn push_str(&mut self, label: &str) {
        self.text.push_str(label);
        self.end_label();
    }

    fn end_label(&mut self) {
        let end = u32::try_from(self.text.len()).expect("label bytes fit u32 offsets");
        self.ends.push(end);
    }

    /// Keeps the first `len` labels and no text after them.
    pub fn truncate(&mut self, len: usize) {
        self.ends.truncate(len);
        self.text
            .truncate(self.ends.last().map_or(0, |&end| end as usize));
    }

    /// Label `i`. Panics when `i` is not below [`len`](Self::len).
    pub fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.text[start..self.ends[i] as usize]
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the column holds no label.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The labels in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// One task of a [`TaskTable`], borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskInfo<'a> {
    /// Display label.
    pub label: &'a str,
    /// Category (`"task"`, `"transfer"`, …) — becomes the Chrome trace
    /// `cat` field.
    pub category: &'a str,
    /// The execution group the task was pinned to, if any.
    pub group: Option<&'a str>,
}

/// Static description of every task of a trace, indexed by the task ids in
/// events: the labels in one [`Labels`] column, and per task a category
/// symbol and an optional group symbol. Symbols index a small table of
/// their own, numbered in first-appearance order, so two tables that hold
/// the same tasks hold the same columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskTable {
    labels: Labels,
    /// Per task: its category's symbol, and 1 + its group's (0 = none).
    rows: Vec<(u32, u32)>,
    symbols: Labels,
    /// Each symbol's number, to intern with.
    numbers: HashMap<Box<str>, u32>,
}

impl TaskTable {
    /// An empty table with room for `tasks` tasks.
    pub fn with_capacity(tasks: usize) -> TaskTable {
        TaskTable {
            labels: Labels {
                text: String::new(),
                ends: Vec::with_capacity(tasks),
            },
            rows: Vec::with_capacity(tasks),
            ..TaskTable::default()
        }
    }

    /// Appends a task. Panics past 4 GiB of labels or of symbols; see
    /// [`try_push`](Self::try_push).
    pub fn push(&mut self, label: &str, category: &str, group: Option<&str>) {
        self.labels.push_str(label);
        let category = self.symbol(category);
        let group = group.map_or(0, |g| self.symbol(g) + 1);
        self.rows.push((category, group));
    }

    /// Appends a task, or refuses it and leaves the table as it was when
    /// its label or its symbols could take a column past 4 GiB of text.
    pub fn try_push(
        &mut self,
        label: &str,
        category: &str,
        group: Option<&str>,
    ) -> Result<(), TryFromIntError> {
        u32::try_from(self.labels.text.len() + label.len())?;
        u32::try_from(self.symbols.text.len() + category.len() + group.map_or(0, str::len))?;
        self.push(label, category, group);
        Ok(())
    }

    /// A table of whole columns: task `i` is `labels.get(i)` in `category`
    /// and pinned to the `i`-th of `groups`, which yields one entry per
    /// label. Equal to the table [`push`](Self::push) builds task by task,
    /// symbols numbered by first appearance, but the label column is taken
    /// whole and the category is looked up once.
    pub fn from_column<'a>(
        labels: Labels,
        category: &str,
        groups: impl IntoIterator<Item = Option<&'a str>>,
    ) -> TaskTable {
        let mut table = TaskTable {
            rows: Vec::with_capacity(labels.len()),
            ..TaskTable::default()
        };
        let category = if labels.is_empty() {
            0
        } else {
            table.symbol(category)
        };
        for group in groups {
            let group = group.map_or(0, |g| table.symbol(g) + 1);
            table.rows.push((category, group));
        }
        assert_eq!(table.rows.len(), labels.len(), "one group entry per label");
        table.labels = labels;
        table
    }

    fn symbol(&mut self, text: &str) -> u32 {
        if let Some(&number) = self.numbers.get(text) {
            return number;
        }
        let number = u32::try_from(self.symbols.len()).expect("symbols fit u32");
        self.symbols.push_str(text);
        self.numbers.insert(text.into(), number);
        number
    }

    /// Task `task`, if the table has it.
    pub fn get(&self, task: usize) -> Option<TaskInfo<'_>> {
        let &(category, group) = self.rows.get(task)?;
        Some(TaskInfo {
            label: self.labels.get(task),
            category: self.symbols.get(category as usize),
            group: (group as usize).checked_sub(1).map(|g| self.symbols.get(g)),
        })
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no task.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The tasks in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TaskInfo<'_>> + '_ {
        (0..self.len()).map(|task| self.get(task).expect("in range"))
    }
}

impl<'a> FromIterator<TaskInfo<'a>> for TaskTable {
    fn from_iter<I: IntoIterator<Item = TaskInfo<'a>>>(tasks: I) -> Self {
        let mut table = TaskTable::default();
        tasks
            .into_iter()
            .for_each(|t| table.push(t.label, t.category, t.group));
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_exactly_what_was_pushed() {
        let mut column = Labels::default();
        column.push("");
        column.push(format_args!("größe[{}][{}]", 3, 14));
        column.push_str("任务");
        assert_eq!(column.len(), 3);
        assert_eq!(
            column.iter().collect::<Vec<_>>(),
            ["", "größe[3][14]", "任务"]
        );
    }

    /// Symbols are numbered by first appearance, so equal tasks make equal
    /// tables whatever else was interned where.
    #[test]
    fn tables_with_equal_tasks_are_equal() {
        let tasks = [
            TaskInfo {
                label: "a",
                category: "task",
                group: Some("gpus"),
            },
            TaskInfo {
                label: "b",
                category: "gpus",
                group: None,
            },
            TaskInfo {
                label: "c",
                category: "task",
                group: Some("task"),
            },
        ];
        let table: TaskTable = tasks.into_iter().collect();
        assert_eq!(table.iter().collect::<Vec<_>>(), tasks);
        assert_eq!(table.symbols.len(), 2, "one symbol per distinct text");
        assert_eq!(table, table.iter().collect());
        assert_ne!(table, tasks[..2].iter().copied().collect());
        assert_eq!(table.get(3), None);
    }

    /// A table built from whole columns equals the one pushed task by
    /// task, symbol numbering included, whether the category or a group
    /// comes first and however groups repeat.
    #[test]
    fn column_table_equals_the_pushed_one() {
        let groups = [
            [None, None, None, None],
            [Some("gpus"), Some("gpus"), None, Some("cpus")],
            [None, Some("task"), Some("cpus"), Some("task")],
            [Some("cpus"), Some("gpus"), Some("gpus"), Some("cpus")],
        ];
        for groups in groups {
            let mut labels = Labels::default();
            for i in 0..groups.len() {
                labels.push(format_args!("t{i}"));
            }
            let by_task: TaskTable = labels
                .iter()
                .zip(groups)
                .map(|(label, group)| TaskInfo {
                    label,
                    category: "task",
                    group,
                })
                .collect();
            let whole = TaskTable::from_column(labels, "task", groups);
            assert_eq!(whole, by_task, "{groups:?}");
        }
        let empty = TaskTable::from_column(Labels::default(), "task", []);
        assert_eq!(empty, TaskTable::default());
    }
}
