//! The typed event model.

/// Where a dequeued task came from — the steal provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Popped from the worker's own deque (no steal).
    Local,
    /// Taken from a group injector (seeded work or a cross-group hand-off).
    Inject {
        /// True when the injector belongs to a different logic group than
        /// the claiming worker.
        cross_group: bool,
    },
    /// Stolen from another worker's deque.
    Steal {
        /// The worker the task was stolen from.
        victim: u32,
        /// True when the victim belongs to a different logic group.
        cross_group: bool,
    },
    /// Received through a shared queue (the single-queue baseline engine —
    /// no steal concept).
    Queue,
}

impl Provenance {
    /// Whether this dequeue counts as a steal (anything that did not come
    /// off the worker's own deque or the shared baseline queue).
    pub(crate) fn is_steal(&self) -> bool {
        matches!(self, Provenance::Inject { .. } | Provenance::Steal { .. })
    }

    /// Whether the task crossed a logic-group boundary to get here.
    pub fn is_cross_group(&self) -> bool {
        matches!(
            self,
            Provenance::Inject { cross_group: true }
                | Provenance::Steal {
                    cross_group: true,
                    ..
                }
        )
    }

    /// Short label for exporters.
    pub fn label(&self) -> &'static str {
        match self {
            Provenance::Local => "local",
            Provenance::Inject { cross_group: false } => "inject",
            Provenance::Inject { cross_group: true } => "inject-cross-group",
            Provenance::Steal {
                cross_group: false, ..
            } => "steal",
            Provenance::Steal {
                cross_group: true, ..
            } => "steal-cross-group",
            Provenance::Queue => "queue",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A task's last dependency completed: it is now runnable. Recorded by
    /// the worker that released it (which may differ from the worker that
    /// eventually runs it).
    TaskReady {
        /// Task index.
        task: u32,
    },
    /// A worker claimed a task, with its steal provenance.
    TaskDequeued {
        /// Task index.
        task: u32,
        /// Where the task came from.
        provenance: Provenance,
    },
    /// The task's closure started executing.
    TaskStart {
        /// Task index.
        task: u32,
    },
    /// The task's closure returned.
    TaskEnd {
        /// Task index.
        task: u32,
    },
    /// The worker found no work anywhere and is going to sleep.
    Park,
    /// The worker woke up (notification or timeout).
    Unpark,
    /// A named phase opened (graph-level engine phase, Cascabel compile
    /// phase). Phases nest and must close in LIFO order on their lane.
    PhaseStart {
        /// Phase name.
        name: String,
    },
    /// The matching phase closed.
    PhaseEnd {
        /// Phase name (must equal the innermost open phase).
        name: String,
    },
}

/// One recorded event: a timestamp (nanoseconds since the run's
/// [`crate::TraceClock`] epoch) plus what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the run clock's epoch (virtual nanoseconds for
    /// simulated-engine traces).
    pub ts: u64,
    /// The event payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_classification() {
        assert!(!Provenance::Local.is_steal());
        assert!(!Provenance::Queue.is_steal());
        assert!(Provenance::Inject { cross_group: false }.is_steal());
        assert!(Provenance::Steal {
            victim: 3,
            cross_group: true
        }
        .is_steal());
        assert!(!Provenance::Inject { cross_group: false }.is_cross_group());
        assert!(Provenance::Inject { cross_group: true }.is_cross_group());
        assert!(Provenance::Steal {
            victim: 0,
            cross_group: true
        }
        .is_cross_group());
    }
}
