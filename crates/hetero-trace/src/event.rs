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
    /// Received through a shared queue (the single-queue reference engine
    /// of the tests — no steal concept).
    Queue,
}

impl Provenance {
    /// Whether this claim counts as a steal (anything that did not come
    /// off the worker's own deque or the shared baseline queue).
    pub fn is_steal(&self) -> bool {
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
    /// One run of a task on the lane: the record is stamped with the start
    /// of the body, and carries its end and how the worker claimed it.
    TaskRun {
        /// Task index.
        task: u32,
        /// Timestamp at which the body returned.
        end: u64,
        /// Where the task came from; `None` when the run's claim was not
        /// recorded (simulated spans, files without the claim).
        provenance: Option<Provenance>,
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

/// One record: a timestamp (nanoseconds since the run's
/// [`crate::TraceClock`] epoch) plus what happened. A task run is stamped
/// with its start.
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
