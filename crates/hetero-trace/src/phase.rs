//! Named phase timing (compile pipeline stages, engine run phases).

use crate::clock::TraceClock;
use std::time::Duration;

/// One completed named phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (`"parse"`, `"codegen"`, …).
    pub name: String,
    /// Start, nanoseconds since the timer's clock epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the timer's clock epoch.
    pub end_ns: u64,
}

impl PhaseSpan {
    /// Phase length.
    pub fn duration(&self) -> Duration {
        TraceClock::between(self.start_ns, self.end_ns)
    }
}

/// Measures a sequence of (possibly nested) named phases against one
/// monotonic clock — how the Cascabel driver times its compile pipeline.
///
/// ```
/// let mut timer = hetero_trace::PhaseTimer::new();
/// let n = timer.scope("parse", |_| 21 * 2);
/// timer.start("codegen");
/// timer.end();
/// let phases = timer.finish();
/// assert_eq!(n, 42);
/// assert_eq!(phases.len(), 2);
/// assert_eq!(phases[0].name, "parse");
/// ```
#[derive(Debug, Default)]
pub struct PhaseTimer {
    clock: TraceClock,
    open: Vec<(String, u64)>,
    done: Vec<PhaseSpan>,
}

impl PhaseTimer {
    /// A timer with a fresh clock epoch.
    pub fn new() -> Self {
        PhaseTimer::default()
    }

    /// Opens a phase. Phases may nest; close with [`PhaseTimer::end`].
    pub fn start(&mut self, name: impl Into<String>) {
        self.open.push((name.into(), self.clock.now()));
    }

    /// Closes the innermost open phase. No-op if none is open.
    pub fn end(&mut self) {
        if let Some((name, start_ns)) = self.open.pop() {
            self.done.push(PhaseSpan {
                name,
                start_ns,
                end_ns: self.clock.now(),
            });
        }
    }

    /// Runs `f` inside a phase, closing it even though `f` may itself open
    /// and close nested phases.
    pub fn scope<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        self.start(name);
        let out = f(self);
        self.end();
        out
    }

    /// Closes any still-open phases and returns all spans in completion
    /// order (inner phases precede the phases that contain them).
    pub fn finish(mut self) -> Vec<PhaseSpan> {
        while !self.open.is_empty() {
            self.end();
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_measure_and_order() {
        let mut t = PhaseTimer::new();
        t.scope("outer", |t| {
            t.scope("inner", |_| std::hint::black_box(1 + 1));
        });
        let phases = t.finish();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "inner");
        assert_eq!(phases[1].name, "outer");
        // Inner nested inside outer on the shared clock.
        assert!(phases[1].start_ns <= phases[0].start_ns);
        assert!(phases[0].end_ns <= phases[1].end_ns);
    }

    #[test]
    fn finish_closes_dangling_phases() {
        let mut t = PhaseTimer::new();
        t.start("left-open");
        let phases = t.finish();
        assert_eq!(phases.len(), 1);
        assert!(phases[0].end_ns >= phases[0].start_ns);
    }

    #[test]
    fn end_without_start_is_noop() {
        let mut t = PhaseTimer::new();
        t.end();
        assert!(t.finish().is_empty());
    }
}
