//! Trace sinks: where (whether) events go.

use crate::clock::TraceClock;
use crate::event::{EventKind, TraceEvent};
use crate::ring::RingBuffer;
use crate::trace::WorkerTrace;

/// Run-level tracing configuration, handed to an executor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceSink {
    /// Tracing off. Every record call is an inlined no-op that never reads
    /// the clock — the zero-overhead default.
    #[default]
    Null,
    /// Tracing on: each worker records into its own bounded ring buffer.
    Ring {
        /// Maximum records retained per worker (overwrite-oldest beyond);
        /// a task run is one record.
        capacity: usize,
    },
}

impl TraceSink {
    /// Default per-worker record capacity of [`TraceSink::ring`] (1.5 MiB
    /// per worker at full occupancy: 24 bytes a record).
    pub const DEFAULT_CAPACITY: usize = 64 * 1024;

    /// A ring sink with the default capacity.
    pub fn ring() -> Self {
        TraceSink::Ring {
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Whether events will actually be collected.
    pub fn enabled(&self) -> bool {
        !matches!(self, TraceSink::Null)
    }

    /// The per-worker recording handle for this sink.
    pub fn worker_tracer(&self) -> WorkerTracer {
        match self {
            TraceSink::Null => WorkerTracer::Null,
            TraceSink::Ring { capacity } => WorkerTracer::Ring(RingBuffer::new(*capacity)),
        }
    }
}

/// One worker's recording handle — either a no-op or an owned ring buffer.
#[derive(Debug)]
pub enum WorkerTracer {
    /// Recording disabled.
    Null,
    /// Recording into the worker's own ring.
    Ring(RingBuffer),
}

impl WorkerTracer {
    /// Whether records are kept (lets callers skip building event payloads).
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self, WorkerTracer::Null)
    }

    /// Records `kind` stamped with the clock's current time. For
    /// [`WorkerTracer::Null`] this returns before reading the clock.
    #[inline]
    pub fn record(&mut self, clock: &TraceClock, kind: EventKind) {
        if let WorkerTracer::Ring(ring) = self {
            ring.push(TraceEvent {
                ts: clock.now(),
                kind,
            });
        }
    }

    /// Records `kind` at an explicit timestamp (virtual-time traces,
    /// pre-measured spans).
    #[inline]
    pub fn record_at(&mut self, ts: u64, kind: EventKind) {
        if let WorkerTracer::Ring(ring) = self {
            ring.push(TraceEvent { ts, kind });
        }
    }

    /// Drains into a per-worker trace; `None` for the null tracer.
    pub fn finish(self, worker: usize) -> Option<WorkerTrace> {
        match self {
            WorkerTracer::Null => None,
            WorkerTracer::Ring(ring) => {
                let (events, overwritten) = ring.into_events();
                Some(WorkerTrace {
                    worker,
                    events,
                    overwritten,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_records_nothing() {
        let clock = TraceClock::new();
        let mut t = TraceSink::Null.worker_tracer();
        assert!(!t.enabled());
        t.record(&clock, EventKind::Park);
        assert!(t.finish(0).is_none());
    }

    #[test]
    fn ring_sink_round_trips() {
        let clock = TraceClock::new();
        let sink = TraceSink::Ring { capacity: 16 };
        let mut t = sink.worker_tracer();
        assert!(t.enabled());
        t.record(&clock, EventKind::Park);
        t.record(&clock, EventKind::Unpark);
        let wt = t.finish(3).unwrap();
        assert_eq!(wt.worker, 3);
        assert_eq!(wt.overwritten, 0);
        let ts: Vec<u64> = wt.events.iter().map(|e| e.ts).collect();
        assert_eq!(ts.len(), 2);
        assert!(ts[0] <= ts[1]);
    }

    #[test]
    fn default_is_null() {
        assert_eq!(TraceSink::default(), TraceSink::Null);
        assert!(TraceSink::ring().enabled());
    }
}
