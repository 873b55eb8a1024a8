//! # hetero-trace — structured runtime tracing for the PDL suite
//!
//! The paper's premise is that explicit platform descriptions should explain
//! *where* work ran: which processing unit, which logic group. This crate is
//! the observability layer that makes the runtime answer that question — a
//! low-overhead event collector plus exporters that turn one run of any
//! engine into a per-worker timeline labeled with PDL identity.
//!
//! ## Design
//!
//! * **Typed records** ([`TraceEvent`]/[`EventKind`]): task readiness, one
//!   record per task run (task, start, end, steal provenance), from threads
//!   and simulations alike, worker park/unpark, and named phase spans
//!   (graph-level engine phases, Cascabel compile phases).
//! * **Lock-free hot path**: each worker records into its own bounded
//!   [`RingBuffer`] — unshared until the run ends, so recording is one
//!   24-byte store into a packed [`EventLog`], no atomics, no locks.
//!   Buffers are drained when workers join.
//! * **One monotonic clock** ([`TraceClock`]): a single `Instant` epoch per
//!   run; every timestamp is nanoseconds since that epoch, so events from
//!   different workers are directly comparable.
//! * **PDL identity** ([`TraceMeta`]): each lane (worker/device) carries the
//!   PU id and logic group it maps to, resolved from the platform
//!   description via `pdl-query` placement; the trace knows which platform
//!   descriptor produced the schedule.
//! * **One lane table** ([`lanes::Lanes`]): a worker index becomes a lane
//!   — name, logic group, link — in one place, for every reader.
//! * **Text in once** ([`TaskTable`], [`Labels`]): a trace's task labels
//!   sit back to back in one column, with a category and a group symbol
//!   per task; readers borrow `&str` views ([`TaskInfo`]). The profiler's
//!   steps are symbols too, rendered to text only by a report.
//! * **Zero overhead when off**: [`TraceSink::Null`] makes every record call
//!   an inlined no-op that never reads the clock.
//!
//! ## Exporters
//!
//! * [`chrome::export`] — `chrome://tracing` / Perfetto JSON: one lane per
//!   worker, task spans colored by logic group.
//! * [`summary::export`] — compact machine-readable run summary (the
//!   `BENCH_*.json` format), reconciling exactly with engine reports.
//! * [`codec::export`] — full-fidelity trace round-trip (every record,
//!   plus optional task-graph edges), the `pdl profile` input format.
//!
//! All are dependency-free; [`json`] is the tiny writer/parser they and
//! the validation tooling share.
//!
//! ## Analysis
//!
//! * [`profile`] — the critical-path profiler: longest dependency chain
//!   through a trace, per-category blame attribution, what-if estimates,
//!   folded flamegraph stacks.
//! * [`diff`] — differential profiling: decomposes the wall-time delta
//!   between two runs into the profiler's blame categories (summing
//!   exactly to the measured delta) plus metric counter/quantile shifts;
//!   the `pdl perf-diff` engine.
//! * [`anomaly`] — single-trace pathology detection (straggler lanes,
//!   group imbalance, steal storms, saturated links, lossy windows),
//!   surfaced as the pdl-analyze `A` diagnostic family.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anomaly;
pub mod chrome;
mod clock;
pub mod codec;
pub mod diff;
mod event;
pub mod json;
mod labels;
pub mod lanes;
mod log;
mod metrics;
mod phase;
pub mod profile;
mod ring;
mod sink;
pub mod summary;
mod trace;

pub use clock::TraceClock;
pub use event::{EventKind, Provenance, TraceEvent};
pub use labels::{Labels, TaskInfo, TaskTable};
pub use log::EventLog;
pub use metrics::{Histogram, LaneStats, TraceStats};
pub use phase::{PhaseSpan, PhaseTimer};
pub use ring::RingBuffer;
pub use sink::{TraceSink, WorkerTracer};
pub use trace::{LaneLabel, RunTrace, TaskSpan, TimeUnit, TraceError, TraceMeta, WorkerTrace};
