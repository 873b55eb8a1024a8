//! Runtime anomaly diagnostics (`A` codes): scheduling pathologies
//! detected from a single recorded trace.
//!
//! The detection logic lives in [`hetero_trace::anomaly`]; this module
//! maps its findings onto the workspace's rustc-style report model with
//! stable codes:
//!
//! * `A001` — straggler worker: one lane of a group finishes far later
//!   than the group's median lane, holding the makespan.
//! * `A002` — group load imbalance: one lane of a group carries a large
//!   multiple of the group's mean per-lane busy time.
//! * `A003` — steal storm: a group obtains most of its work by stealing
//!   rather than from its own queues.
//! * `A004` — saturated link: a transfer lane is busy for almost the
//!   entire run window, making the interconnect the bottleneck.
//! * `A005` — lossy trace window: a worker's ring overflowed, so the
//!   lane's analysis only covers the retained suffix of events.
//!
//! All A codes are warnings — they describe *performance* pathologies,
//! not correctness violations (those are the `T` family). Every
//! diagnostic carries the anomaly's timeline span as a note so it can be
//! correlated with the Chrome export or the critical-path profile.

use hetero_trace::anomaly::{detect_tallied, Anomaly};
use hetero_trace::{RunTrace, TraceStats};
use pdl_core::diag::{Diagnostic, Report};

/// Runs the A-series anomaly detectors.
pub fn check_trace_anomalies(trace: &RunTrace) -> Report {
    tallied_anomalies(trace, &trace.stats())
}

/// [`check_trace_anomalies`] on the trace's tally, `stats`, taken once.
pub(crate) fn tallied_anomalies(trace: &RunTrace, stats: &TraceStats) -> Report {
    let found = detect_tallied(trace, stats);
    let mut report: Report = found.into_iter().map(to_diagnostic).collect();
    report.sort();
    report
}

fn to_diagnostic(a: Anomaly) -> Diagnostic {
    Diagnostic::warning(a.code, a.message)
        .with_subject(a.subject)
        .with_note(format!("trace window [{}, {}] ns", a.start_ns, a.end_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_trace::{EventKind, LaneLabel, TaskTable, TraceEvent, TraceMeta, WorkerTrace};

    fn lane_label(name: &str, group: &str) -> LaneLabel {
        LaneLabel {
            name: name.to_string(),
            group: Some(group.to_string()),
        }
    }

    fn span(task: u32, start: u64, end: u64) -> Vec<TraceEvent> {
        let kind = EventKind::TaskRun {
            task,
            end,
            provenance: None,
        };
        vec![TraceEvent { ts: start, kind }]
    }

    fn tasks(n: usize) -> TaskTable {
        let mut tasks = TaskTable::default();
        (0..n).for_each(|i| tasks.push(&format!("t{i}"), "task", None));
        tasks
    }

    /// cpu0 and cpu1 end at 1000; cpu2's last task ends at `end`.
    fn straggler_trace(end: u64) -> RunTrace {
        RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![
                    lane_label("cpu0", "cpus"),
                    lane_label("cpu1", "cpus"),
                    lane_label("cpu2", "cpus"),
                ],
                tasks: tasks(4),
                time_unit: hetero_trace::TimeUnit::default(),
            },
            prelude: Default::default(),
            workers: vec![
                WorkerTrace {
                    worker: 0,
                    events: span(0, 0, 1000).into(),
                    overwritten: 0,
                },
                WorkerTrace {
                    worker: 1,
                    events: span(1, 0, 1000).into(),
                    overwritten: 0,
                },
                WorkerTrace {
                    worker: 2,
                    events: {
                        let mut e = span(2, 0, 500);
                        e.extend(span(3, end - 500, end));
                        e.into()
                    },
                    overwritten: 0,
                },
            ],
        }
    }

    #[test]
    fn straggler_trace_reports_a001() {
        let report = check_trace_anomalies(&straggler_trace(2000));
        assert_eq!(report.codes(), ["A001"]);
        let rendered = report.render();
        assert!(rendered.contains("cpu2"), "{rendered}");
        assert!(
            rendered.contains("trace window [1000, 2000] ns"),
            "{rendered}"
        );
        // A 300 ns tail is under 25 % of the 1300 ns window: no finding.
        assert!(check_trace_anomalies(&straggler_trace(1300)).is_empty());
    }

    #[test]
    fn lossy_trace_reports_a005() {
        let trace = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![lane_label("cpu0", "cpus")],
                tasks: tasks(1),
                time_unit: hetero_trace::TimeUnit::default(),
            },
            prelude: Default::default(),
            workers: vec![WorkerTrace {
                worker: 0,
                events: span(0, 100, 300).into(),
                overwritten: 9,
            }],
        };
        let report = check_trace_anomalies(&trace);
        assert_eq!(report.codes(), ["A005"]);
        assert!(report.render().contains("9 events"), "{}", report.render());
    }
}
