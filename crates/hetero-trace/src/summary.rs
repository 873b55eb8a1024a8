//! Compact machine-readable run summary — the `BENCH_*.json` format.
//!
//! One JSON object per run: schema version, PDL identity, per-lane totals,
//! aggregate stats and the counters and histograms of the trace's one
//! tally, [`RunTrace::stats`]. By construction the totals reconcile
//! exactly with the engine's own report counters (the `trace_export`
//! integration test asserts it), so the perf trajectory tracked in
//! `BENCH_*.json` files can always be traced back to a concrete schedule.

use crate::json::Json;
use crate::trace::RunTrace;

/// Schema version stamped into every summary document.
///
/// v2: added the run-level `"lossy"` flag and switched invalid traces
/// from zeroed stats to the stats of the events they hold, so lossy ring
/// traces keep their per-lane numbers instead of silently reporting zeros.
pub const SCHEMA_VERSION: u64 = 2;

/// Builds the run-summary JSON value for a drained trace.
///
/// `wall_ns` is the engine-reported end-to-end time on the same clock as
/// the trace; pass the trace's own extent when no external measurement
/// exists. Validation failures are embedded as `"invariant_error"` rather
/// than returned — the summary of a broken run is still worth keeping,
/// with the stats of the events it holds and the `"lossy"` flag telling
/// readers how much to trust them.
pub fn to_json(trace: &RunTrace, wall_ns: u64) -> Json {
    let invariant_error = trace.validate().err().map(|e| e.to_string());
    let stats = trace.stats();

    let lanes: Vec<Json> = trace
        .workers
        .iter()
        .zip(&stats.lanes)
        .map(|(w, tally)| {
            let label = trace.meta.lanes.get(w.worker);
            Json::obj([
                ("worker", Json::Num(w.worker as f64)),
                (
                    "pu",
                    label
                        .map(|l| Json::str(l.name.clone()))
                        .unwrap_or(Json::Null),
                ),
                (
                    "group",
                    label
                        .and_then(|l| l.group.clone())
                        .map(Json::Str)
                        .unwrap_or(Json::Null),
                ),
                ("events", Json::Num(w.events.event_count() as f64)),
                ("overwritten", Json::Num(w.overwritten as f64)),
                ("tasks_executed", Json::Num(tally.spans as f64)),
                ("busy_ns", Json::Num(tally.busy_ns as f64)),
            ])
        })
        .collect();

    let utilization: Vec<Json> = stats
        .group_utilization(wall_ns)
        .into_iter()
        .map(|(group, u)| Json::obj([("group", Json::Str(group)), ("utilization", Json::Num(u))]))
        .collect();

    Json::obj([
        ("schema", Json::Num(SCHEMA_VERSION as f64)),
        ("kind", Json::str("hetero-trace-run-summary")),
        (
            "platform",
            trace
                .meta
                .platform
                .clone()
                .map(Json::Str)
                .unwrap_or(Json::Null),
        ),
        ("time_unit", Json::str(trace.meta.time_unit.label())),
        ("wall_ns", Json::Num(wall_ns as f64)),
        ("lossy", Json::Bool(trace.overwritten() > 0)),
        (
            "invariant_error",
            invariant_error.map(Json::Str).unwrap_or(Json::Null),
        ),
        (
            "totals",
            Json::obj([
                ("tasks", Json::Num(trace.meta.tasks.len() as f64)),
                ("tasks_executed", Json::Num(stats.tasks as f64)),
                ("dequeues", Json::Num(stats.dequeues as f64)),
                ("steals", Json::Num(stats.steals as f64)),
                (
                    "cross_group_steals",
                    Json::Num(stats.cross_group_steals as f64),
                ),
                ("parks", Json::Num(stats.parks as f64)),
                ("events", Json::Num(stats.events as f64)),
                ("overwritten", Json::Num(trace.overwritten() as f64)),
                (
                    "busy_ns",
                    Json::Num(stats.lanes.iter().map(|l| l.busy_ns).sum::<u64>() as f64),
                ),
            ]),
        ),
        ("lanes", Json::Arr(lanes)),
        ("group_utilization", Json::Arr(utilization)),
        ("metrics", stats.to_json()),
    ])
}

/// Exports the run summary as a pretty-printed JSON string.
pub fn export(trace: &RunTrace, wall_ns: u64) -> String {
    to_json(trace, wall_ns).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Provenance, TraceEvent};
    use crate::labels::TaskInfo;
    use crate::trace::{LaneLabel, TraceMeta, WorkerTrace};

    #[test]
    fn summary_totals_match_trace() {
        let trace = RunTrace {
            meta: TraceMeta {
                platform: Some("p".to_string()),
                lanes: vec![LaneLabel {
                    name: "cpu0".to_string(),
                    group: Some("cpus".to_string()),
                }],
                tasks: [TaskInfo {
                    label: "t",
                    category: "task",
                    group: None,
                }]
                .into_iter()
                .collect(),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![WorkerTrace {
                worker: 0,
                events: vec![TraceEvent {
                    ts: 1,
                    kind: EventKind::TaskRun {
                        task: 0,
                        end: 11,
                        provenance: Some(Provenance::Inject { cross_group: false }),
                    },
                }]
                .into(),
                overwritten: 0,
            }],
        };
        let text = export(&trace, 20);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("lossy"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("invariant_error"), Some(&Json::Null));
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("tasks_executed").and_then(Json::as_u64), Some(1));
        assert_eq!(totals.get("steals").and_then(Json::as_u64), Some(1));
        assert_eq!(totals.get("busy_ns").and_then(Json::as_u64), Some(10));
        let lanes = doc.get("lanes").unwrap().items();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].get("pu").and_then(Json::as_str), Some("cpu0"));
        assert_eq!(lanes[0].get("group").and_then(Json::as_str), Some("cpus"));
        let util = doc.get("group_utilization").unwrap().items();
        assert_eq!(util[0].get("group").and_then(Json::as_str), Some("cpus"));
        assert_eq!(util[0].get("utilization").and_then(Json::as_f64), Some(0.5));
    }

    #[test]
    fn invalid_trace_embeds_error() {
        let trace = RunTrace {
            meta: TraceMeta::default(),
            prelude: Default::default(),
            workers: vec![WorkerTrace {
                worker: 0,
                events: vec![TraceEvent {
                    ts: 2,
                    kind: EventKind::TaskRun {
                        task: 0,
                        end: 1,
                        provenance: None,
                    },
                }]
                .into(),
                overwritten: 0,
            }],
        };
        let doc = Json::parse(&export(&trace, 1)).unwrap();
        assert!(doc
            .get("invariant_error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("backwards timestamp"));
    }

    #[test]
    fn lossy_trace_keeps_best_effort_stats() {
        let trace = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![LaneLabel::default()],
                tasks: [TaskInfo {
                    label: "t",
                    category: "task",
                    group: None,
                }]
                .into_iter()
                .collect(),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![WorkerTrace {
                worker: 0,
                events: vec![
                    TraceEvent {
                        ts: 0,
                        kind: EventKind::TaskRun {
                            task: 0,
                            end: 25,
                            provenance: None,
                        },
                    },
                    TraceEvent {
                        ts: 26,
                        kind: EventKind::Park,
                    },
                ]
                .into(),
                // The ring dropped events: validate() refuses the trace.
                overwritten: 7,
            }],
        };
        assert!(trace.validate().is_err());
        let doc = Json::parse(&export(&trace, 30)).unwrap();
        assert_eq!(doc.get("lossy"), Some(&Json::Bool(true)));
        assert!(doc.get("invariant_error").unwrap() != &Json::Null);
        // Best-effort stats survive instead of collapsing to zero.
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("tasks_executed").and_then(Json::as_u64), Some(1));
        assert_eq!(totals.get("busy_ns").and_then(Json::as_u64), Some(25));
        assert_eq!(totals.get("parks").and_then(Json::as_u64), Some(1));
        assert_eq!(totals.get("overwritten").and_then(Json::as_u64), Some(7));
        let lanes = doc.get("lanes").unwrap().items();
        assert_eq!(lanes[0].get("overwritten").and_then(Json::as_u64), Some(7));
        assert_eq!(lanes[0].get("busy_ns").and_then(Json::as_u64), Some(25));
    }

    /// Two declared lanes, only worker 1 recorded: the totals, the lane
    /// and the group counter all read the one 50 ns task.
    #[test]
    fn a_sparse_lane_counts_everywhere() {
        let cpu = |name: &str| LaneLabel {
            name: name.to_string(),
            group: Some("cpus".to_string()),
        };
        let trace = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![cpu("cpu0"), cpu("cpu1")],
                tasks: [TaskInfo {
                    label: "t",
                    category: "task",
                    group: None,
                }]
                .into_iter()
                .collect(),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![WorkerTrace {
                worker: 1,
                events: vec![TraceEvent {
                    ts: 10,
                    kind: EventKind::TaskRun {
                        task: 0,
                        end: 60,
                        provenance: None,
                    },
                }]
                .into(),
                overwritten: 0,
            }],
        };
        trace.validate().expect("a valid trace");
        let doc = Json::parse(&export(&trace, 100)).unwrap();
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("busy_ns").and_then(Json::as_u64), Some(50));
        let lane = &doc.get("lanes").unwrap().items()[0];
        assert_eq!(lane.get("pu").and_then(Json::as_str), Some("cpu1"));
        assert_eq!(lane.get("busy_ns").and_then(Json::as_u64), Some(50));
        let counters = doc.get("metrics").and_then(|m| m.get("counters")).unwrap();
        let group_busy = counters.get("group_busy_ns/cpus").and_then(Json::as_u64);
        assert_eq!(group_busy, Some(50));
    }

    /// A lossy trace's worker index past every table still has its lane's
    /// busy time counted, without a table as long as the index.
    #[test]
    fn lossy_trace_counts_a_sparse_worker() {
        let span = |worker, task, end, overwritten| WorkerTrace {
            worker,
            events: vec![TraceEvent {
                ts: 0,
                kind: EventKind::TaskRun {
                    task,
                    end,
                    provenance: None,
                },
            }]
            .into(),
            overwritten,
        };
        let trace = RunTrace {
            meta: TraceMeta::default(),
            prelude: Default::default(),
            workers: vec![span(0, 0, 4, 1), span(usize::MAX, 1, 9, 0)],
        };
        let doc = Json::parse(&export(&trace, 10)).unwrap();
        assert_eq!(doc.get("lossy"), Some(&Json::Bool(true)));
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("busy_ns").and_then(Json::as_u64), Some(13));
        let busy: Vec<_> = (doc.get("lanes").unwrap().items().iter())
            .map(|l| l.get("busy_ns").and_then(Json::as_u64))
            .collect();
        assert_eq!(busy, [Some(4), Some(9)]);
    }
}
