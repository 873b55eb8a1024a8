//! `chrome://tracing` / Perfetto JSON export.
//!
//! Produces the [Trace Event Format] "JSON object" flavor: a top-level
//! object with a `traceEvents` array. Open the file in `chrome://tracing`
//! or <https://ui.perfetto.dev>: one lane (thread) per worker/device, task
//! spans colored by PDL logic group, phase spans on the lane that recorded
//! them, park/unpark as instant markers.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Timestamps: Chrome wants microseconds; nanosecond timestamps are emitted
//! as fractional µs so nothing is rounded away. Virtual-time traces use the
//! same scale (1 virtual ns = 1 µs-scale unit ÷ 1000).

use crate::event::{EventKind, Provenance};
use crate::json::Writer;
use crate::trace::{RunTrace, TimeUnit};

/// Chrome-reserved color names, assigned per logic group in first-seen
/// order. (`cname` values must come from Chrome's fixed palette.)
const GROUP_COLORS: [&str; 8] = [
    "thread_state_running",
    "rail_response",
    "cq_build_running",
    "thread_state_runnable",
    "rail_animation",
    "thread_state_iowait",
    "rail_idle",
    "generic_work",
];

/// Opens an event object with the members every event starts with.
fn begin_event(w: &mut Writer, name: &str, cat: Option<&str>, ph: &str) {
    w.begin_obj();
    w.key("name").str(name);
    if let Some(cat) = cat {
        w.key("cat").str(cat);
    }
    w.key("ph").str(ph);
}

/// Exports a drained trace as a Chrome-trace JSON document.
pub fn export(trace: &RunTrace) -> String {
    let spans = trace.task_spans();
    // Up to about 160 bytes a task span in the compact layout.
    let mut w = Writer::compact(160 * spans.len() + 1024);
    w.begin_obj();
    w.key("traceEvents").begin_arr();

    // Process metadata: name the process after the platform descriptor.
    begin_event(&mut w, "process_name", None, "M");
    w.key("pid").u64(0);
    w.key("args").begin_obj();
    match (&trace.meta.platform, trace.meta.time_unit) {
        (Some(p), TimeUnit::RealNanos) => w.key("name").str(p),
        (Some(p), TimeUnit::VirtualNanos) => w.key("name").str(&format!("{p} (virtual time)")),
        (None, _) => w.key("name").str("hetero-rt"),
    }
    w.end_obj();
    w.end_obj();

    // Color assignment: one palette entry per distinct logic group, in
    // lane order.
    let mut colors: std::collections::BTreeMap<&str, &'static str> = Default::default();
    for lane in &trace.meta.lanes {
        if let Some(g) = lane.group.as_deref() {
            let next = GROUP_COLORS[colors.len() % GROUP_COLORS.len()];
            colors.entry(g).or_insert(next);
        }
    }
    // Per lane: its group, and the color task spans on it get.
    let lane_paint: Vec<(Option<&str>, Option<&str>)> = trace
        .meta
        .lanes
        .iter()
        .map(|l| {
            let group = l.group.as_deref();
            (group, group.and_then(|g| colors.get(g).copied()))
        })
        .collect();

    // One lane per worker, named with its PDL identity; ordered by index.
    let run_lane = trace.meta.lanes.len().max(trace.workers.len());
    for worker in 0..=run_lane {
        begin_event(&mut w, "thread_name", None, "M");
        w.key("pid").u64(0);
        w.key("tid").u64(worker as u64);
        w.key("args").begin_obj();
        match trace.meta.lanes.get(worker) {
            Some(l) => match &l.group {
                Some(g) => w.key("name").str(&format!("{} [{g}]", l.name)),
                None => w.key("name").str(&l.name),
            },
            None if worker == run_lane => w.key("name").str("run"),
            None => w.key("name").str(&format!("w{worker}")),
        }
        w.end_obj();
        w.end_obj();
    }

    // Task spans ("X" complete events), colored by the lane's logic group.
    for span in spans {
        let info = trace.meta.tasks.get(span.task as usize);
        let (lane_group, color) = lane_paint.get(span.worker).copied().unwrap_or_default();
        begin_event(
            &mut w,
            info.map_or("task", |i| i.label),
            Some(info.map_or("task", |i| i.category)),
            "X",
        );
        w.key("ts").thousandths(span.start);
        w.key("dur").thousandths(span.end - span.start);
        w.key("pid").u64(0);
        w.key("tid").u64(span.worker as u64);
        w.key("args").begin_obj();
        w.key("task").u64(u64::from(span.task));
        if let Some(g) = lane_group {
            w.key("group").str(g);
        }
        if let Some(p) = span.provenance {
            w.key("provenance").str(p.label());
            if let Provenance::Steal { victim, .. } = p {
                w.key("victim").u64(u64::from(victim));
            }
        }
        w.end_obj();
        if let Some(color) = color {
            w.key("cname").str(color);
        }
        w.end_obj();
    }

    // Phase spans and instant markers, per lane (prelude = the run lane).
    let lanes = trace
        .workers
        .iter()
        .map(|w| (w.worker, &w.events))
        .chain(std::iter::once((run_lane, &trace.prelude)));
    for (worker, lane_events) in lanes {
        let mut open_phases: Vec<(String, u64)> = Vec::new();
        for e in lane_events.iter() {
            match e.kind {
                EventKind::PhaseStart { name } => open_phases.push((name, e.ts)),
                EventKind::PhaseEnd { name } => {
                    if let Some(pos) = open_phases.iter().rposition(|(n, _)| *n == name) {
                        let (name, start) = open_phases.remove(pos);
                        begin_event(&mut w, &name, Some("phase"), "X");
                        w.key("ts").thousandths(start);
                        w.key("dur").thousandths(e.ts - start);
                        w.key("pid").u64(0);
                        w.key("tid").u64(worker as u64);
                        w.end_obj();
                    }
                }
                EventKind::Park | EventKind::Unpark => {
                    let name = if e.kind == EventKind::Park {
                        "park"
                    } else {
                        "unpark"
                    };
                    begin_event(&mut w, name, Some("scheduler"), "i");
                    w.key("s").str("t");
                    w.key("ts").thousandths(e.ts);
                    w.key("pid").u64(0);
                    w.key("tid").u64(worker as u64);
                    w.end_obj();
                }
                _ => {}
            }
        }
    }
    w.end_arr();

    w.key("displayTimeUnit").str("ms");
    w.key("otherData").begin_obj();
    w.key("platform").opt_str(trace.meta.platform.as_deref());
    w.key("timeUnit").str(trace.meta.time_unit.label());
    w.key("generator").str("hetero-trace");
    w.end_obj();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::json::Json;
    use crate::labels::TaskInfo;
    use crate::trace::{LaneLabel, TraceMeta, WorkerTrace};

    fn sample() -> RunTrace {
        RunTrace {
            meta: TraceMeta {
                platform: Some("xeon_2gpu".to_string()),
                lanes: vec![
                    LaneLabel {
                        name: "cpu0".to_string(),
                        group: Some("cpus".to_string()),
                    },
                    LaneLabel {
                        name: "gpu0".to_string(),
                        group: Some("gpus".to_string()),
                    },
                ],
                tasks: [TaskInfo {
                    label: "dgemm_tile",
                    category: "task",
                    group: Some("gpus"),
                }]
                .into_iter()
                .collect(),
                time_unit: TimeUnit::RealNanos,
            },
            prelude: vec![
                TraceEvent {
                    ts: 0,
                    kind: EventKind::PhaseStart {
                        name: "execute".to_string(),
                    },
                },
                TraceEvent {
                    ts: 900,
                    kind: EventKind::PhaseEnd {
                        name: "execute".to_string(),
                    },
                },
            ]
            .into(),
            workers: vec![
                WorkerTrace {
                    worker: 0,
                    events: vec![
                        TraceEvent {
                            ts: 100,
                            kind: EventKind::Park,
                        },
                        TraceEvent {
                            ts: 200,
                            kind: EventKind::Unpark,
                        },
                    ]
                    .into(),
                    overwritten: 0,
                },
                WorkerTrace {
                    worker: 1,
                    events: vec![TraceEvent {
                        ts: 150,
                        kind: EventKind::TaskRun {
                            task: 0,
                            end: 650,
                            provenance: Some(Provenance::Steal {
                                victim: 0,
                                cross_group: true,
                            }),
                        },
                    }]
                    .into(),
                    overwritten: 0,
                },
            ],
        }
    }

    #[test]
    fn export_is_valid_json_with_lanes_and_colors() {
        let text = export(&sample());
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().items();

        // Process + 3 thread_name lanes (2 workers + run lane).
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(thread_names, ["cpu0 [cpus]", "gpu0 [gpus]", "run"]);

        // The task span: on lane 1, labeled, colored, with provenance.
        let task = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("task"))
            .unwrap();
        assert_eq!(task.get("name").and_then(Json::as_str), Some("dgemm_tile"));
        assert_eq!(task.get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(task.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(task.get("dur").and_then(Json::as_f64), Some(0.5));
        assert!(task.get("cname").is_some());
        let args = task.get("args").unwrap();
        assert_eq!(args.get("group").and_then(Json::as_str), Some("gpus"));
        assert_eq!(
            args.get("provenance").and_then(Json::as_str),
            Some("steal-cross-group")
        );
        assert_eq!(args.get("victim").and_then(Json::as_u64), Some(0));

        // Phase span on the run lane; park markers on lane 0.
        let phase = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("phase"))
            .unwrap();
        assert_eq!(phase.get("name").and_then(Json::as_str), Some("execute"));
        assert_eq!(phase.get("tid").and_then(Json::as_u64), Some(2));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("park")));

        // Distinct groups get distinct colors.
        let colors: std::collections::BTreeSet<&str> = events
            .iter()
            .filter_map(|e| e.get("cname").and_then(Json::as_str))
            .collect();
        assert!(!colors.is_empty());
    }

    #[test]
    fn empty_trace_still_exports() {
        let doc = Json::parse(&export(&RunTrace::default())).unwrap();
        assert!(doc.get("traceEvents").is_some());
        assert_eq!(
            doc.get("otherData")
                .unwrap()
                .get("generator")
                .and_then(Json::as_str),
            Some("hetero-trace")
        );
    }
}
