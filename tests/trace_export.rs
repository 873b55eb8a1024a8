//! Integration tests for the trace exporters: the run-summary JSON must
//! reconcile *exactly* with the engine's `ExecReport` counters, and the
//! Chrome-trace export of a Figure 5 run must carry one PDL-labeled lane
//! per device.

use hetero_rt::prelude::*;
use hetero_trace::json::Json;
use hetero_trace::{chrome, summary};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A grouped fork-join workload on the paper's 2-GPU testbed placement.
fn traced_report() -> (ExecReport, usize) {
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    let placement = Placement::from_logic_groups(&platform, &["@workers-gpus", "gpus"]).unwrap();
    let counter = Arc::new(AtomicUsize::new(0));
    let mut tasks = Vec::new();
    for stage in 0..30 {
        let first = tasks.len();
        for i in 0..16 {
            let c = counter.clone();
            let mut t = ThreadTask::new(format!("s{stage}f{i}"), move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
            if stage > 0 {
                t = t.after([first - 1]);
            }
            if i % 2 == 0 {
                t = t.in_group("gpus");
            }
            tasks.push(t);
        }
        let c = counter.clone();
        tasks.push(
            ThreadTask::new(format!("join{stage}"), move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .after(first..first + 16),
        );
    }
    let n = tasks.len();
    let report = ThreadedExecutor::with_placement(placement)
        .with_trace(TraceSink::ring())
        .run(tasks)
        .unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), n);
    (report, n)
}

#[test]
fn summary_totals_reconcile_exactly_with_exec_report() {
    let (report, n) = traced_report();
    let trace = report.trace.as_ref().unwrap();
    let doc = Json::parse(&summary::export(trace, report.wall.as_nanos() as u64)).unwrap();

    assert_eq!(doc.get("invariant_error"), Some(&Json::Null));
    assert_eq!(
        doc.get("platform").and_then(Json::as_str),
        Some("xeon-x5550-gtx480-gtx285")
    );

    let totals = doc.get("totals").expect("totals object");
    let total = |key: &str| totals.get(key).and_then(Json::as_u64).unwrap();
    assert_eq!(total("tasks"), n as u64);
    let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
    assert_eq!(total("tasks_executed"), executed as u64);
    assert_eq!(total("steals"), report.total_steals() as u64);
    assert_eq!(
        total("cross_group_steals"),
        report.total_cross_group_steals() as u64
    );
    assert_eq!(
        total("busy_ns"),
        report.total_busy().unwrap().as_nanos() as u64
    );
    assert_eq!(total("overwritten"), 0);

    // Per-lane executed counts reconcile with per-worker stats.
    let lanes = doc.get("lanes").unwrap().items();
    assert_eq!(lanes.len(), report.workers);
    for (lane, ws) in lanes.iter().zip(&report.worker_stats) {
        assert_eq!(
            lane.get("tasks_executed").and_then(Json::as_u64),
            Some(ws.executed as u64)
        );
        assert_eq!(
            lane.get("busy_ns").and_then(Json::as_u64),
            Some(ws.busy.unwrap().as_nanos() as u64)
        );
    }

    // Group utilization covers exactly the placement's groups and stays in
    // [0, 1]; the report-side helper agrees on the group list.
    let util = doc.get("group_utilization").unwrap().items();
    let groups: Vec<&str> = util
        .iter()
        .map(|u| u.get("group").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(groups, ["@workers-gpus", "gpus"]);
    for u in util {
        let v = u.get("utilization").and_then(Json::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&v), "utilization {v} out of range");
    }
    let report_groups: Vec<String> = report
        .utilization_by_group()
        .into_iter()
        .map(|(g, _)| g)
        .collect();
    assert_eq!(report_groups, ["@workers-gpus", "gpus"]);
    assert!(report.busy_fraction() > 0.0 && report.busy_fraction() <= 1.0);
}

#[test]
fn chrome_export_has_group_labeled_lane_per_worker() {
    let (report, n) = traced_report();
    let trace = report.trace.as_ref().unwrap();
    let doc = Json::parse(&chrome::export(trace)).unwrap();
    let events = doc.get("traceEvents").unwrap().items();

    // One thread_name metadata record per worker lane, carrying the PDL PU
    // id and its logic group.
    let lane_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
        })
        .collect();
    let worker_lanes: Vec<&&str> = lane_names.iter().filter(|n| n.contains('[')).collect();
    assert_eq!(worker_lanes.len(), report.workers);
    assert!(worker_lanes
        .iter()
        .all(|n| n.contains("[@workers-gpus]") || n.contains("[gpus]")));

    // Task spans are complete events colored per group with provenance args.
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("task"))
        .collect();
    assert_eq!(spans.len(), n);
    assert!(spans.iter().all(|s| s.get("cname").is_some()));
    assert!(spans
        .iter()
        .any(|s| s.get("args").and_then(|a| a.get("provenance")).is_some()));
}

#[test]
fn fig5_trace_has_one_lane_per_device() {
    let results = bench::fig5::run(2048, 512);
    let row = results.row("starpu+2gpu").unwrap();
    row.trace.validate().expect("fig5 trace is well-formed");

    let machine =
        simhw::machine::SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());
    assert_eq!(row.trace.meta.lanes.len(), machine.devices.len());

    let doc = Json::parse(&chrome::export(&row.trace)).unwrap();
    let lane_names: Vec<String> = doc
        .get("traceEvents")
        .unwrap()
        .items()
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
        })
        .map(str::to_string)
        .collect();
    // Every device lane is labeled with its PDL logic group.
    for dev in &machine.devices {
        let group = dev.groups.first().cloned().unwrap_or_default();
        assert!(
            lane_names
                .iter()
                .any(|n| n.contains(dev.pu_id.as_str()) && n.contains(group.as_str())),
            "no lane for {} [{group}] in {lane_names:?}",
            dev.pu_id
        );
    }
    // Virtual-time traces are flagged as such in the process metadata.
    let process_names: Vec<&str> = doc
        .get("traceEvents")
        .unwrap()
        .items()
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
        })
        .collect();
    assert!(process_names.iter().any(|n| n.contains("virtual time")));
}

#[test]
fn cascabel_compile_phases_survive_to_fig5_json() {
    let results = bench::fig5::run(2048, 512);
    let doc = results.to_json();
    let phases = doc.get("compile_phases").unwrap().items();
    assert_eq!(phases.len(), 2);
    for entry in phases {
        let names: Vec<&str> = entry
            .get("phases")
            .unwrap()
            .items()
            .iter()
            .map(|p| p.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            names,
            ["parse", "preselect", "mapping", "codegen", "compplan"]
        );
    }
    // The document round-trips through the serializer and parser.
    let reparsed = Json::parse(&doc.to_pretty()).unwrap();
    assert_eq!(reparsed.get("kind").and_then(Json::as_str), Some("fig5"));
}

/// The summary's totals and its metrics counters come from one tally:
/// they agree on every traced run, and the lanes add up to the total.
#[test]
fn summary_totals_agree_with_its_counters_and_lanes() {
    let (report, _) = traced_report();
    let fig5 = bench::fig5::run(2048, 512);
    let traces = [
        (
            report.trace.as_ref().unwrap(),
            report.wall.as_nanos() as u64,
        ),
        (&fig5.row("starpu+2gpu").unwrap().trace, 0),
    ];
    for (trace, wall_ns) in traces {
        let doc = Json::parse(&summary::export(trace, wall_ns)).unwrap();
        assert_eq!(doc.get("invariant_error"), Some(&Json::Null));
        let totals = doc.get("totals").unwrap();
        let counters = doc.get("metrics").and_then(|m| m.get("counters")).unwrap();
        for name in [
            "tasks_executed",
            "dequeues",
            "steals",
            "cross_group_steals",
            "parks",
        ] {
            // A counter is written only once it is non-zero.
            let counted = counters.get(name).and_then(Json::as_u64).unwrap_or(0);
            assert_eq!(
                totals.get(name).and_then(Json::as_u64),
                Some(counted),
                "{name}"
            );
        }
        let lanes = doc.get("lanes").unwrap().items();
        let lane_busy: u64 = lanes
            .iter()
            .map(|l| l.get("busy_ns").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(
            totals.get("busy_ns").and_then(Json::as_u64),
            Some(lane_busy)
        );
        assert!(lane_busy > 0);
    }
}
