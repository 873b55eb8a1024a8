//! Bridges virtual-time simulation reports into [`hetero_trace`] form.
//!
//! The [`sim_engine`](crate::sim_engine) and
//! [`dyn_engine`](crate::dyn_engine) record occupancy spans in virtual
//! seconds on a [`simhw`] machine. This module converts a
//! [`SimReport`] into a
//! [`RunTrace`] — one lane per device, labeled with the device's PDL PU id
//! and first logic group, timestamps in **virtual nanoseconds**
//! ([`TimeUnit::VirtualNanos`]) — so the same Chrome-trace and run-summary
//! exporters serve real and simulated runs alike.
//!
//! When the report carries a link trace (pipelined transfer mode, see
//! [`TransferPipeline`](crate::sim_engine::TransferPipeline)), each
//! interconnect link gets its own lane in the `"links"` group, so the
//! Chrome export shows transfers overlapping compute on separate rows.
//! Lanes serialize occupancy, so a link whose transfers overlap (the
//! contention-free model lets them) is split into numbered channels
//! (`"PCIe:host-gpu0 #2"`, …) by greedy interval coloring.

use crate::sim_engine::{SimReport, Span, SpanKind};
use hetero_trace::{
    EventKind, EventLog, LaneLabel, RunTrace, TaskTable, TimeUnit, TraceEvent, TraceMeta,
    WorkerTrace,
};
use pdl_core::text::Text;
use simhw::machine::SimMachine;
use simhw::time::SimTime;

/// Virtual seconds → virtual nanoseconds (rounded).
fn virtual_ns(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(0.0) as u64
}

/// Appends the run of `span`, task `task` of the trace, to `log`.
fn push_run(log: &mut EventLog, task: u32, span: &Span) {
    let end = virtual_ns(span.end.seconds());
    let kind = EventKind::TaskRun {
        task,
        end,
        provenance: None,
    };
    log.push(TraceEvent {
        ts: virtual_ns(span.start.seconds()),
        kind,
    });
}

/// Converts a simulation report into a [`RunTrace`] in virtual time.
///
/// Every recorded span (compute *and* transfer) becomes one task of the
/// trace, with `category` `"task"` or `"transfer"` and the label
/// [`SimReport::label`] renders; lane labels come from the machine's devices
/// (PU id + first logic group). The prelude holds a single `simulate` phase
/// spanning the whole makespan.
pub fn sim_report_to_trace(report: &SimReport, machine: &SimMachine) -> RunTrace {
    let mut lanes: Vec<LaneLabel> = machine
        .devices
        .iter()
        .map(|d| LaneLabel {
            name: d.pu_id.to_string(),
            group: d.groups.first().map(ToString::to_string),
        })
        .collect();

    // Each span is a task of its own: the sim trace has no stable task
    // indices, and transfers have none at all. Labels are rendered into one
    // buffer and copied into the table's column.
    let (spans, link_spans) = (report.trace.spans(), report.link_trace.spans());
    let mut tasks = TaskTable::with_capacity(spans.len() + link_spans.len());
    let mut label = String::new();
    let mut add_task = |span: &Span, category: &str, group: Option<&str>| {
        label.clear();
        report.label(span, &mut label);
        tasks.push(&label, category, group);
        tasks.len() as u32 - 1
    };

    // Device lanes, each sized from the trace's own count and filled in
    // recording order. A span on a device the machine lacks goes to its
    // last lane.
    let last = machine.devices.len().max(1) - 1;
    let per_lane = report.trace.lane_spans();
    let mut device_lanes: Vec<EventLog> = (0..=last)
        .map(|d| EventLog::with_capacity(per_lane.get(d).map_or(0, |&n| n as usize)))
        .collect();
    for span in spans {
        let category = match span.kind() {
            SpanKind::Compute => "task",
            SpanKind::Transfer => "transfer",
        };
        let group = (machine.devices.get(span.lane as usize)).and_then(|d| d.groups.first());
        let task = add_task(span, category, group.map(Text::as_str));
        push_run(
            &mut device_lanes[(span.lane as usize).min(last)],
            task,
            span,
        );
    }

    // Link lanes follow the device lanes. The link trace indexes a
    // separate lane space (machine.links), and — unlike device
    // timelines — its spans may overlap when link contention is off, so
    // each link is split into as few serialized channels as cover its
    // spans (greedy interval coloring over start-sorted spans).
    let mut by_link: Vec<Vec<&Span>> = (report.link_trace.lane_spans().iter())
        .map(|&n| Vec::with_capacity(n as usize))
        .collect();
    for span in link_spans {
        by_link[span.lane as usize].push(span);
    }
    let mut channel_lanes: Vec<EventLog> = Vec::new();
    for (link, mut spans) in by_link
        .into_iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
    {
        spans.sort_by_key(|s| (s.start, s.end));
        let mut channels: Vec<(SimTime, Vec<&Span>)> = Vec::new();
        for span in spans {
            match channels.iter_mut().find(|(end, _)| *end <= span.start) {
                Some((end, ch)) => {
                    *end = span.end;
                    ch.push(span);
                }
                None => channels.push((span.end, vec![span])),
            }
        }
        let name = report
            .link_names
            .get(link)
            .cloned()
            .unwrap_or_else(|| format!("link{link}"));
        for (channel, (_, ch)) in channels.into_iter().enumerate() {
            let label = LaneLabel::link(&name, channel);
            let mut lane = EventLog::with_capacity(ch.len());
            for span in ch {
                push_run(
                    &mut lane,
                    add_task(span, "transfer", label.group.as_deref()),
                    span,
                );
            }
            lanes.push(label);
            channel_lanes.push(lane);
        }
    }

    let makespan_ns = virtual_ns(report.makespan.seconds());
    RunTrace {
        meta: TraceMeta {
            platform: Some(machine.name.clone()),
            lanes,
            tasks,
            time_unit: TimeUnit::VirtualNanos,
        },
        prelude: vec![
            TraceEvent {
                ts: 0,
                kind: EventKind::PhaseStart {
                    name: "simulate".to_string(),
                },
            },
            TraceEvent {
                ts: makespan_ns,
                kind: EventKind::PhaseEnd {
                    name: "simulate".to_string(),
                },
            },
        ]
        .into(),
        // Device timelines and link channels serialize occupancy, so a lane
        // is in `(start, end)` order as recorded; sorting keeps it so.
        workers: (device_lanes.into_iter().chain(channel_lanes))
            .enumerate()
            .map(|(worker, mut events)| {
                events.sort_runs();
                WorkerTrace {
                    worker,
                    events,
                    overwritten: 0,
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::AccessMode;
    use crate::graph::TaskGraph;
    use crate::scheduler::HeftScheduler;
    use crate::sim_engine::{simulate, SimOptions, Subject, TransferPipeline};
    use crate::task::{Codelet, DataAccess, Variant};

    /// A lane in order is kept as written, zero-length spans included; any
    /// other lane is sorted by `(start, end)`.
    #[test]
    fn lanes_keep_recording_order_unless_spans_overlap() {
        let runs = |spans: &[(u64, u64)]| {
            let mut log = EventLog::with_capacity(spans.len());
            for (task, &(start, end)) in spans.iter().enumerate() {
                let ns = |t: u64| SimTime::new(t as f64 * 1e-9);
                let subject = Subject::Compute(task as u32);
                let (start, end) = (ns(start), ns(end));
                let span = Span {
                    lane: 0,
                    subject,
                    start,
                    end,
                };
                push_run(&mut log, task as u32, &span);
            }
            log.sort_runs();
            let runs = log.iter().map(|e| match e.kind {
                EventKind::TaskRun { task, end, .. } => (e.ts, end, task),
                _ => unreachable!("lanes hold task runs"),
            });
            runs.collect::<Vec<_>>()
        };
        assert_eq!(runs(&[(0, 5), (5, 7)]), [(0, 5, 0), (5, 7, 1)]);
        assert_eq!(
            runs(&[(0, 5), (5, 5), (5, 7)]),
            [(0, 5, 0), (5, 5, 1), (5, 7, 2)]
        );
        assert_eq!(
            runs(&[(5, 7), (5, 5), (0, 5)]),
            [(0, 5, 2), (5, 5, 1), (5, 7, 0)]
        );
    }

    #[test]
    fn bridged_trace_validates_and_labels_devices() {
        let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
        let machine = SimMachine::from_platform(&platform);
        let mut graph = TaskGraph::new();
        let dgemm = graph.add_codelet(
            Codelet::new("dgemm")
                .with_variant(Variant::new("x86"))
                .with_variant(Variant::new("gpu").requiring("Cuda")),
        );
        let c = graph.register_data("C", 64e6);
        for i in 0..6 {
            graph.submit(
                dgemm,
                format!("tile{i}"),
                1e10,
                vec![DataAccess {
                    handle: c,
                    mode: AccessMode::Read,
                }],
                None,
            );
        }
        let report = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
            .expect("simulation runs");

        let trace = sim_report_to_trace(&report, &machine);
        assert_eq!(trace.meta.time_unit, TimeUnit::VirtualNanos);
        assert_eq!(trace.meta.lanes.len(), machine.devices.len());
        assert_eq!(trace.meta.tasks.len(), report.trace.spans().len());
        assert!(trace
            .meta
            .lanes
            .iter()
            .zip(&machine.devices)
            .all(|(lane, dev)| lane.name == dev.pu_id.as_str()));
        trace.validate().expect("bridged trace is well-formed");
        let stats = trace.stats();
        assert_eq!(stats.tasks as usize, report.trace.spans().len());
        // Busy time per lane reconciles with the sim's own accounting.
        let busy = report.trace.busy_by_device();
        for (d, ns) in stats.lanes.iter().map(|l| &l.busy_ns).enumerate() {
            let expected = busy
                .get(&simhw::machine::DeviceId(d))
                .map(|dur| virtual_ns(dur.seconds()))
                .unwrap_or(0);
            assert_eq!(*ns, expected, "device {d} busy mismatch");
        }
    }

    #[test]
    fn link_lanes_split_into_channels_and_validate() {
        let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
        let machine = SimMachine::from_platform(&platform);
        let mut graph = TaskGraph::new();
        let k = graph
            .add_codelet(Codelet::new("k").with_variant(Variant::new("gpu").requiring("Cuda")));
        for i in 0..3 {
            let h = graph.register_data(format!("in{i}"), 600e6);
            graph.submit(
                k,
                format!("t{i}"),
                1e10,
                vec![DataAccess {
                    handle: h,
                    mode: AccessMode::Read,
                }],
                None,
            );
        }
        // Contention off: transfers on one link may overlap, forcing the
        // bridge to split that link into numbered channels.
        let report = simulate(
            &graph,
            &machine,
            &mut HeftScheduler,
            &SimOptions {
                pipeline: TransferPipeline {
                    prefetch: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("simulation runs");
        assert!(!report.link_trace.spans().is_empty());

        let trace = sim_report_to_trace(&report, &machine);
        let link_lanes: Vec<&LaneLabel> = trace
            .meta
            .lanes
            .iter()
            .filter(|l| l.group.as_deref() == Some("links"))
            .collect();
        assert!(!link_lanes.is_empty());
        // Link lanes are named after PDL interconnects.
        assert!(link_lanes.iter().any(|l| l.name.starts_with("PCIe:")));
        // Every lane — devices and link channels — survives validation,
        // i.e. channel splitting serialized the overlapping spans.
        assert_eq!(trace.meta.lanes.len(), trace.workers.len());
        trace.validate().expect("link lanes are well-formed");
        let stats = trace.stats();
        assert_eq!(
            stats.tasks as usize,
            report.trace.spans().len() + report.link_trace.spans().len()
        );
    }
}
