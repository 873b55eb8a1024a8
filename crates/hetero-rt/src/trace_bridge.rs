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

use crate::sim_engine::SimReport;
use hetero_trace::{
    EventKind, LaneLabel, RunTrace, TaskInfo, TimeUnit, TraceEvent, TraceMeta, WorkerTrace,
};
use simhw::machine::SimMachine;
use simhw::trace::SpanKind;
use std::sync::Arc;

/// Virtual seconds → virtual nanoseconds (rounded).
fn virtual_ns(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(0.0) as u64
}

/// Converts a simulation report into a [`RunTrace`] in virtual time.
///
/// Every recorded span (compute *and* transfer) becomes one task of the
/// trace, with `category` `"task"` or `"transfer"`; lane labels come from
/// the machine's devices (PU id + first logic group). The prelude holds a
/// single `simulate` phase spanning the whole makespan.
pub fn sim_report_to_trace(report: &SimReport, machine: &SimMachine) -> RunTrace {
    let mut lanes: Vec<LaneLabel> = machine
        .devices
        .iter()
        .map(|d| LaneLabel {
            name: d.pu_id.clone(),
            group: d.groups.first().cloned(),
        })
        .collect();

    // One value per category and per device group, shared by every span.
    let [compute, transfer, links]: [Arc<str>; 3] = ["task", "transfer", "links"].map(Arc::from);
    let device_group: Vec<Option<Arc<str>>> = machine
        .devices
        .iter()
        .map(|d| d.groups.first().map(|g| g.as_str().into()))
        .collect();

    // Each span is a task of its own: the sim trace has no stable task
    // indices, and transfers have none at all.
    let mut tasks: Vec<TaskInfo> = Vec::with_capacity(report.trace.spans().len());
    let mut per_lane: Vec<Vec<TraceEvent>> = vec![Vec::new(); machine.devices.len().max(1)];
    for span in report.trace.spans() {
        let idx = tasks.len() as u32;
        let device = span.device.0.min(per_lane.len() - 1);
        tasks.push(TaskInfo {
            label: span.label.as_str().into(),
            category: match span.kind {
                SpanKind::Compute => compute.clone(),
                SpanKind::Transfer => transfer.clone(),
            },
            group: device_group.get(span.device.0).cloned().flatten(),
        });
        per_lane[device].push(TraceEvent {
            ts: virtual_ns(span.start.seconds()),
            kind: EventKind::TaskStart { task: idx },
        });
        per_lane[device].push(TraceEvent {
            ts: virtual_ns(span.end.seconds()),
            kind: EventKind::TaskEnd { task: idx },
        });
    }

    // Link lanes follow the device lanes. The link trace indexes a
    // separate device-id space (machine.links), and — unlike device
    // timelines — its spans may overlap when link contention is off, so
    // each link is split into as few serialized channels as cover its
    // spans (greedy interval coloring over start-sorted spans).
    let mut by_link: std::collections::BTreeMap<usize, Vec<&simhw::trace::Span>> =
        std::collections::BTreeMap::new();
    for span in report.link_trace.spans() {
        by_link.entry(span.device.0).or_default().push(span);
    }
    for (link, mut spans) in by_link {
        spans.sort_by_key(|s| (s.start, s.end));
        let mut channels: Vec<(simhw::time::SimTime, Vec<&simhw::trace::Span>)> = Vec::new();
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
            lanes.push(LaneLabel {
                name: if channel == 0 {
                    name.clone()
                } else {
                    format!("{name} #{}", channel + 1)
                },
                group: Some("links".to_string()),
            });
            let mut events = Vec::with_capacity(ch.len() * 2);
            for span in ch {
                let idx = tasks.len() as u32;
                tasks.push(TaskInfo {
                    label: span.label.as_str().into(),
                    category: transfer.clone(),
                    group: Some(links.clone()),
                });
                events.push(TraceEvent {
                    ts: virtual_ns(span.start.seconds()),
                    kind: EventKind::TaskStart { task: idx },
                });
                events.push(TraceEvent {
                    ts: virtual_ns(span.end.seconds()),
                    kind: EventKind::TaskEnd { task: idx },
                });
            }
            per_lane.push(events);
        }
    }

    // Device timelines serialize occupancy, so sorting by timestamp with
    // ends before starts at shared boundaries restores a valid per-lane
    // event order.
    for events in &mut per_lane {
        events.sort_by_key(|e| {
            (
                e.ts,
                match e.kind {
                    EventKind::TaskEnd { .. } => 0u8,
                    _ => 1u8,
                },
            )
        });
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
        workers: per_lane
            .into_iter()
            .enumerate()
            .map(|(worker, events)| WorkerTrace {
                worker,
                events: events.into(),
                overwritten: 0,
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
    use crate::sim_engine::{simulate, SimOptions, TransferPipeline};
    use crate::task::{Codelet, DataAccess, Variant};

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
            .all(|(lane, dev)| lane.name == dev.pu_id));
        let stats = trace.validate().expect("bridged trace is well-formed");
        assert_eq!(stats.tasks as usize, report.trace.spans().len());
        // Busy time per lane reconciles with the sim's own accounting.
        let busy = report.trace.busy_by_device();
        for (d, ns) in stats.busy_ns.iter().enumerate() {
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
        let stats = trace.validate().expect("link lanes are well-formed");
        assert_eq!(
            stats.tasks as usize,
            report.trace.spans().len() + report.link_trace.spans().len()
        );
    }
}
