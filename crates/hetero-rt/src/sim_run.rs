//! The charging core both virtual-time engines drive.
//!
//! The list engine ([`crate::sim_engine`]) and the event engine
//! ([`crate::dyn_engine`]) differ only in *which* task they place next and
//! *when*; what a placement costs — coherence transfers, link occupancy,
//! the compute span, the final flush home — and what a finished run reports
//! are one question. [`SimRun`] holds the state that question reads and
//! answers it once: `tables.devices` → `pick` → `charge` per task, then
//! `into_report`.
//!
//! What a run did is recorded as [`Span`]s in a [`Trace`]: `Copy` records
//! naming their task or handle by index. Labels are rendered only by what
//! prints them ([`SimReport::label`]).

use crate::data::{DataRegistry, HandleId, TransferPlan};
use crate::dispatch::{DispatchTables, Oracles, ProbeMemo};
use crate::graph::TaskGraph;
use crate::perfmodel::PerfModel;
use crate::scheduler::Scheduler;
use crate::sim_engine::{RtError, SimOptions, SimReport};
use crate::task::{Task, TaskId};
use pdl_core::text::Text;
use simhw::energy::energy;
use simhw::machine::{DeviceId, SimMachine};
use simhw::resource::Timeline;
use simhw::time::{Duration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a span is of: a task or a handle by index (`u32`, like the graph's
/// own columns), from which [`SimReport::label`] renders its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// A task's compute: `"{task}"`.
    Compute(u32),
    /// A task's inputs staged onto its device (synchronous path): `"{task}:in"`.
    StageIn(u32),
    /// One hop of a handle bound for a task (pipelined path): `"{task}:{handle}:in"`.
    Hop(u32, u32),
    /// A written handle flushed home: `"{handle}:out"`.
    Flush(u32),
}

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Task execution on a device.
    Compute,
    /// Data movement to/from a device.
    Transfer,
}

/// One occupancy interval on one lane: a device, or in a link trace a
/// physical link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The device (or link) index the span occupies.
    pub lane: u32,
    /// What the span is of.
    pub subject: Subject,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

const _: () = assert!(size_of::<Span>() <= 32);
const _: fn() = || {
    fn is_copy<T: Copy>() {}
    is_copy::<Span>();
};

impl Span {
    /// Compute or transfer, from the subject.
    pub fn kind(&self) -> SpanKind {
        match self.subject {
            Subject::Compute(_) => SpanKind::Compute,
            _ => SpanKind::Transfer,
        }
    }
}

/// An append-only trace of spans over a fixed number of lanes, keeping each
/// lane's span count and busy time and the latest end as it records.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    spans: Vec<Span>,
    /// Spans recorded per lane.
    lane_spans: Vec<u32>,
    /// Busy time per lane (compute + transfer), summed in recording order.
    lane_busy: Vec<Duration>,
    makespan: SimTime,
}

impl Trace {
    /// An empty trace of `lanes` lanes with room for `spans` spans.
    pub(crate) fn with_capacity(lanes: usize, spans: usize) -> Self {
        Trace {
            spans: Vec::with_capacity(spans),
            lane_spans: vec![0; lanes],
            lane_busy: vec![Duration::ZERO; lanes],
            makespan: SimTime::ZERO,
        }
    }

    /// Records a span on `lane`.
    pub(crate) fn record(&mut self, lane: usize, subject: Subject, start: SimTime, end: SimTime) {
        debug_assert!(end >= start);
        self.lane_spans[lane] += 1;
        self.lane_busy[lane] = self.lane_busy[lane] + (end - start);
        self.makespan = self.makespan.max(end);
        self.spans.push(Span {
            lane: lane as u32,
            subject,
            start,
            end,
        });
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Latest end time over all spans (zero for an empty trace).
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Spans recorded per lane.
    pub(crate) fn lane_spans(&self) -> &[u32] {
        &self.lane_spans
    }

    /// Busy time per lane (compute + transfer), zero where nothing ran.
    pub(crate) fn lane_busy(&self) -> &[Duration] {
        &self.lane_busy
    }

    /// Busy time per device that has a span (compute + transfer).
    pub fn busy_by_device(&self) -> BTreeMap<DeviceId, Duration> {
        (0..self.lane_busy.len())
            .filter(|&d| self.lane_spans[d] > 0)
            .map(|d| (DeviceId(d), self.lane_busy[d]))
            .collect()
    }

    /// Count of spans of a kind.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind() == kind).count()
    }

    /// Renders a fixed-width text Gantt chart with `width` columns,
    /// one row per device. Compute is `#`, transfer is `~`.
    pub(crate) fn gantt(&self, device_names: &[Text], width: usize) -> String {
        let mut out = String::new();
        let makespan = self.makespan().seconds();
        if makespan == 0.0 || width == 0 {
            return out;
        }
        let scale = width as f64 / makespan;
        let n_devices = device_names.len();
        for (d, name) in device_names.iter().enumerate() {
            let mut row = vec![' '; width];
            for s in self.spans.iter().filter(|s| s.lane as usize == d) {
                let a = (s.start.seconds() * scale) as usize;
                // `a` reaches `width` when a span starts at the makespan.
                let b = ((s.end.seconds() * scale) as usize).max(a + 1).min(width);
                let ch = match s.kind() {
                    SpanKind::Compute => '#',
                    SpanKind::Transfer => '~',
                };
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            let _ = writeln!(out, "{name:>10} |{}|", row.iter().collect::<String>());
        }
        let _ = writeln!(
            out,
            "{:>10}  0{}{makespan:.4}s  ({n_devices} devices)",
            "",
            " ".repeat(width.saturating_sub(8)),
        );
        out
    }
}

/// One simulated run in progress.
pub(crate) struct SimRun<'a> {
    graph: &'a TaskGraph,
    machine: &'a SimMachine,
    options: &'a SimOptions,
    /// Which devices each task may use, by eligibility class.
    pub(crate) tables: DispatchTables<'a>,
    /// Scratch every [`pick`](Self::pick) prices transfers in.
    memo: RefCell<ProbeMemo>,
    /// Device timelines, indexed by device id.
    timelines: Vec<Timeline>,
    host_bus: Timeline,
    data: DataRegistry,
    trace: Trace,
    /// One FIFO timeline per physical link (pipeline mode), plus a
    /// separate trace whose "device" ids index `machine.links`.
    link_timelines: Vec<Timeline>,
    link_trace: Trace,
    /// When each handle's current value came into existence (its last
    /// writer's finish time) — the earliest a prefetched transfer may start.
    handle_ready: Vec<SimTime>,
    assignments: Vec<(TaskId, DeviceId)>,
    /// History the list engine learns into when asked; the event engine
    /// leaves it empty, so its compute oracle stays analytic.
    perfmodel: PerfModel,
}

impl<'a> SimRun<'a> {
    pub(crate) fn new(
        graph: &'a TaskGraph,
        machine: &'a SimMachine,
        options: &'a SimOptions,
    ) -> Result<Self, RtError> {
        if machine.is_empty() {
            return Err(RtError::EmptyMachine);
        }
        // A compute time is `flops / rate`: a descriptor may validate and
        // still give a rate no duration can be derived from.
        if let Some(d) = machine
            .devices
            .iter()
            .find(|d| !(d.flops_dp.is_finite() && d.flops_dp > 0.0))
        {
            return Err(RtError::UnusableRate {
                pu_id: d.pu_id.to_string(),
                flops_dp: d.flops_dp,
            });
        }
        // The graph gives the other two factors of that division.
        if let Some((c, v)) = (graph.codelets.iter())
            .flat_map(|c| c.variants.iter().map(move |v| (c, v)))
            .find(|(_, v)| !(v.speedup.is_finite() && v.speedup > 0.0))
        {
            return Err(RtError::UnusableWork {
                origin: format!("codelet {:?}, variant {:?}", c.name, v.arch),
                value: v.speedup,
            });
        }
        // Usable factors may still divide to infinity. Per (codelet,
        // execution group) pair, the largest task has the longest time on
        // every device the pair may use, so it alone is checked.
        let slots = graph.groups().len() + 1;
        let mut largest: Vec<Option<(TaskId, f64)>> = vec![None; graph.codelets.len() * slots];
        for t in graph.tasks() {
            if !(t.flops.is_finite() && t.flops >= 0.0) {
                return Err(RtError::UnusableWork {
                    origin: format!("task {}", t.id),
                    value: t.flops,
                });
            }
            let slot = graph.group_index(t.id).map_or(0, |g| g + 1);
            let pair = &mut largest[t.codelet * slots + slot];
            if pair.is_none_or(|(_, flops)| flops < t.flops) {
                *pair = Some((t.id, t.flops));
            }
        }
        let data = graph.data.clone();
        let tables = DispatchTables::new(graph, machine, options.pipeline.routing());
        for (id, _) in largest.into_iter().flatten() {
            let t = graph.task(id);
            for &d in tables.devices(tables.class_of(t)) {
                if !tables.compute_seconds(machine, t, d).is_finite() {
                    return Err(RtError::UnusableComputeTime {
                        task: t.id,
                        pu_id: machine.devices[d.0].pu_id.to_string(),
                    });
                }
            }
        }
        // A compute span per task, and an `:in` span on the synchronous path
        // if a task may run outside host memory: regrowing a large vector, or
        // reserving one twice too big, moves glibc's mmap threshold and RSS.
        let stages_in = !options.pipeline.is_active()
            && (0..tables.class_count())
                .flat_map(|c| tables.devices(c))
                .any(|&d| machine.host_route(d).is_some());
        let spans = if stages_in { 2 } else { 1 } * graph.len();
        Ok(SimRun {
            graph,
            machine,
            options,
            tables,
            memo: RefCell::default(),
            timelines: vec![Timeline::new(); machine.len()],
            host_bus: Timeline::new(),
            trace: Trace::with_capacity(machine.len(), spans),
            link_timelines: vec![Timeline::new(); machine.links.len()],
            link_trace: Trace::with_capacity(machine.links.len(), 0),
            handle_ready: vec![SimTime::ZERO; data.len()],
            assignments: Vec::with_capacity(graph.len()),
            perfmodel: PerfModel::new(),
            data,
        })
    }

    /// When `device` finishes what has been charged to it so far.
    pub(crate) fn free_at(&self, device: usize) -> SimTime {
        self.timelines[device].free_at()
    }

    /// The error for a task whose class has no device.
    pub(crate) fn no_eligible_device(&self, task: Task<'_>) -> RtError {
        RtError::NoEligibleDevice {
            task: task.id,
            codelet: self.graph.codelets[task.codelet].name.clone(),
            execution_group: task.execution_group.map(str::to_owned),
        }
    }

    /// Asks the policy for one of `candidates` (never empty) for a task
    /// that may start at `ready`.
    pub(crate) fn pick(
        &self,
        scheduler: &mut dyn Scheduler,
        task: Task<'_>,
        ready: SimTime,
        candidates: &[DeviceId],
    ) -> DeviceId {
        let mut memo = self.memo.borrow_mut();
        memo.begin(task, &self.tables);
        Oracles {
            machine: self.machine,
            tables: &self.tables,
            data: &self.data,
            timelines: &self.timelines,
            perfmodel: &self.perfmodel,
            routing: self.options.pipeline.routing(),
            task,
            codelet_name: &self.graph.codelets[task.codelet].name,
            ready,
            candidates,
            memo: &memo,
        }
        .pick(scheduler)
    }

    /// Charges `task`, startable at `ready`, onto `chosen`: its coherence
    /// transfers, its compute span, the trace spans and the assignment.
    /// Returns when the task ends.
    pub(crate) fn charge(&mut self, task: Task<'_>, chosen: DeviceId, ready: SimTime) -> SimTime {
        let machine = self.machine;
        let pipeline = self.options.pipeline;
        let compute = self.tables.compute_time(machine, task, chosen);
        // Graphs hold at most 2³² tasks and handles.
        let t = task.id.0 as u32;
        let end = if pipeline.is_active() {
            // Pipelined path: every input copy runs on the physical links
            // its route occupies, concurrently with device compute. The
            // compute span alone occupies the device.
            let mut arrival = SimTime::ZERO;
            for a in task.accesses {
                let plan =
                    self.data
                        .plan_acquire(machine, a.handle, chosen, a.mode, pipeline.routing());
                let floor = if pipeline.prefetch {
                    self.handle_ready[a.handle.0]
                } else {
                    ready
                };
                let done = self.run_plan_on_links(&plan, floor, Subject::Hop(t, a.handle.0 as u32));
                self.data.commit(&plan);
                self.data.finish_access(a.handle, chosen, a.mode);
                arrival = arrival.max(done);
            }
            let (start, end) = self.timelines[chosen.0].reserve(ready.max(arrival), compute);
            self.trace.record(chosen.0, Subject::Compute(t), start, end);
            end
        } else {
            // Legacy synchronous path: transfers charged on the destination
            // device's own timeline, host-staged routing.
            let mut transfer = Duration::ZERO;
            for a in task.accesses {
                transfer = transfer + self.data.acquire(machine, a.handle, chosen, a.mode);
            }
            // With bus contention on, the transfer additionally occupies
            // the shared host bus; the task cannot start before it is free.
            let shared_bus = self.options.shared_host_bus && transfer > Duration::ZERO;
            let ready = if shared_bus {
                ready.max(self.host_bus.free_at())
            } else {
                ready
            };
            let (start, end) = self.timelines[chosen.0].reserve(ready, transfer + compute);
            if transfer > Duration::ZERO {
                if shared_bus {
                    self.host_bus.reserve(start, transfer);
                }
                self.trace
                    .record(chosen.0, Subject::StageIn(t), start, start + transfer);
            }
            self.trace
                .record(chosen.0, Subject::Compute(t), start + transfer, end);
            end
        };
        for a in task.accesses {
            if a.mode.writes() {
                self.handle_ready[a.handle.0] = end;
            }
        }
        self.assignments.push((task.id, chosen));
        end
    }

    /// Feeds the analytic duration of `task` on `chosen` into the history
    /// model, keyed by the bytes the task touches.
    pub(crate) fn learn(&mut self, task: Task<'_>, chosen: DeviceId) {
        let size: f64 = task.accesses.iter().map(|a| self.data.size(a.handle)).sum();
        self.perfmodel.record(
            &self.graph.codelets[task.codelet].name,
            &self.machine.devices[chosen.0].arch,
            size,
            self.tables.compute_time(self.machine, task, chosen),
        );
    }

    /// Places one [`TransferPlan`]'s hops onto the physical-link timelines,
    /// starting no earlier than `floor`, and records a span of `subject` per
    /// (hop, link) in `link_trace`. With link contention each hop
    /// additionally waits for (and then occupies) every link it crosses;
    /// without, links are treated as infinitely wide and the spans only
    /// document occupancy. Returns when the last hop completes (`floor` for
    /// plans that move nothing).
    fn run_plan_on_links(
        &mut self,
        plan: &TransferPlan,
        floor: SimTime,
        subject: Subject,
    ) -> SimTime {
        let contention = self.options.pipeline.link_contention;
        let mut t = floor;
        for hop in &plan.hops {
            if hop.links.is_empty() {
                continue; // shared address space: bookkeeping only
            }
            let mut start = t;
            if contention {
                for &l in &hop.links {
                    start = start.max(self.link_timelines[l.0].free_at());
                }
            }
            let end = start + hop.duration;
            for &l in &hop.links {
                if contention {
                    self.link_timelines[l.0].reserve(start, hop.duration);
                }
                self.link_trace.record(l.0, subject, start, end);
            }
            t = end;
        }
        t
    }

    /// Flushes outputs home: every handle written by some task returns to
    /// host memory (the paper's vertical data-movement requirement).
    fn flush(&mut self) {
        let mut written = vec![false; self.data.len()];
        for a in self.graph.accesses() {
            written[a.handle.0] |= a.mode.writes();
        }
        for h in (0..written.len()).filter(|&h| written[h]).map(HandleId) {
            if self.options.pipeline.is_active() {
                let plan = self.data.plan_flush(self.machine, h);
                self.run_plan_on_links(&plan, self.handle_ready[h.0], Subject::Flush(h.0 as u32));
                self.data.commit(&plan);
            } else if let Some(owner) = self.data.device_owner(h) {
                let dur = self.data.flush_to_host(self.machine, h);
                if dur > Duration::ZERO {
                    let (s, e) = self.timelines[owner.0].reserve(SimTime::ZERO, dur);
                    self.trace.record(owner.0, Subject::Flush(h.0 as u32), s, e);
                }
            }
        }
    }

    /// Ends the run: the output flush (when asked for), and the report.
    pub(crate) fn into_report(mut self, policy: &'static str) -> SimReport {
        if self.options.flush_outputs {
            self.flush();
        }
        let makespan = self.trace.makespan().max(self.link_trace.makespan());
        let machine = self.machine;
        SimReport {
            makespan,
            device_names: machine.devices.iter().map(|d| d.pu_id.clone()).collect(),
            assignments: self.assignments,
            energy: energy(machine, self.trace.lane_busy(), self.trace.makespan()),
            bytes_to_devices: self.data.bytes_to_devices(),
            bytes_to_host: self.data.bytes_to_host(),
            bytes_peer: self.data.bytes_peer(),
            perfmodel: self.perfmodel,
            policy,
            link_names: machine.links.iter().map(|l| l.name.clone()).collect(),
            link_trace: self.link_trace,
            trace: self.trace,
            task_labels: self.graph.labels().clone(),
            handles: self.data.handle_table(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn makespan_and_busy_accounting() {
        let mut tr = Trace::with_capacity(3, 0);
        tr.record(0, Subject::Compute(0), t(0.0), t(2.0));
        tr.record(0, Subject::StageIn(1), t(2.0), t(2.5));
        tr.record(1, Subject::Compute(1), t(1.0), t(4.0));
        assert_eq!(tr.makespan().seconds(), 4.0);
        let busy = tr.busy_by_device();
        assert_eq!(busy.len(), 2, "a lane without spans has no entry");
        assert_eq!(busy[&DeviceId(0)].seconds(), 2.5);
        assert_eq!(busy[&DeviceId(1)].seconds(), 3.0);
        assert_eq!(tr.lane_spans(), [2, 1, 0]);
        assert_eq!(tr.count(SpanKind::Compute), 2);
        assert_eq!(tr.count(SpanKind::Transfer), 1);
    }

    #[test]
    fn empty_trace() {
        let tr = Trace::with_capacity(1, 0);
        assert_eq!(tr.makespan(), SimTime::ZERO);
        assert!(tr.busy_by_device().is_empty());
        assert_eq!(tr.gantt(&["d0".into()], 40), "");
    }

    #[test]
    fn gantt_renders_rows() {
        let mut tr = Trace::with_capacity(2, 0);
        tr.record(0, Subject::Compute(0), t(0.0), t(1.0));
        tr.record(1, Subject::Flush(0), t(0.0), t(0.5));
        tr.record(1, Subject::Compute(1), t(0.5), t(2.0));
        let g = tr.gantt(&["cpu0".into(), "gpu0".into()], 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("cpu0"));
        assert!(lines[0].contains('#'));
        assert!(lines[1].contains('~'));
        assert!(lines[1].contains('#'));
        assert!(lines[2].contains("2.0000s"));
    }

    /// Every subject renders the label the simulators used to format, from
    /// the task and handle labels of the run.
    #[test]
    fn labels_render_from_the_task_and_handle_columns() {
        let machine = SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::new();
        let c =
            g.add_codelet(Codelet::new("k").with_variant(Variant::new("gpu").requiring("Cuda")));
        let h = g.register_data("A[0]", 600e6);
        let rw = DataAccess {
            handle: h,
            mode: AccessMode::ReadWrite,
        };
        g.submit(c, "t0", 1e9, [rw], None);
        let labels = |options: SimOptions| {
            let r = simulate(&g, &machine, &mut EagerScheduler, &options).unwrap();
            let mut out = String::new();
            (r.trace.spans().iter().chain(r.link_trace.spans()))
                .map(|s| {
                    out.clear();
                    r.label(s, &mut out);
                    (s.kind(), out.clone())
                })
                .collect::<Vec<_>>()
        };
        let (compute, transfer) = (SpanKind::Compute, SpanKind::Transfer);
        assert_eq!(
            labels(SimOptions::default()),
            [
                (transfer, "t0:in".into()),
                (compute, "t0".into()),
                (transfer, "A[0]:out".into())
            ]
        );
        let pipeline = TransferPipeline {
            link_contention: true,
            ..Default::default()
        };
        assert_eq!(
            labels(SimOptions {
                pipeline,
                ..Default::default()
            }),
            [
                (compute, "t0".into()),
                (transfer, "t0:A[0]:in".into()),
                (transfer, "A[0]:out".into())
            ]
        );
    }
}
