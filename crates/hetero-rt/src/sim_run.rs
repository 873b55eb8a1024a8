//! The charging core both virtual-time engines drive.
//!
//! The list engine ([`crate::sim_engine`]) and the event engine
//! ([`crate::dyn_engine`]) differ only in *which* task they place next and
//! *when*; what a placement costs — coherence transfers, link occupancy,
//! the compute span, the final flush home — and what a finished run reports
//! are one question. [`SimRun`] holds the state that question reads and
//! answers it once: `tables.devices` → `pick` → `charge` per task, then
//! `into_report`.

use crate::data::{DataRegistry, HandleId, TransferPlan};
use crate::dispatch::{DispatchTables, Oracles};
use crate::graph::TaskGraph;
use crate::perfmodel::PerfModel;
use crate::scheduler::Scheduler;
use crate::sim_engine::{RtError, SimOptions, SimReport};
use crate::task::{Task, TaskId};
use simhw::energy::energy;
use simhw::machine::{DeviceId, SimMachine};
use simhw::resource::Timeline;
use simhw::time::{Duration, SimTime};
use simhw::trace::{SpanKind, Trace};

/// Per-physical-link usage accumulated while placing transfer plans,
/// indexed like `machine.links`. Feeds the always-on telemetry without
/// touching the global registry inside the scheduling loop.
#[derive(Debug, Clone, Copy, Default)]
struct LinkUse {
    busy: Duration,
    bytes: f64,
    transfers: u64,
}

/// One simulated run in progress.
pub(crate) struct SimRun<'a> {
    graph: &'a TaskGraph,
    machine: &'a SimMachine,
    options: &'a SimOptions,
    /// Which devices each task may use, by eligibility class.
    pub(crate) tables: DispatchTables<'a>,
    /// Device timelines, indexed by device id.
    timelines: Vec<Timeline>,
    host_bus: Timeline,
    data: DataRegistry,
    trace: Trace,
    /// One FIFO timeline per physical link (pipeline mode), plus a
    /// separate trace whose "device" ids index `machine.links`.
    link_timelines: Vec<Timeline>,
    link_use: Vec<LinkUse>,
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
                pu_id: d.pu_id.clone(),
                flops_dp: d.flops_dp,
            });
        }
        // The graph gives the other two factors of that division.
        let bad_variant = (graph.codelets.iter())
            .flat_map(|c| c.variants.iter().map(move |v| (c, v)))
            .find(|(_, v)| !(v.speedup.is_finite() && v.speedup > 0.0))
            .map(|(c, v)| {
                (
                    format!("codelet {:?}, variant {:?}", c.name, v.arch),
                    v.speedup,
                )
            });
        let bad_task = (graph.tasks())
            .find(|t| !(t.flops.is_finite() && t.flops >= 0.0))
            .map(|t| (format!("task {}", t.id), t.flops));
        if let Some((origin, value)) = bad_variant.or(bad_task) {
            return Err(RtError::UnusableWork { origin, value });
        }
        let data = graph.data.clone();
        let spans_per_task = if options.pipeline.is_active() { 1 } else { 2 };
        Ok(SimRun {
            graph,
            machine,
            options,
            tables: DispatchTables::new(graph, machine),
            timelines: vec![Timeline::new(); machine.len()],
            host_bus: Timeline::new(),
            // A compute span per task, and an `:in` span on the synchronous
            // path: regrowing a multi-megabyte vector moves glibc's mmap
            // threshold and with it the peak RSS.
            trace: Trace::with_capacity(spans_per_task * graph.len()),
            link_timelines: vec![Timeline::new(); machine.links.len()],
            link_use: vec![LinkUse::default(); machine.links.len()],
            link_trace: Trace::new(),
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
                let done =
                    self.run_plan_on_links(&plan, floor, |h| format!("{}:{h}:in", task.label));
                self.data.commit(&plan);
                self.data.finish_access(a.handle, chosen, a.mode);
                arrival = arrival.max(done);
            }
            let (start, end) = self.timelines[chosen.0].reserve(ready.max(arrival), compute);
            self.trace
                .record(chosen, task.label.to_owned(), SpanKind::Compute, start, end);
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
                self.trace.record(
                    chosen,
                    format!("{}:in", task.label),
                    SpanKind::Transfer,
                    start,
                    start + transfer,
                );
            }
            self.trace.record(
                chosen,
                task.label.to_owned(),
                SpanKind::Compute,
                start + transfer,
                end,
            );
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
        let size: f64 = task
            .accesses
            .iter()
            .map(|a| self.data.meta(a.handle).size_bytes)
            .sum();
        self.perfmodel.record(
            &self.graph.codelets[task.codelet].name,
            &self.machine.devices[chosen.0].arch,
            size,
            self.tables.compute_time(self.machine, task, chosen),
        );
    }

    /// Places one [`TransferPlan`]'s hops onto the physical-link timelines,
    /// starting no earlier than `floor`, and records a span per (hop, link)
    /// in `link_trace`, labelled `label(handle label)` — built on the first
    /// span, so a plan that moves nothing formats nothing. With link
    /// contention each hop additionally waits for (and then occupies) every
    /// link it crosses; without, links are treated as infinitely wide and
    /// the spans only document occupancy. Returns when the last hop
    /// completes (`floor` for plans that move nothing).
    fn run_plan_on_links(
        &mut self,
        plan: &TransferPlan,
        floor: SimTime,
        label: impl Fn(&str) -> String,
    ) -> SimTime {
        let contention = self.options.pipeline.link_contention;
        let mut built: Option<String> = None;
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
                if let Some(u) = self.link_use.get_mut(l.0) {
                    u.busy = u.busy + hop.duration;
                    u.bytes += hop.bytes;
                    u.transfers += 1;
                }
                let name = built.get_or_insert_with(|| label(self.data.meta(plan.handle).label));
                self.link_trace
                    .record(DeviceId(l.0), name.clone(), SpanKind::Transfer, start, end);
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
                self.run_plan_on_links(&plan, self.handle_ready[h.0], |h| format!("{h}:out"));
                self.data.commit(&plan);
            } else if let Some(owner) = self.data.device_owner(h) {
                let dur = self.data.flush_to_host(self.machine, h);
                if dur > Duration::ZERO {
                    let (s, e) = self.timelines[owner.0].reserve(SimTime::ZERO, dur);
                    self.trace.record(
                        owner,
                        format!("{}:out", self.data.meta(h).label),
                        SpanKind::Transfer,
                        s,
                        e,
                    );
                }
            }
        }
    }

    /// Publishes the run into the process-wide telemetry registry (cold
    /// path, once per run): run counter, virtual-makespan histogram, and
    /// per-PDL-link bytes / occupancy / transfer counters labeled with the
    /// link name.
    fn publish_telemetry(&self, engine: &str, makespan: SimTime) {
        let tel = hetero_trace::telemetry::global();
        tel.counter(&format!("sim_runs_total{{engine=\"{engine}\"}}"))
            .inc();
        tel.histogram("sim_makespan_ns")
            .observe((makespan.seconds() * 1e9).round().max(0.0) as u64);
        for (i, u) in self.link_use.iter().enumerate() {
            if u.transfers == 0 {
                continue;
            }
            let name = &self.machine.links[i].name;
            tel.counter(&format!("sim_link_transfers_total{{link=\"{name}\"}}"))
                .add(u.transfers);
            tel.counter(&format!("sim_link_bytes_total{{link=\"{name}\"}}"))
                .add(u.bytes.round().max(0.0) as u64);
            tel.counter(&format!("sim_link_busy_ns_total{{link=\"{name}\"}}"))
                .add((u.busy.seconds() * 1e9).round().max(0.0) as u64);
        }
    }

    /// Ends the run: the output flush (when asked for), telemetry under the
    /// `engine` label, and the report.
    pub(crate) fn into_report(mut self, engine: &str, policy: &'static str) -> SimReport {
        if self.options.flush_outputs {
            self.flush();
        }
        let makespan = self.trace.makespan().max(self.link_trace.makespan());
        self.publish_telemetry(engine, makespan);
        let machine = self.machine;
        SimReport {
            makespan,
            device_names: machine.devices.iter().map(|d| d.pu_id.clone()).collect(),
            assignments: self.assignments,
            energy: energy(machine, &self.trace),
            bytes_to_devices: self.data.bytes_to_devices(),
            bytes_to_host: self.data.bytes_to_host(),
            bytes_peer: self.data.bytes_peer(),
            perfmodel: self.perfmodel,
            policy,
            link_names: machine.links.iter().map(|l| l.name.clone()).collect(),
            link_trace: self.link_trace,
            trace: self.trace,
        }
    }
}
