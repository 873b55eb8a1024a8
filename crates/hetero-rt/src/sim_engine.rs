//! The simulated execution engine: list-scheduling a task graph onto a
//! [`SimMachine`] in virtual time.
//!
//! Combines everything the paper's generated programs rely on `StarPU` for:
//! variant selection per device, data management across memory spaces and
//! scheduling — but in virtual time over the PDL-derived machine, which is
//! how this reproduction regenerates Figure 5 without the authors' hardware
//! (see DESIGN.md).
//!
//! Algorithm: tasks are visited in submission order (a topological order by
//! construction). For each task the engine filters devices by variant
//! compatibility and execution group, asks the [`Scheduler`] policy to pick
//! one, charges the coherence transfers
//! ([`DataRegistry::acquire`](crate::data::DataRegistry::acquire)) and the
//! compute time onto the device's timeline, and records trace spans. After
//! the last task, written data is flushed back to host memory (the paper's
//! vertical data-movement requirement). Charging, flushing and the report
//! are the core it shares with [`crate::dyn_engine`].

use crate::data::{HandleTable, Routing};
use crate::graph::TaskGraph;
use crate::perfmodel::PerfModel;
use crate::scheduler::Scheduler;
use crate::sim_run::SimRun;
use crate::task::TaskId;
use hetero_trace::Labels;
use pdl_core::text::Text;
use simhw::energy::EnergyReport;
use simhw::machine::{DeviceId, SimMachine};
use simhw::time::SimTime;
use std::fmt;
use std::sync::Arc;

pub use crate::sim_run::{Span, SpanKind, Subject, Trace};

/// Which mechanisms of the interconnect-aware transfer pipeline are active.
///
/// All off (the [`Default`]) reproduces the legacy synchronous model:
/// transfers charged on the destination device's own timeline, host-staged
/// routing, no link occupancy. Each flag can be ablated independently —
/// `bench`'s transfer-pipeline ablation quantifies exactly these switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferPipeline {
    /// Route device↔device moves over a declared peer interconnect
    /// (e.g. `NVLink`) instead of staging through host memory, when cheaper.
    pub peer_to_peer: bool,
    /// Model each physical link as a FIFO resource: concurrent transfers
    /// sharing a link serialize; transfers on disjoint links overlap.
    pub link_contention: bool,
    /// Start a task's input transfers as soon as each input value exists
    /// (its producer finished), overlapping them with predecessor compute,
    /// instead of waiting until every dependency has finished.
    pub prefetch: bool,
}

impl TransferPipeline {
    /// Every mechanism on.
    pub fn full() -> Self {
        TransferPipeline {
            peer_to_peer: true,
            link_contention: true,
            prefetch: true,
        }
    }

    /// Whether any mechanism is on (off means the legacy synchronous path).
    pub(crate) fn is_active(self) -> bool {
        self.peer_to_peer || self.link_contention || self.prefetch
    }

    /// The data-routing policy this configuration implies.
    pub(crate) fn routing(self) -> Routing {
        if self.peer_to_peer {
            Routing::PeerToPeer
        } else {
            Routing::HostStaged
        }
    }
}

/// Options for one simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Flush all written data back to host at the end (counted in the
    /// makespan, as the paper's DGEMM must deliver its result matrix).
    pub flush_outputs: bool,
    /// Feed observed durations into a history perf model. Only the list
    /// engine ([`simulate`]) learns; the event engine
    /// ([`simulate_dynamic`](crate::dyn_engine::simulate_dynamic)) ignores
    /// this and returns an empty [`SimReport::perfmodel`].
    pub learn_perfmodel: bool,
    /// Model host-memory bus contention: all host↔device transfers
    /// serialize on one shared bus resource (in addition to occupying the
    /// destination device). Default off — each device's link is independent,
    /// as on point-to-point `PCIe`. Ignored when `pipeline` is active, which
    /// models contention per physical link instead.
    pub shared_host_bus: bool,
    /// Transfer-pipeline mechanisms (peer-to-peer routing, per-link
    /// contention, input prefetch). Default: all off (legacy model).
    pub pipeline: TransferPipeline,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            flush_outputs: true,
            learn_perfmodel: false,
            shared_host_bus: false,
            pipeline: TransferPipeline::default(),
        }
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    /// No device can run some task: no compatible variant, or the
    /// execution group excludes every compatible device.
    NoEligibleDevice {
        /// The task that could not be placed.
        task: TaskId,
        /// Its codelet name.
        codelet: String,
        /// The execution-group restriction, if any.
        execution_group: Option<String>,
    },
    /// The machine has no devices at all.
    EmptyMachine,
    /// A device's compute rate is not a positive finite number, so no task
    /// duration can be derived from it.
    UnusableRate {
        /// The PU the device was built from.
        pu_id: String,
        /// The rate its descriptor gives (FLOP/s, double precision).
        flops_dp: f64,
    },
    /// A variant's speedup is not positive and finite, or a task's FLOP
    /// count is not non-negative and finite.
    UnusableWork {
        /// `codelet "k", variant "gpu"` or `task t3`.
        origin: String,
        /// The speedup or FLOP count it gives.
        value: f64,
    },
    /// A task's FLOP count over an eligible device's rate × its variant's
    /// speedup is not a finite time, though each factor is usable.
    UnusableComputeTime {
        /// The task.
        task: TaskId,
        /// The PU of the device it would run on.
        pu_id: String,
    },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::NoEligibleDevice {
                task,
                codelet,
                execution_group,
            } => {
                write!(f, "no eligible device for task {task} (codelet {codelet:?}")?;
                if let Some(g) = execution_group {
                    write!(f, ", execution group {g:?}")?;
                }
                write!(f, ") — provide a fall-back variant or widen the group")
            }
            RtError::EmptyMachine => write!(f, "the simulated machine has no devices"),
            RtError::UnusableRate { pu_id, flops_dp } => write!(
                f,
                "PU {pu_id:?} has a compute rate of {flops_dp} FLOP/s — PEAK_GFLOPS_DP × EFFICIENCY must be positive and finite"
            ),
            RtError::UnusableWork { origin, value } => write!(
                f,
                "{origin} gives {value} — a speedup must be positive and a FLOP count non-negative, both finite"
            ),
            RtError::UnusableComputeTime { task, pu_id } => write!(
                f,
                "task {task} has no finite compute time on PU {pu_id:?} — FLOPs / (rate × speedup) must be finite"
            ),
        }
    }
}

impl std::error::Error for RtError {}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual end-to-end time.
    pub makespan: SimTime,
    /// Full execution trace.
    pub trace: Trace,
    /// PU ids, indexed by device id (for rendering), shared with the
    /// machine's devices.
    pub device_names: Vec<Text>,
    /// Chosen device per task.
    pub assignments: Vec<(TaskId, DeviceId)>,
    /// Energy consumed (from PDL power properties).
    pub energy: EnergyReport,
    /// Bytes moved host→device.
    pub bytes_to_devices: f64,
    /// Bytes moved device→host.
    pub bytes_to_host: f64,
    /// Bytes moved directly device→device over peer interconnects.
    pub bytes_peer: f64,
    /// History model learned during the run (empty unless enabled).
    pub perfmodel: PerfModel,
    /// Scheduling policy used.
    pub policy: &'static str,
    /// Physical link names, indexed like the device ids of `link_trace`.
    pub link_names: Vec<String>,
    /// Transfer spans on physical links (separate id space from `trace`:
    /// span lanes index `link_names`). Empty unless the transfer
    /// pipeline was active.
    pub link_trace: Trace,
    /// The graph's task labels, copied once per run, and the registry's
    /// handle table: what [`label`](Self::label) renders from.
    pub(crate) task_labels: Labels,
    pub(crate) handles: Arc<HandleTable>,
}

impl SimReport {
    /// Appends the label of `span` (of `trace` or `link_trace`) to `out`:
    /// `"{task}"`, `"{task}:in"`, `"{task}:{handle}:in"` or
    /// `"{handle}:out"`, from the task and handle labels of the run.
    pub fn label(&self, span: &Span, out: &mut String) {
        let task = |t: u32| self.task_labels.get(t as usize);
        let handle = |h: u32| self.handles.labels.get(h as usize);
        let parts = match span.subject {
            Subject::Compute(t) => [task(t), "", "", ""],
            Subject::StageIn(t) => [task(t), ":in", "", ""],
            Subject::Hop(t, h) => [task(t), ":", handle(h), ":in"],
            Subject::Flush(h) => [handle(h), ":out", "", ""],
        };
        parts.iter().for_each(|part| out.push_str(part));
    }

    /// Busy fraction of each device over the makespan, keyed by PU id.
    pub fn utilization(&self) -> Vec<(String, f64)> {
        let busy = self.trace.lane_busy();
        self.device_names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let b = busy.get(i).map_or(0.0, |d| d.seconds());
                let m = self.makespan.seconds();
                (
                    name.to_string(),
                    if m > 0.0 { (b / m).min(1.0) } else { 0.0 },
                )
            })
            .collect()
    }

    /// Text Gantt chart of the run.
    pub fn gantt(&self, width: usize) -> String {
        self.trace.gantt(&self.device_names, width)
    }
}

/// Simulates the graph on the machine under the given policy.
pub fn simulate(
    graph: &TaskGraph,
    machine: &SimMachine,
    scheduler: &mut dyn Scheduler,
    options: &SimOptions,
) -> Result<SimReport, RtError> {
    let mut run = SimRun::new(graph, machine, options)?;
    let mut finish: Vec<SimTime> = vec![SimTime::ZERO; graph.len()];

    // Early binding: a task may be queued behind a busy device, so every
    // eligible device is a candidate and submission order is the only
    // order needed — edges point backwards, `finish` is always filled.
    for task in graph.tasks() {
        let candidates = run.tables.devices(run.tables.class_of(task));
        if candidates.is_empty() {
            return Err(run.no_eligible_device(task));
        }
        let ready = graph
            .dependencies(task.id)
            .iter()
            .map(|d| finish[d.0])
            .max()
            .unwrap_or(SimTime::ZERO);
        let chosen = run.pick(scheduler, task, ready, candidates);
        finish[task.id.0] = run.charge(task, chosen, ready);
        if options.learn_perfmodel {
            run.learn(task, chosen);
        }
    }
    Ok(run.into_report(scheduler.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{AccessMode, HandleId};
    use crate::scheduler::{EagerScheduler, HeftScheduler, RandomScheduler};
    use crate::task::{Codelet, DataAccess, Variant};
    use pdl_discover::synthetic;

    fn acc(h: HandleId, mode: AccessMode) -> DataAccess {
        DataAccess { handle: h, mode }
    }

    /// Independent tasks, CPU-only codelet, on the 8-core testbed.
    fn independent_graph(n: usize, flops: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        for i in 0..n {
            let h = g.register_data(format!("d{i}"), 8.0);
            g.submit(
                c,
                format!("t{i}"),
                flops,
                vec![acc(h, AccessMode::Write)],
                None,
            );
        }
        g
    }

    #[test]
    fn parallel_speedup_on_eight_cores() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let g = independent_graph(64, 9.576e9); // each task = 1s on a core
        let r = simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        // 64 × 1s of work over 8 cores ≈ 8 s.
        assert!((r.makespan.seconds() - 8.0).abs() < 1e-6, "{}", r.makespan);
        // All cores equally utilized.
        for (name, u) in r.utilization() {
            assert!(u > 0.99, "{name} underutilized: {u}");
        }
        assert_eq!(r.assignments.len(), 64);
    }

    #[test]
    fn chain_serializes() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        let h = g.register_data("acc", 8.0);
        for i in 0..4 {
            g.submit(
                c,
                format!("t{i}"),
                9.576e9,
                vec![acc(h, AccessMode::ReadWrite)],
                None,
            );
        }
        let r = simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        // Pure chain: 4 s no matter how many cores.
        assert!((r.makespan.seconds() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn heft_prefers_gpu_for_big_compute() {
        let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(
            Codelet::new("dgemm")
                .with_variant(Variant::new("x86"))
                .with_variant(Variant::new("gpu").requiring("Cuda")),
        );
        let a = g.register_data("A", 512e6);
        // Heavy compute: GPU wins even after paying PCIe transfer.
        g.submit(c, "big", 100e9, vec![acc(a, AccessMode::ReadWrite)], None);
        let r = simulate(&g, &machine, &mut HeftScheduler, &SimOptions::default()).unwrap();
        let (_, dev) = r.assignments[0];
        assert_eq!(machine.devices[dev.0].arch, "gpu");
        // Trace has the input transfer, the compute, and the flush-out.
        assert_eq!(r.trace.count(SpanKind::Transfer), 2);
        assert_eq!(r.trace.count(SpanKind::Compute), 1);
        assert!(r.bytes_to_devices > 0.0 && r.bytes_to_host > 0.0);
    }

    #[test]
    fn heft_keeps_tiny_tasks_on_cpu() {
        let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(
            Codelet::new("k")
                .with_variant(Variant::new("x86"))
                .with_variant(Variant::new("gpu").requiring("Cuda")),
        );
        let a = g.register_data("A", 512e6); // large data
        g.submit(c, "tiny", 1e6, vec![acc(a, AccessMode::ReadWrite)], None); // trivial compute
        let r = simulate(&g, &machine, &mut HeftScheduler, &SimOptions::default()).unwrap();
        let (_, dev) = r.assignments[0];
        assert_eq!(machine.devices[dev.0].arch, "x86"); // transfer not worth it
    }

    #[test]
    fn execution_group_restricts_placement() {
        let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(
            Codelet::new("k")
                .with_variant(Variant::new("x86"))
                .with_variant(Variant::new("gpu").requiring("Cuda")),
        );
        let h = g.register_data("d", 8.0);
        g.submit(
            c,
            "gpu-only",
            1.0,
            vec![acc(h, AccessMode::Write)],
            Some("gpus"),
        );
        let r = simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        let (_, dev) = r.assignments[0];
        assert!(machine.devices[dev.0].groups.iter().any(|g| g == "gpus"));
    }

    #[test]
    fn missing_variant_is_error() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("spe-only").with_variant(Variant::new("spe")));
        let h = g.register_data("d", 8.0);
        g.submit(c, "t", 1.0, vec![acc(h, AccessMode::Write)], None);
        let err = simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap_err();
        assert!(matches!(err, RtError::NoEligibleDevice { .. }));
        assert!(err.to_string().contains("spe-only"));
    }

    #[test]
    fn impossible_execution_group_is_error() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        let h = g.register_data("d", 8.0);
        g.submit(
            c,
            "t",
            1.0,
            vec![acc(h, AccessMode::Write)],
            Some("gpus"), // CPU-only machine has no gpus group
        );
        let err = simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap_err();
        assert!(matches!(err, RtError::NoEligibleDevice { .. }));
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        let h = g.register_data("chain", 8.0);
        let h2 = g.register_data("free", 8.0);
        for i in 0..3 {
            g.submit(
                c,
                format!("c{i}"),
                1e9,
                vec![acc(h, AccessMode::ReadWrite)],
                None,
            );
            g.submit(
                c,
                format!("f{i}"),
                1e9,
                vec![acc(h2, AccessMode::Read)],
                None,
            );
        }
        let r = simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        let fastest = machine
            .devices
            .iter()
            .map(|d| d.flops_dp)
            .fold(0.0, f64::max);
        let cp_seconds = g.critical_path_flops() / fastest;
        assert!(r.makespan.seconds() >= cp_seconds - 1e-9);
    }

    #[test]
    fn every_task_scheduled_exactly_once() {
        let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
        let g = independent_graph(37, 1e9);
        let mut sched = RandomScheduler::new(123);
        let r = simulate(&g, &machine, &mut sched, &SimOptions::default()).unwrap();
        assert_eq!(r.assignments.len(), 37);
        let mut tasks: Vec<usize> = r.assignments.iter().map(|(t, _)| t.0).collect();
        tasks.sort_unstable();
        tasks.dedup();
        assert_eq!(tasks.len(), 37);
        assert_eq!(r.trace.count(SpanKind::Compute), 37);
    }

    #[test]
    fn perfmodel_learning() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let g = independent_graph(10, 9.576e9);
        let r = simulate(
            &g,
            &machine,
            &mut EagerScheduler,
            &SimOptions {
                learn_perfmodel: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.perfmodel.is_empty());
        let est = r.perfmodel.estimate("k", "x86", 8.0).unwrap();
        assert!((est.seconds() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flush_can_be_disabled() {
        let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::new();
        let c =
            g.add_codelet(Codelet::new("k").with_variant(Variant::new("gpu").requiring("Cuda")));
        let h = g.register_data("d", 600e6);
        g.submit(c, "t", 1e9, vec![acc(h, AccessMode::Write)], None);
        let with_flush =
            simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        let without = simulate(
            &g,
            &machine,
            &mut EagerScheduler,
            &SimOptions {
                flush_outputs: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with_flush.makespan > without.makespan);
        assert_eq!(without.bytes_to_host, 0.0);
    }

    #[test]
    fn shared_host_bus_serializes_transfers() {
        // Two GPU tasks with large independent inputs: with independent
        // PCIe links they load concurrently; on a shared bus the loads
        // serialize and the makespan grows.
        let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::new();
        let c =
            g.add_codelet(Codelet::new("k").with_variant(Variant::new("gpu").requiring("Cuda")));
        for i in 0..2 {
            let h = g.register_data(format!("blob{i}"), 1.2e9); // 0.2s on PCIe
            g.submit(
                c,
                format!("t{i}"),
                1e9,
                vec![acc(h, AccessMode::ReadWrite)],
                None,
            );
        }
        let independent =
            simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        let shared = simulate(
            &g,
            &machine,
            &mut EagerScheduler,
            &SimOptions {
                shared_host_bus: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            shared.makespan > independent.makespan,
            "shared {} !> independent {}",
            shared.makespan,
            independent.makespan
        );
    }

    /// Single-GPU testbed: placement is forced, pipeline effects isolated.
    fn one_gpu_machine() -> SimMachine {
        SimMachine::from_platform(&synthetic::build_testbed(
            "one-gpu",
            &synthetic::TestbedOptions {
                cpu_cores: 2,
                gpus: vec!["GeForce GTX 480"],
                dedicate_driver_cores: true,
                nvlink_gpus: false,
            },
        ))
    }

    fn gpu_codelet(g: &mut TaskGraph) -> usize {
        g.add_codelet(Codelet::new("k").with_variant(Variant::new("gpu").requiring("Cuda")))
    }

    #[test]
    fn pipeline_moves_transfers_off_the_device_lane() {
        let machine = one_gpu_machine();
        let mut g = TaskGraph::new();
        let c = gpu_codelet(&mut g);
        for i in 0..2 {
            let h = g.register_data(format!("in{i}"), 1.2e9);
            g.submit(
                c,
                format!("t{i}"),
                10e9,
                vec![acc(h, AccessMode::Read)],
                None,
            );
        }
        let legacy = simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        let piped = simulate(
            &g,
            &machine,
            &mut EagerScheduler,
            &SimOptions {
                pipeline: TransferPipeline {
                    link_contention: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // Legacy: transfers on the device lane, nothing on links.
        assert_eq!(legacy.trace.count(SpanKind::Transfer), 2);
        assert!(legacy.link_trace.spans().is_empty());
        // Pipelined: device lane holds compute only; links hold transfers.
        assert_eq!(piped.trace.count(SpanKind::Transfer), 0);
        assert_eq!(piped.link_trace.count(SpanKind::Transfer), 2);
        assert_eq!(piped.link_names.len(), 1); // one PCIe link
                                               // Overlap: the second task's transfer hides under the first's
                                               // compute, so the pipelined makespan is strictly smaller.
        assert!(
            piped.makespan < legacy.makespan,
            "piped {} !< legacy {}",
            piped.makespan,
            legacy.makespan
        );
    }

    #[test]
    fn link_contention_serializes_shared_link() {
        let machine = one_gpu_machine();
        let mut g = TaskGraph::new();
        let c = gpu_codelet(&mut g);
        for i in 0..2 {
            let h = g.register_data(format!("in{i}"), 1.2e9); // 0.2 s each
            g.submit(
                c,
                format!("t{i}"),
                10e9,
                vec![acc(h, AccessMode::Read)],
                None,
            );
        }
        let opts = |contention| SimOptions {
            pipeline: TransferPipeline {
                link_contention: contention,
                prefetch: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let free = simulate(&g, &machine, &mut EagerScheduler, &opts(false)).unwrap();
        let fifo = simulate(&g, &machine, &mut EagerScheduler, &opts(true)).unwrap();
        // Both 0.2 s loads cross the single PCIe link: FIFO occupancy must
        // push the second one out, growing the makespan.
        assert!(
            fifo.makespan > free.makespan,
            "fifo {} !> free {}",
            fifo.makespan,
            free.makespan
        );
        // The two spans on the link do not overlap under contention.
        let spans = fifo.link_trace.spans();
        assert_eq!(spans.len(), 2);
        let (a, b) = (&spans[0], &spans[1]);
        assert!(a.end <= b.start || b.end <= a.start);
    }

    #[test]
    fn prefetch_overlaps_predecessor_compute() {
        let machine = one_gpu_machine();
        let mut g = TaskGraph::new();
        let c = gpu_codelet(&mut g);
        let chain = g.register_data("chain", 8.0);
        let input = g.register_data("input", 600e6); // 0.1 s on PCIe
        g.submit(
            c,
            "producer",
            100e9,
            vec![acc(chain, AccessMode::Write)],
            None,
        );
        g.submit(
            c,
            "consumer",
            1e9,
            vec![acc(chain, AccessMode::Read), acc(input, AccessMode::Read)],
            None,
        );
        let opts = |prefetch| SimOptions {
            flush_outputs: false,
            pipeline: TransferPipeline {
                link_contention: true,
                prefetch,
                ..Default::default()
            },
            ..Default::default()
        };
        let without = simulate(&g, &machine, &mut EagerScheduler, &opts(false)).unwrap();
        let with = simulate(&g, &machine, &mut EagerScheduler, &opts(true)).unwrap();
        // Prefetch starts `input`'s load at t=0, fully hiding it under the
        // producer's ~1 s compute instead of serializing after it.
        let gain = without.makespan.seconds() - with.makespan.seconds();
        assert!((gain - 0.100015).abs() < 1e-6, "gain {gain}");
    }

    #[test]
    fn p2p_pipeline_transfers_over_nvlink() {
        use crate::scheduler::RoundRobinScheduler;
        let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_nvlink_testbed());
        let mut g = TaskGraph::new();
        let c = gpu_codelet(&mut g);
        let h = g.register_data("A", 600e6);
        // Round-robin over the two GPU candidates: producer on gpu0,
        // consumer on gpu1.
        g.submit(c, "produce", 10e9, vec![acc(h, AccessMode::Write)], None);
        g.submit(c, "consume", 10e9, vec![acc(h, AccessMode::Read)], None);
        let opts = |p2p| SimOptions {
            flush_outputs: false,
            pipeline: TransferPipeline {
                peer_to_peer: p2p,
                link_contention: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let staged = simulate(
            &g,
            &machine,
            &mut RoundRobinScheduler::default(),
            &opts(false),
        )
        .unwrap();
        let p2p = simulate(
            &g,
            &machine,
            &mut RoundRobinScheduler::default(),
            &opts(true),
        )
        .unwrap();
        assert_eq!(staged.bytes_peer, 0.0);
        assert_eq!(staged.bytes_to_host, 600e6);
        assert_eq!(p2p.bytes_peer, 600e6);
        assert_eq!(p2p.bytes_to_host, 0.0);
        // NVLink hop (0.024 s) replaces two PCIe hops (0.2 s).
        assert!(
            p2p.makespan < staged.makespan,
            "p2p {} !< staged {}",
            p2p.makespan,
            staged.makespan
        );
        // The NVLink lane carries the peer transfer.
        let nv_link = machine
            .links
            .iter()
            .position(|l| l.name.starts_with("NVLink"))
            .unwrap();
        assert!(p2p
            .link_trace
            .spans()
            .iter()
            .any(|s| s.lane as usize == nv_link));
    }

    #[test]
    fn gantt_renders() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let g = independent_graph(8, 1e9);
        let r = simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        let gantt = r.gantt(40);
        assert!(gantt.contains("cpu0"));
        assert!(gantt.contains('#'));
    }
}
