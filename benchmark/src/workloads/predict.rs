//! `predict_*`: descriptor to virtual-time prediction. Three shapes that load
//! the same two simulation engines in different places: many devices, heavy
//! data, many tiny tasks.

use super::{pin_of, Rng};
use crate::harness::{Ctx, Failed, Workload};
use hetero_rt::prelude::*;
use kernels::dgemm::dgemm_flops;
use kernels::graphs::{dgemm_graph, fork_join_graph};
use pdl_discover::synthetic::{gpgpu_cluster, xeon_2gpu_nvlink_testbed, xeon_2gpu_testbed};
use simhw::{EventQueue, SimMachine, SimTime};
use std::time::Instant;

const DGEMM_N: usize = 8192;

/// What a simulated schedule is held against, worked out from the problem
/// size alone and not from the graph or the engines under test.
pub struct Reference {
    pub tasks: usize,
    pub critical_path_flops: f64,
    pub total_flops: f64,
}

impl Reference {
    /// Tiled DGEMM: `tiles^3` tasks; the longest chain is the `tiles`
    /// accumulations into one tile of C.
    pub fn dgemm(n: usize, tile: usize) -> Self {
        let tiles = n / tile;
        Reference {
            tasks: tiles * tiles * tiles,
            critical_path_flops: tiles as f64 * dgemm_flops(tile),
            total_flops: dgemm_flops(n),
        }
    }

    /// Fork-join: `width` forks and a join per stage at 1000 FLOP each; the
    /// longest chain is one fork and the join of every stage.
    pub fn fork_join(width: usize, stages: usize) -> Self {
        let tasks = stages * (width + 1);
        Reference {
            tasks,
            critical_path_flops: 2.0 * stages as f64 * 1000.0,
            total_flops: tasks as f64 * 1000.0,
        }
    }
}

#[derive(Clone, Copy)]
enum Engine {
    List,
    Dynamic,
}

/// Runs one simulation, checks the schedule against the reference and
/// records its counters.
fn simulate_checked(
    ctx: &mut Ctx,
    engine: Engine,
    graph: &TaskGraph,
    machine: &SimMachine,
    scheduler: &mut dyn Scheduler,
    options: &SimOptions,
    reference: &Reference,
) -> Result<SimReport, Failed> {
    let report = match engine {
        Engine::List => ctx.try_call("hetero-rt.simulate", || {
            simulate(graph, machine, scheduler, options)
        }),
        Engine::Dynamic => ctx.try_call("hetero-rt.simulate_dynamic", || {
            simulate_dynamic(graph, machine, scheduler, options)
        }),
    }?;

    let mut seen = vec![false; reference.tasks];
    let mut once = report.assignments.len() == reference.tasks;
    for (task, _) in &report.assignments {
        once &= task.0 < seen.len() && !std::mem::replace(&mut seen[task.0], true);
    }
    ctx.check(once, || {
        format!("{}: not every task assigned exactly once", report.policy)
    });

    let fastest = machine
        .devices
        .iter()
        .map(|d| d.flops_dp)
        .fold(0.0, f64::max);
    let makespan = report.makespan.seconds();
    let chain_bound = reference.critical_path_flops / fastest;
    let area_bound = reference.total_flops / machine.total_flops_dp();
    ctx.check(
        makespan >= chain_bound * (1.0 - 1e-9) && makespan >= area_bound * (1.0 - 1e-9),
        || {
            format!(
                "{}: makespan {makespan} s below the bounds {chain_bound} s / {area_bound} s",
                report.policy
            )
        },
    );
    ctx.sim_result(
        makespan,
        report.assignments.iter().map(|(t, d)| t.0 ^ (d.0 << 32)),
    );

    ctx.count("hetero-rt.simulations", || 1.0);
    ctx.count(
        match engine {
            Engine::List => "hetero-rt.list_tasks",
            Engine::Dynamic => "hetero-rt.dynamic_tasks",
        },
        || reference.tasks as f64,
    );
    ctx.count("hetero-rt.assignments", || report.assignments.len() as f64);
    ctx.count("hetero-rt.bytes_to_devices", || report.bytes_to_devices);
    ctx.count("hetero-rt.bytes_to_host", || report.bytes_to_host);
    ctx.count("hetero-rt.bytes_peer", || report.bytes_peer);
    ctx.count("simhw.device_busy_share_sum", || {
        let per_device = report.utilization();
        per_device.iter().map(|(_, u)| u).sum::<f64>() / per_device.len() as f64
    });
    ctx.count_max("simhw.link_busy_share_max", || {
        let busiest = report.link_trace.busy_by_device().into_values();
        busiest.map(|d| d.seconds()).fold(0.0, f64::max) / makespan
    });
    Ok(report)
}

fn count_machine(ctx: &mut Ctx, machine: &SimMachine) {
    ctx.count_max("simhw.devices", || machine.len() as f64);
    ctx.count_max("simhw.links", || machine.links.len() as f64);
}

// ---------------------------------------------------------------------------

const MANYCORE_NODES: u32 = 128;
const MANYCORE_GPUS_PER_NODE: u32 = 3;
const MANYCORE_TILE: usize = 1024;

pub struct ManycoreInputs {
    xml: String,
    reference: Reference,
}

/// Cost that grows with the number of processing units: machine
/// construction and per-device scheduler probing. Few tasks on purpose.
pub struct PredictManycore;

impl Workload for PredictManycore {
    type Inputs = ManycoreInputs;
    const NAME: &'static str = "predict_manycore";
    const UNIT: &'static str = "simulated task";

    fn setup(_seed: u64, pins: &mut Vec<String>) -> ManycoreInputs {
        let platform = gpgpu_cluster(MANYCORE_NODES, MANYCORE_GPUS_PER_NODE);
        pins.push(pin_of(&platform));
        ManycoreInputs {
            xml: pdl_xml::to_xml(&platform),
            reference: Reference::dgemm(DGEMM_N, MANYCORE_TILE),
        }
    }

    fn units(inputs: &ManycoreInputs) -> usize {
        3 * inputs.reference.tasks
    }

    fn pass(inputs: &ManycoreInputs, ctx: &mut Ctx) -> Result<(), Failed> {
        let platform = ctx.try_call("pdl-xml.from_xml", || pdl_xml::from_xml(&inputs.xml))?;
        ctx.count("pdl-xml.bytes_in", || inputs.xml.len() as f64);
        let machine = ctx.call("simhw.from_platform", || {
            SimMachine::from_platform(&platform)
        });
        count_machine(ctx, &machine);
        let graph = ctx.call("kernels.dgemm_graph", || {
            dgemm_graph(DGEMM_N, MANYCORE_TILE, None)
        });
        ctx.count("kernels.graph_tasks", || graph.len() as f64);

        let options = SimOptions::default();
        let reference = &inputs.reference;
        let (list, dynamic) = (Engine::List, Engine::Dynamic);
        simulate_checked(
            ctx,
            list,
            &graph,
            &machine,
            &mut HeftScheduler,
            &options,
            reference,
        )?;
        simulate_checked(
            ctx,
            dynamic,
            &graph,
            &machine,
            &mut DmdaScheduler,
            &options,
            reference,
        )?;
        simulate_checked(
            ctx,
            dynamic,
            &graph,
            &machine,
            &mut EagerScheduler,
            &options,
            reference,
        )?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------

pub struct DataflowInputs {
    testbed: SimMachine,
    nvlink_testbed: SimMachine,
    reference: Reference,
}

pub const DATAFLOW_TILE: usize = 256;

/// The HEFT list simulation of the dataflow workload's DGEMM at the given
/// tile size; `observe_trace` analyzes the bridged trace of exactly this run.
pub fn dataflow_heft_run(tile: usize) -> (TaskGraph, SimMachine, SimReport) {
    let machine = SimMachine::from_platform(&xeon_2gpu_testbed());
    let graph = dgemm_graph(DGEMM_N, tile, None);
    let report = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
        .expect("the testbed runs DGEMM");
    (graph, machine, report)
}

/// The same graph under Dmda with the full transfer pipeline on the `NVLink`
/// testbed: the second side of `observe_trace`'s perf-diff.
pub fn dataflow_dmda_run(graph: &TaskGraph) -> (SimMachine, SimReport) {
    let machine = SimMachine::from_platform(&xeon_2gpu_nvlink_testbed());
    let report = simulate_dynamic(graph, &machine, &mut DmdaScheduler, &pipeline_options())
        .expect("the NVLink testbed runs DGEMM");
    (machine, report)
}

fn pipeline_options() -> SimOptions {
    SimOptions {
        pipeline: TransferPipeline::full(),
        ..SimOptions::default()
    }
}

/// Few devices, heavy data: coherence, routing and link timelines dominate.
pub struct PredictDataflow;

impl Workload for PredictDataflow {
    type Inputs = DataflowInputs;
    const NAME: &'static str = "predict_dataflow";
    const UNIT: &'static str = "simulated task";

    fn setup(_seed: u64, pins: &mut Vec<String>) -> DataflowInputs {
        let (testbed, nvlink_testbed) = (xeon_2gpu_testbed(), xeon_2gpu_nvlink_testbed());
        pins.extend([pin_of(&testbed), pin_of(&nvlink_testbed)]);
        DataflowInputs {
            testbed: SimMachine::from_platform(&testbed),
            nvlink_testbed: SimMachine::from_platform(&nvlink_testbed),
            reference: Reference::dgemm(DGEMM_N, DATAFLOW_TILE),
        }
    }

    fn units(inputs: &DataflowInputs) -> usize {
        3 * inputs.reference.tasks
    }

    fn pass(inputs: &DataflowInputs, ctx: &mut Ctx) -> Result<(), Failed> {
        let graph = ctx.call("kernels.dgemm_graph", || {
            dgemm_graph(DGEMM_N, DATAFLOW_TILE, None)
        });
        ctx.count("kernels.graph_tasks", || graph.len() as f64);
        count_machine(ctx, &inputs.nvlink_testbed);

        let (testbed, reference) = (&inputs.testbed, &inputs.reference);
        let (list, dynamic) = (Engine::List, Engine::Dynamic);
        let plain = SimOptions::default();
        let heft = simulate_checked(
            ctx,
            list,
            &graph,
            testbed,
            &mut HeftScheduler,
            &plain,
            reference,
        )?;
        simulate_checked(
            ctx,
            dynamic,
            &graph,
            &inputs.nvlink_testbed,
            &mut DmdaScheduler,
            &pipeline_options(),
            reference,
        )?;
        simulate_checked(
            ctx,
            dynamic,
            &graph,
            testbed,
            &mut HeftScheduler,
            &plain,
            reference,
        )?;
        let trace = ctx.call("hetero-rt.bridge", || sim_report_to_trace(&heft, testbed));
        ctx.check(trace.meta.tasks.len() >= reference.tasks, || {
            "bridged trace lost tasks".to_string()
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------------

const FORKJOIN_WIDTH: usize = 64;
const FORKJOIN_STAGES: usize = 1538;
const HOLD_POPULATION: usize = 100_000;
const HOLD_OPERATIONS: usize = 1_000_000;

pub struct ForkjoinInputs {
    graph: TaskGraph,
    testbed: SimMachine,
    reference: Reference,
    seed: u64,
}

/// Almost no bytes: event queue, ready set and dependency bookkeeping
/// dominate. The graph is an input here; `execute_forkjoin` builds it in the
/// pass, so work moved between the two shows.
pub struct PredictForkjoin;

impl Workload for PredictForkjoin {
    type Inputs = ForkjoinInputs;
    const NAME: &'static str = "predict_forkjoin";
    const UNIT: &'static str = "simulated task";

    fn setup(seed: u64, pins: &mut Vec<String>) -> ForkjoinInputs {
        let testbed = xeon_2gpu_testbed();
        pins.push(pin_of(&testbed));
        ForkjoinInputs {
            graph: fork_join_graph(FORKJOIN_WIDTH, FORKJOIN_STAGES, None),
            testbed: SimMachine::from_platform(&testbed),
            reference: Reference::fork_join(FORKJOIN_WIDTH, FORKJOIN_STAGES),
            seed,
        }
    }

    fn units(inputs: &ForkjoinInputs) -> usize {
        2 * inputs.reference.tasks
    }

    fn pass(inputs: &ForkjoinInputs, ctx: &mut Ctx) -> Result<(), Failed> {
        let (graph, testbed, reference) = (&inputs.graph, &inputs.testbed, &inputs.reference);
        count_machine(ctx, testbed);
        let options = SimOptions {
            flush_outputs: false,
            ..SimOptions::default()
        };
        let dynamic = simulate_checked(
            ctx,
            Engine::Dynamic,
            graph,
            testbed,
            &mut EagerScheduler,
            &options,
            reference,
        )?;
        simulate_checked(
            ctx,
            Engine::List,
            graph,
            testbed,
            &mut EagerScheduler,
            &options,
            reference,
        )?;
        let trace = ctx.call("hetero-rt.bridge", || {
            sim_report_to_trace(&dynamic, testbed)
        });
        ctx.check(trace.meta.tasks.len() >= reference.tasks, || {
            "bridged trace lost tasks".to_string()
        });
        Ok(())
    }

    /// The classic hold model on the calendar queue alone: what the event
    /// queue sustains when nothing else of the simulator runs.
    fn probes(inputs: &ForkjoinInputs, ctx: &mut Ctx) -> Result<(), Failed> {
        let mut rng = Rng::new(inputs.seed);
        let mut step = move || (rng.below(2_000_000) + 1) as f64 * 1e-6;
        let mut queue: EventQueue<u32> = EventQueue::new();
        for i in 0..HOLD_POPULATION {
            queue.schedule(SimTime::new(step()), i as u32);
        }
        let t0 = Instant::now();
        let drained = ctx.call("simhw.hold_model", || {
            for _ in 0..HOLD_OPERATIONS {
                let Some((now, event)) = queue.pop() else {
                    return true;
                };
                queue.schedule(SimTime::new(now.seconds() + step()), event);
            }
            false
        });
        let elapsed = t0.elapsed().as_secs_f64();
        ctx.check(!drained && queue.len() == HOLD_POPULATION, || {
            "hold model lost events".to_string()
        });
        ctx.count("simhw.hold_events_per_s", || {
            HOLD_OPERATIONS as f64 / elapsed
        });
        Ok(())
    }
}
