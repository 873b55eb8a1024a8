//! `observe_trace`: the offline observability tools (`pdl profile`,
//! `pdl perf-diff`, the CI gates) on traces that are inputs. No engine runs
//! in a pass, so engine work must not move this workload.

use super::predict::{dataflow_dmda_run, dataflow_heft_run, DATAFLOW_TILE};
use super::{pin_of, workers};
use crate::harness::{Ctx, Failed, Workload};
use hetero_rt::prelude::*;
use hetero_trace::{chrome, codec, diff, profile, summary, RunTrace};
use kernels::graphs::fork_join_graph;
use pdl_core::platform::Platform;
use pdl_discover::synthetic::{xeon_2gpu_nvlink_testbed, xeon_2gpu_testbed};
use std::hint::black_box;

const LIVE_WIDTH: usize = 64;
const LIVE_STAGES: usize = 508;
const LIVE_BODY_OPS: u64 = 200;
const LIVE_RING_EVENTS_PER_TASK: usize = 8;
/// `check_trace` compares every pair of tasks: 8.5 s for the 32768 tasks of
/// the dataflow run on the sizing host. The replay checks therefore read the
/// same DGEMM tiled four times coarser (4096 tasks, about 0.1 s).
const REPLAY_TILE: usize = 512;

type Deps = Vec<(u32, u32)>;

pub struct Inputs {
    /// A lossless trace of a real fork-join run on this host, with its
    /// dependency edges.
    live: (RunTrace, Deps),
    /// The bridged virtual-time trace of `predict_dataflow`'s HEFT run.
    heft: RunTrace,
    /// The same run at `REPLAY_TILE`, with the graph the replay check holds
    /// it against.
    replay: (RunTrace, TaskGraph),
    /// The same graph under Dmda with the transfer pipeline on the `NVLink`
    /// testbed (so it has link lanes), with that descriptor.
    dmda: RunTrace,
    nvlink_testbed: Platform,
}

fn live_trace() -> (RunTrace, Deps) {
    let graph = fork_join_graph(LIVE_WIDTH, LIVE_STAGES, None);
    let tasks = from_graph(&graph, |task| {
        let seed = task.id.0 as u64;
        Box::new(move || {
            black_box((0..LIVE_BODY_OPS).fold(seed, |a, b| a.wrapping_mul(31).wrapping_add(b)));
        })
    });
    let deps: Deps = tasks
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.deps.iter().map(move |&d| (d as u32, i as u32)))
        .collect();
    let sink = TraceSink::Ring {
        capacity: LIVE_RING_EVENTS_PER_TASK * graph.len(),
    };
    let report = ThreadedExecutor::new(workers())
        .with_trace(sink)
        .run(tasks)
        .expect("the fork-join graph runs");
    let trace = report.trace.expect("a ring sink collects a trace");
    assert_eq!(trace.overwritten(), 0, "the input trace must be lossless");
    (trace, deps)
}

/// Export, parse back, profile, render and screen one trace.
fn analyze(ctx: &mut Ctx, trace: &RunTrace, deps: &Deps) -> Result<(), Failed> {
    let text = ctx.call("hetero-trace.export", || codec::export(trace, deps));
    ctx.count("hetero-trace.export_bytes", || text.len() as f64);
    let (parsed, parsed_deps) = ctx.try_call("hetero-trace.parse", || codec::parse(&text))?;
    ctx.check(parsed == *trace && parsed_deps == *deps, || {
        "codec::parse(export(trace)) differs from the trace".to_string()
    });
    ctx.count("hetero-trace.events", || parsed.total_events() as f64);

    let path = ctx.try_call("hetero-trace.critical_path", || {
        profile::critical_path(&parsed, &parsed_deps)
    })?;
    let blamed: u64 = path.blame.iter().map(|b| b.ns).sum();
    let error = blamed.abs_diff(path.critical_path_ns());
    ctx.check(error == 0, || {
        format!(
            "blame sums to {blamed} ns on a path of {} ns",
            path.critical_path_ns()
        )
    });
    ctx.count("hetero-trace.blame_sum_error_ns", || error as f64);

    let folded = ctx.call("hetero-trace.folded", || profile::folded_stacks(&parsed));
    let timeline = ctx.call("hetero-trace.chrome", || chrome::export(&parsed));
    let digest = ctx.call("hetero-trace.summary", || {
        summary::export(&parsed, path.critical_path_ns())
    });
    ctx.check(
        !folded.is_empty() && !timeline.is_empty() && !digest.is_empty(),
        || "an exporter produced nothing".to_string(),
    );

    let anomalies = ctx.call("pdl-analyze.anomalies", || {
        pdl_analyze::check_trace_anomalies(&parsed)
    });
    ctx.count("pdl-analyze.diagnostics", || anomalies.len() as f64);
    Ok(())
}

pub struct ObserveTrace;

impl Workload for ObserveTrace {
    type Inputs = Inputs;
    const NAME: &'static str = "observe_trace";
    const UNIT: &'static str = "trace event";

    fn setup(_seed: u64, pins: &mut Vec<String>) -> Inputs {
        let nvlink_testbed = xeon_2gpu_nvlink_testbed();
        pins.extend([pin_of(&xeon_2gpu_testbed()), pin_of(&nvlink_testbed)]);
        let (graph, machine, heft) = dataflow_heft_run(DATAFLOW_TILE);
        let (nvlink_machine, dmda) = dataflow_dmda_run(&graph);
        let (coarse_graph, _, coarse) = dataflow_heft_run(REPLAY_TILE);
        Inputs {
            live: live_trace(),
            heft: sim_report_to_trace(&heft, &machine),
            dmda: sim_report_to_trace(&dmda, &nvlink_machine),
            replay: (sim_report_to_trace(&coarse, &machine), coarse_graph),
            nvlink_testbed,
        }
    }

    fn units(inputs: &Inputs) -> usize {
        inputs.live.0.total_events() + inputs.heft.total_events()
    }

    fn pass(inputs: &Inputs, ctx: &mut Ctx) -> Result<(), Failed> {
        let (live, live_deps) = &inputs.live;
        analyze(ctx, live, live_deps)?;
        analyze(ctx, &inputs.heft, &Deps::new())?;

        let (coarse, coarse_graph) = &inputs.replay;
        let replay = ctx.call("pdl-analyze.check_trace", || {
            let mut report = pdl_analyze::check_trace(coarse, coarse_graph);
            report.merge(pdl_analyze::check_trace_links(
                &inputs.dmda,
                &inputs.nvlink_testbed,
            ));
            report.merge(pdl_analyze::check_trace_utilization(&inputs.heft));
            report
        });
        ctx.check(!replay.has_errors(), || {
            format!("the simulated schedule fails replay:\n{}", replay.render())
        });
        ctx.count("pdl-analyze.diagnostics", || replay.len() as f64);

        let delta = ctx.try_call("hetero-trace.perf_diff", || {
            diff::perf_diff(&inputs.heft, &[], &inputs.dmda, &[])
        })?;
        let by_category: i64 = delta
            .categories
            .iter()
            .map(diff::CategoryDelta::delta_ns)
            .sum();
        ctx.check(by_category == delta.delta_ns(), || {
            format!(
                "perf-diff categories sum to {by_category} ns of a {} ns delta",
                delta.delta_ns()
            )
        });
        Ok(())
    }
}
