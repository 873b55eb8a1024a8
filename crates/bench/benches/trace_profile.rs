//! Profiler, codec and replay-check throughput.
//!
//! Collects one fork-join run's trace from the work-stealing engine,
//! then benchmarks the offline observability pipeline over it:
//! critical-path reconstruction ([`hetero_trace::profile::critical_path`]),
//! folded flamegraph rendering, the trace codec's export/parse pair and
//! the Chrome export. One more row replays a simulated 32 768-tile DGEMM
//! against its graph ([`pdl_analyze::check_trace`]), the size at which a
//! check of every task pair took seconds. These run in CI gates and on
//! operator laptops against multi-megabyte traces, so their cost is worth
//! pinning.

use criterion::{criterion_group, criterion_main, Criterion};
use hetero_rt::thread_engine::{from_graph, ThreadTask, ThreadedExecutor};
use hetero_trace::{chrome, codec, profile, RunTrace, TraceSink};
use std::hint::black_box;

/// Tasks per fork stage.
const WIDTH: usize = 32;
/// Fork-join rounds.
const STAGES: usize = 60;
/// Worker threads.
const WORKERS: usize = 4;

/// One traced run plus its dependency edges in codec orientation.
fn traced_run() -> (RunTrace, Vec<(u32, u32)>) {
    let graph = kernels::graphs::fork_join_graph(WIDTH, STAGES, None);
    let tasks: Vec<ThreadTask> = from_graph(&graph, |t| {
        let seed = t.id.0 as u64;
        Box::new(move || {
            black_box((0..200).fold(seed, |a, b| a.wrapping_mul(31).wrapping_add(b)));
        })
    });
    let deps: Vec<(u32, u32)> = tasks
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.deps.iter().map(move |&d| (d as u32, i as u32)))
        .collect();
    let report = ThreadedExecutor::new(WORKERS)
        .with_trace(TraceSink::ring())
        .run(tasks)
        .expect("workload runs");
    (report.trace.expect("ring sink collects a trace"), deps)
}

/// The HEFT simulation of an 8192² DGEMM in 256² tiles on the two-GPU
/// testbed, bridged to a trace, with the graph it ran.
fn simulated_dgemm() -> (hetero_rt::graph::TaskGraph, RunTrace) {
    use hetero_rt::prelude::*;
    let machine =
        simhw::machine::SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());
    let graph = kernels::graphs::dgemm_graph(8192, 256, None);
    let report = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
        .expect("the testbed runs DGEMM");
    let trace = sim_report_to_trace(&report, &machine);
    (graph, trace)
}

fn trace_profile(c: &mut Criterion) {
    let (trace, deps) = traced_run();
    let exported = codec::export(&trace, &deps);
    println!(
        "\ntrace_profile: {} events, {} dep edges, {} byte export\n",
        trace.total_events(),
        deps.len(),
        exported.len()
    );

    let mut group = c.benchmark_group("trace_profile");
    group.sample_size(20);
    group.bench_function("critical_path", |b| {
        b.iter(|| profile::critical_path(black_box(&trace), black_box(&deps)).unwrap());
    });
    group.bench_function("folded_stacks", |b| {
        b.iter(|| profile::folded_stacks(black_box(&trace)));
    });
    group.bench_function("codec_export", |b| {
        b.iter(|| codec::export(black_box(&trace), black_box(&deps)));
    });
    group.bench_function("codec_parse", |b| {
        b.iter(|| codec::parse(black_box(&exported)).unwrap());
    });
    group.bench_function("chrome_export", |b| {
        b.iter(|| chrome::export(black_box(&trace)));
    });

    let (graph, replayed) = simulated_dgemm();
    assert_eq!(graph.len(), 32_768);
    group.sample_size(10);
    group.bench_function("check_trace_32768", |b| {
        b.iter(|| {
            let report = pdl_analyze::check_trace(black_box(&replayed), black_box(&graph));
            assert!(!report.has_errors(), "{}", report.render());
        });
    });
    group.finish();
}

criterion_group!(benches, trace_profile);
criterion_main!(benches);
