//! Always-on telemetry overhead: the cost of leaving the counters in.
//!
//! Runs the scheduler-bound fork-join workload from `engine_scaling`
//! (near-zero task bodies, so engine overhead dominates) on the
//! work-stealing engine with the trace sink off, comparing
//! `with_telemetry(false)` against the default always-on instruments:
//! per-worker counters flushed at join plus the task-latency histogram,
//! pre-aggregated worker-locally and merged in one batch (reusing the
//! timestamps the engine already takes — zero extra hot-path work).
//!
//! The `off`/`on` pair is the measurement; the layer is designed to stay
//! far under 5 %. That the instruments count every task is asserted by
//! `tests/executor_telemetry.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use hetero_rt::thread_engine::{from_graph, ThreadTask, ThreadedExecutor};
use hetero_trace::TraceSink;
use std::hint::black_box;

/// Tasks per fork stage (matches `engine_scaling`).
const WIDTH: usize = 64;
/// Fork-join rounds (matches `engine_scaling`).
const STAGES: usize = 240;
/// Worker threads.
const WORKERS: usize = 8;

fn fork_join_tasks() -> Vec<ThreadTask> {
    let graph = kernels::graphs::fork_join_graph(WIDTH, STAGES, None);
    from_graph(&graph, |t| {
        let seed = t.id.0 as u64;
        Box::new(move || {
            black_box(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        })
    })
}

fn telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    for (name, telemetry_on) in [("off", false), ("on", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                ThreadedExecutor::new(WORKERS)
                    .with_trace(TraceSink::Null)
                    .with_telemetry(telemetry_on)
                    .run(fork_join_tasks())
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, telemetry_overhead);
criterion_main!(benches);
