//! Thread-engine scaling: work-stealing vs. the seed single-queue pool.
//!
//! The workload is the scheduler-bound repeated fork-join graph from
//! `kernels::graphs::fork_join_graph` — each stage dumps `WIDTH` trivial
//! tasks into the engine at once, so wall time is dominated by queueing,
//! wake-ups and dependency bookkeeping rather than kernel math. That is
//! exactly where the single shared channel of [`SingleQueueExecutor`] pays
//! a per-task contention/notify cost that the per-worker deques of
//! [`ThreadedExecutor`] avoid.
//!
//! Three groups, each runnable by name: `engine_scaling` (both engines per
//! worker count), `tracing_overhead` (`TraceSink::Null` vs
//! `TraceSink::ring()`) and `million_task_batched` (compile once, then
//! `run_compiled` batches of ≥ 1M tasks with per-task stats off; the
//! harness prints tasks/s).

use bench::baseline::SingleQueueExecutor;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hetero_rt::thread_engine::{from_graph, ThreadTask, ThreadedExecutor};
use hetero_trace::TraceSink;
use std::hint::black_box;

/// Tasks per fork stage.
const WIDTH: usize = 64;
/// Fork-join rounds.
const STAGES: usize = 240;
/// Worker counts compared.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Stages of the million-task batched run; total tasks are
/// `WIDTH * MILLION_STAGES + MILLION_STAGES` ≥ 1M.
const MILLION_STAGES: usize = 15_385;

fn fork_join_tasks() -> Vec<ThreadTask> {
    let graph = kernels::graphs::fork_join_graph(WIDTH, STAGES, None);
    from_graph(&graph, |t| {
        let seed = t.id.0 as u64;
        Box::new(move || {
            // Near-zero work: the bench measures engine overhead.
            black_box(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        })
    })
}

fn engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(10);
    for workers in WORKER_COUNTS {
        group.bench_function(BenchmarkId::new("single_queue", workers), |b| {
            b.iter(|| {
                SingleQueueExecutor::new(workers)
                    .run(fork_join_tasks())
                    .unwrap()
            });
        });
        group.bench_function(BenchmarkId::new("work_stealing", workers), |b| {
            b.iter(|| {
                ThreadedExecutor::new(workers)
                    .run(fork_join_tasks())
                    .unwrap()
            });
        });
    }
    group.finish();

    // Tracing on/off comparison on the same engine and workload: criterion
    // evidence for the zero-overhead-when-disabled design.
    let mut group = c.benchmark_group("tracing_overhead");
    group.sample_size(10);
    group.bench_function("off", |b| {
        b.iter(|| {
            ThreadedExecutor::new(8)
                .with_trace(TraceSink::Null)
                .run(fork_join_tasks())
                .unwrap()
        });
    });
    group.bench_function("on", |b| {
        b.iter(|| {
            ThreadedExecutor::new(8)
                .with_trace(TraceSink::ring())
                .run(fork_join_tasks())
                .unwrap()
        });
    });
    group.finish();

    // Million-task batched submission: the graph structure is compiled
    // once (CSR dependents, pending counts, seed list), then each batch
    // only instantiates fresh counters and closures. Per-task stats are
    // off — at this scale the aggregate counters are the product.
    let tasks = WIDTH * MILLION_STAGES + MILLION_STAGES;
    let mut group = c.benchmark_group("million_task_batched");
    group.sample_size(3);
    group.throughput(Throughput::Elements(tasks as u64));
    group.bench_function("run_compiled_8_workers", |b| {
        let graph = kernels::graphs::fork_join_graph(WIDTH, MILLION_STAGES, None);
        assert_eq!(graph.len(), tasks);
        let pool = ThreadedExecutor::new(8).with_task_stats(false);
        let compiled = pool.compile_graph(&graph).unwrap();
        b.iter(|| {
            let report = pool
                .run_compiled(&compiled, |i| {
                    let seed = i as u64;
                    Box::new(move || {
                        black_box(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    })
                })
                .unwrap();
            let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
            assert_eq!(executed, tasks, "worker counters account for every task");
        });
    });
    group.finish();
}

criterion_group!(benches, engine_scaling);
criterion_main!(benches);
