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
//! Before the criterion benchmarks run, a one-shot summary prints the
//! measured speedup per worker count, the work-stealing observability
//! counters (executed / steals / failed steals / busy) from an 8-worker
//! run, and the tracing overhead (`TraceSink::Null` vs `TraceSink::ring()`)
//! — then writes everything to `BENCH_engine_scaling.json`.

use bench::baseline::SingleQueueExecutor;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetero_rt::thread_engine::{from_graph, ThreadTask, ThreadedExecutor};
use hetero_trace::json::Json;
use hetero_trace::TraceSink;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Tasks per fork stage.
const WIDTH: usize = 64;
/// Fork-join rounds.
const STAGES: usize = 240;
/// Worker counts compared.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Fork width of the million-task batched run.
const MILLION_WIDTH: usize = 64;
/// Stages of the million-task batched run; total tasks are
/// `MILLION_WIDTH * MILLION_STAGES + MILLION_STAGES` ≥ 1M.
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

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn measure(reps: usize, run: impl Fn(Vec<ThreadTask>) -> Duration) -> Duration {
    median((0..reps).map(|_| run(fork_join_tasks())).collect())
}

fn print_summary() {
    println!(
        "\nengine_scaling: fork-join {WIDTH}x{STAGES} ({} tasks), single-queue vs work-stealing",
        WIDTH * STAGES + STAGES
    );
    let mut scaling_rows: Vec<Json> = Vec::new();
    for workers in WORKER_COUNTS {
        let sq = measure(15, |tasks| {
            let t0 = Instant::now();
            SingleQueueExecutor::new(workers).run(tasks).unwrap();
            t0.elapsed()
        });
        let ws = measure(15, |tasks| {
            let t0 = Instant::now();
            ThreadedExecutor::new(workers).run(tasks).unwrap();
            t0.elapsed()
        });
        println!(
            "  {workers} workers: single-queue {sq:>12?}  work-stealing {ws:>12?}  speedup {:.2}x",
            sq.as_secs_f64() / ws.as_secs_f64()
        );
        scaling_rows.push(Json::obj([
            ("workers", Json::Num(workers as f64)),
            ("single_queue_ns", Json::Num(sq.as_nanos() as f64)),
            ("work_stealing_ns", Json::Num(ws.as_nanos() as f64)),
            ("speedup", Json::Num(sq.as_secs_f64() / ws.as_secs_f64())),
        ]));
    }

    let report = ThreadedExecutor::new(8).run(fork_join_tasks()).unwrap();
    println!(
        "  counters @8 workers: executed {}  steals {} (cross-group {})  failed steals {}  busy {:?}",
        report.tasks.len(),
        report.total_steals(),
        report.total_cross_group_steals(),
        report.total_failed_steals(),
        report.total_busy(),
    );

    // Tracing overhead: the same engine/workload with the null sink vs a
    // full ring collection — the zero-overhead-when-off claim, measured.
    let off = measure(15, |tasks| {
        let t0 = Instant::now();
        ThreadedExecutor::new(8)
            .with_trace(TraceSink::Null)
            .run(tasks)
            .unwrap();
        t0.elapsed()
    });
    let on = measure(15, |tasks| {
        let t0 = Instant::now();
        ThreadedExecutor::new(8)
            .with_trace(TraceSink::ring())
            .run(tasks)
            .unwrap();
        t0.elapsed()
    });
    let overhead_pct = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
    println!("  tracing overhead @8 workers: off {off:>12?}  on {on:>12?}  ({overhead_pct:+.1}%)");

    // Million-task batched submission: the graph structure is compiled
    // once (CSR dependents, pending counts, seed list), then each batch
    // only instantiates fresh counters and closures. Per-task stats are
    // off — at this scale the aggregate counters are the product.
    let graph = kernels::graphs::fork_join_graph(MILLION_WIDTH, MILLION_STAGES, None);
    let million_tasks = graph.len();
    let pool = ThreadedExecutor::new(8).with_task_stats(false);
    let t0 = Instant::now();
    let compiled = pool.compile_graph(&graph).unwrap();
    let compile_wall = t0.elapsed();
    let batch = || {
        let t0 = Instant::now();
        let report = pool
            .run_compiled(&compiled, |i| {
                let seed = i as u64;
                Box::new(move || {
                    black_box(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                })
            })
            .unwrap();
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        assert_eq!(executed, million_tasks, "all tasks executed");
        t0.elapsed()
    };
    let batch_wall = median((0..3).map(|_| batch()).collect());
    let tasks_per_sec = million_tasks as f64 / batch_wall.as_secs_f64();
    println!(
        "  batched @8 workers: {million_tasks} tasks, compile {compile_wall:?}, batch {batch_wall:?} ({:.2}M tasks/s)",
        tasks_per_sec / 1e6
    );
    println!();

    let doc = Json::obj([
        (
            "schema",
            Json::Num(hetero_trace::summary::SCHEMA_VERSION as f64),
        ),
        ("kind", Json::str("engine-scaling")),
        (
            "workload",
            Json::obj([
                ("shape", Json::str("fork-join")),
                ("width", Json::Num(WIDTH as f64)),
                ("stages", Json::Num(STAGES as f64)),
                ("tasks", Json::Num((WIDTH * STAGES + STAGES) as f64)),
            ]),
        ),
        ("scaling", Json::Arr(scaling_rows)),
        (
            "counters_8_workers",
            Json::obj([
                ("executed", Json::Num(report.tasks.len() as f64)),
                ("steals", Json::Num(report.total_steals() as f64)),
                (
                    "cross_group_steals",
                    Json::Num(report.total_cross_group_steals() as f64),
                ),
                (
                    "failed_steals",
                    Json::Num(report.total_failed_steals() as f64),
                ),
                ("busy_ns", Json::Num(report.total_busy().as_nanos() as f64)),
                ("busy_fraction", Json::Num(report.busy_fraction())),
            ]),
        ),
        (
            "tracing_overhead",
            Json::obj([
                ("off_ns", Json::Num(off.as_nanos() as f64)),
                ("on_ns", Json::Num(on.as_nanos() as f64)),
                ("overhead_pct", Json::Num(overhead_pct)),
            ]),
        ),
        (
            "million_task_batched",
            Json::obj([
                ("tasks", Json::Num(million_tasks as f64)),
                ("workers", Json::Num(8.0)),
                ("compile_ns", Json::Num(compile_wall.as_nanos() as f64)),
                ("batch_ns", Json::Num(batch_wall.as_nanos() as f64)),
                ("tasks_per_sec", Json::Num(tasks_per_sec)),
            ]),
        ),
    ]);
    // Cargo runs bench binaries with the package directory as cwd; CI sets
    // BENCH_OUT_DIR to collect the JSON from a known place.
    let dir = std::path::PathBuf::from(std::env::var("BENCH_OUT_DIR").unwrap_or_default());
    if !dir.as_os_str().is_empty() {
        let _ = std::fs::create_dir_all(&dir);
    }
    let out = dir.join("BENCH_engine_scaling.json");
    match std::fs::write(&out, doc.to_pretty()) {
        Ok(()) => println!("  wrote {}\n", out.display()),
        Err(e) => println!("  could not write {}: {e}\n", out.display()),
    }
}

fn engine_scaling(c: &mut Criterion) {
    print_summary();

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
}

criterion_group!(benches, engine_scaling);
criterion_main!(benches);
