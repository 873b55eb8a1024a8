//! The thread engine's always-on telemetry counts every task it runs, and
//! `with_telemetry(false)` counts none.
//!
//! Alone in its file, and so in its own process: the instruments live in
//! the process-global registry, and any other test that runs the engine
//! would move the same counters. For the same reason both runs are one
//! `#[test]`.

use hetero_rt::thread_engine::{from_graph, ThreadedExecutor};
use hetero_trace::telemetry;

#[test]
fn one_run_moves_the_task_counter_and_the_latency_histogram_by_the_task_count() {
    let graph = kernels::graphs::fork_join_graph(64, 240, None);
    let tasks = || {
        from_graph(&graph, |t| {
            let seed = t.id.0 as u64;
            Box::new(move || {
                std::hint::black_box(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            })
        })
    };
    let n = graph.len() as u64;
    assert_eq!(n, 64 * 240 + 240);

    let counter = telemetry::global().counter("executor_tasks_total");
    let latency = telemetry::global().histogram("executor_task_latency_ns");
    let (counted, observed) = (counter.get(), latency.count());
    ThreadedExecutor::new(8).run(tasks()).unwrap();
    assert_eq!(counter.get() - counted, n, "executor_tasks_total");
    assert_eq!(latency.count() - observed, n, "executor_task_latency_ns");
    // What the workers batched locally arrives in the shared histogram whole.
    let snap = latency.snapshot();
    assert_eq!(snap.buckets().map(|(_, c)| c).sum::<u64>(), snap.count());
    assert!(snap.quantile(0.99).unwrap() <= snap.max().unwrap());

    // The off switch: the same graph again moves neither instrument.
    let (counted, observed) = (counter.get(), latency.count());
    let report = ThreadedExecutor::new(8)
        .with_telemetry(false)
        .run(tasks())
        .unwrap();
    assert_eq!(report.tasks.len() as u64, n, "the run itself is complete");
    assert_eq!(
        counter.get(),
        counted,
        "executor_tasks_total with telemetry off"
    );
    assert_eq!(
        latency.count(),
        observed,
        "executor_task_latency_ns with telemetry off"
    );
}
