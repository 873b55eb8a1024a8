//! The thread engine's always-on telemetry counts every task it runs.
//!
//! Alone in its file, and so in its own process: the instruments live in
//! the process-global registry, and any other test that runs the engine
//! would move the same counters.

use hetero_rt::thread_engine::{from_graph, ThreadedExecutor};
use hetero_trace::telemetry;

#[test]
fn one_run_moves_the_task_counter_and_the_latency_histogram_by_the_task_count() {
    let graph = kernels::graphs::fork_join_graph(64, 240, None);
    let tasks = from_graph(&graph, |t| {
        let seed = t.id.0 as u64;
        Box::new(move || {
            std::hint::black_box(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        })
    });
    let n = tasks.len() as u64;
    assert_eq!(n, 64 * 240 + 240);

    let counter = telemetry::global().counter("executor_tasks_total");
    let latency = telemetry::global().histogram("executor_task_latency_ns");
    let (counted, observed) = (counter.get(), latency.count());
    ThreadedExecutor::new(8).run(tasks).unwrap();
    assert_eq!(counter.get() - counted, n, "executor_tasks_total");
    assert_eq!(latency.count() - observed, n, "executor_task_latency_ns");
    // What the workers batched locally arrives in the shared histogram whole.
    let snap = latency.snapshot();
    assert_eq!(snap.buckets().map(|(_, c)| c).sum::<u64>(), snap.count());
    assert!(snap.quantile(0.99).unwrap() <= snap.max().unwrap());
}
