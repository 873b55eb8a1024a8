//! Integration tests for the work-stealing thread engine:
//!
//! * single-worker runs are deterministic (same graph → same execution
//!   order, twice);
//! * random DAGs (proptest) always complete, run every task exactly once
//!   and never violate a dependency, at any worker count;
//! * steal and placement counters add up: every task is accounted to
//!   exactly one worker, and tasks pinned to a group whose workers did not
//!   ready them must arrive by stealing;
//! * the full PDL wiring: logic groups resolved from a platform description
//!   drive placement, and Cascabel call mappings produce a working
//!   placement for graph execution via `from_graph`.

use hetero_rt::prelude::*;
use hetero_rt::thread_engine::ThreadEngineError;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs `tasks_of(log)` and returns the observed execution order.
fn record_order(
    workers: usize,
    placement: Option<Placement>,
    build: impl Fn(Arc<Mutex<Vec<usize>>>) -> Vec<ThreadTask>,
) -> Vec<usize> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let tasks = build(log.clone());
    let executor = match placement {
        Some(p) => ThreadedExecutor::with_placement(p),
        None => ThreadedExecutor::new(workers),
    };
    executor.run(tasks).unwrap();
    let order = log.lock().clone();
    order
}

/// A fork-join task set: `stages` rounds of `width` forks plus a join.
fn fork_join_tasks(log: Arc<Mutex<Vec<usize>>>, width: usize, stages: usize) -> Vec<ThreadTask> {
    let mut tasks: Vec<ThreadTask> = Vec::new();
    let mut prev_join: Option<usize> = None;
    for _ in 0..stages {
        let first_fork = tasks.len();
        for _ in 0..width {
            let log = log.clone();
            let idx = tasks.len();
            let mut t = ThreadTask::new(format!("fork{idx}"), move || log.lock().push(idx));
            if let Some(j) = prev_join {
                t = t.after([j]);
            }
            tasks.push(t);
        }
        let log = log.clone();
        let idx = tasks.len();
        tasks.push(
            ThreadTask::new(format!("join{idx}"), move || log.lock().push(idx))
                .after(first_fork..first_fork + width),
        );
        prev_join = Some(idx);
    }
    tasks
}

#[test]
fn single_worker_is_deterministic() {
    let build = |log: Arc<Mutex<Vec<usize>>>| fork_join_tasks(log, 7, 5);
    let first = record_order(1, None, build);
    let second = record_order(1, None, build);
    assert_eq!(first.len(), 5 * 8);
    assert_eq!(
        first, second,
        "single-worker execution order must be stable"
    );
}

#[test]
fn report_accounts_every_task_exactly_once() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let tasks = fork_join_tasks(log, 16, 6);
    let n = tasks.len();
    let report = ThreadedExecutor::new(4).run(tasks).unwrap();
    assert_eq!(report.tasks.len(), n);
    let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
    assert_eq!(executed, n, "per-worker executed counters must sum to n");
    // Every label shows up exactly once.
    let mut labels: Vec<&str> = report.tasks.iter().map(|t| t.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), n);
    // Steals can never exceed executions, and cross-group steals are a
    // subset of steals.
    for w in &report.worker_stats {
        assert!(w.steals <= w.executed);
        assert!(w.cross_group_steals <= w.steals);
    }
}

#[test]
fn group_fan_out_forces_steals() {
    // The source is seeded to worker 0 (group "src") and readies every
    // "sink"-pinned task. Either worker 0 runs it and hands all of them to
    // group "sink" through that group's injector, or an idle sink worker
    // took the source from worker 0's deque first; both are steals. How
    // many the engine counts depends on the schedule (an idle group also
    // borrows foreign work), so what holds on every schedule is asserted:
    // a task leaves its group only by a counted cross-group steal.
    let placement = Placement::new().with_group("src", 1).with_group("sink", 2);
    let n_sinks = 24;
    let counter = Arc::new(Mutex::new(0usize));
    let mut tasks = Vec::new();
    tasks.push(ThreadTask::new("source", || {}).in_group("src"));
    for i in 0..n_sinks {
        let counter = counter.clone();
        tasks.push(
            ThreadTask::new(format!("sink{i}"), move || *counter.lock() += 1)
                .after([0])
                .in_group("sink"),
        );
    }
    let report = ThreadedExecutor::with_placement(placement)
        .run(tasks)
        .unwrap();
    assert_eq!(*counter.lock(), n_sinks);
    assert_eq!(report.tasks.len(), n_sinks + 1);
    assert!(report.total_steals() >= 1, "no task changed hands");
    for w in &report.worker_stats {
        let foreign = report
            .tasks
            .iter()
            .filter(|t| t.worker == w.worker)
            .filter(|t| (t.label == "source") != (report.groups[w.group] == "src"))
            .count();
        assert_eq!(
            foreign, w.cross_group_steals,
            "worker {} (group {}) ran {foreign} foreign tasks",
            w.worker, report.groups[w.group]
        );
    }
}

#[test]
fn logic_groups_drive_real_execution() {
    // PDL platform → pdl-query logic groups → Placement → execution.
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    let placement = Placement::from_logic_groups(&platform, &["gpus", "cpus"]).unwrap();
    assert_eq!(placement.groups[0].workers, 2);
    assert_eq!(placement.groups[1].workers, 6);

    let graph = kernels::graphs::fork_join_graph(12, 3, Some("gpus".into()));
    let done = Arc::new(Mutex::new(0usize));
    let tasks = hetero_rt::thread_engine::from_graph(&graph, |_| {
        let done = done.clone();
        Box::new(move || *done.lock() += 1)
    });
    let n = tasks.len();
    let report = ThreadedExecutor::with_placement(placement)
        .run(tasks)
        .unwrap();
    assert_eq!(*done.lock(), n);
    assert_eq!(report.workers, 8);
}

#[test]
fn unknown_group_is_reported_with_task_index() {
    let placement = Placement::new().with_group("cpus", 2);
    let tasks = vec![
        ThreadTask::new("ok", || {}).in_group("cpus"),
        ThreadTask::new("bad", || {}).in_group("dsp"),
    ];
    let err = ThreadedExecutor::with_placement(placement)
        .run(tasks)
        .unwrap_err();
    assert_eq!(
        err,
        ThreadEngineError::UnknownGroup {
            task: 1,
            group: "dsp".into()
        }
    );
}

/// Decodes a random DAG from bit masks: task `i` depends on an earlier task
/// `j` iff bit `i - 1 - j` of `masks[i]` is set (so at most the 64 nearest
/// predecessors can be direct dependencies).
fn masked_deps(masks: &[u64], i: usize) -> Vec<usize> {
    (i.saturating_sub(64)..i)
        .filter(|&j| masks[i] & (1u64 << (i - 1 - j)) != 0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_dags_complete_and_respect_dependencies(
        masks in proptest::collection::vec(any::<u64>(), 1..48),
        workers in 1usize..9,
    ) {
        let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let tasks: Vec<ThreadTask> = masks
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let log = log.clone();
                ThreadTask::new(format!("t{i}"), move || log.lock().push(i))
                    .after(masked_deps(&masks, i))
            })
            .collect();
        let n = tasks.len();
        let report = ThreadedExecutor::new(workers).run(tasks).unwrap();

        let order = log.lock().clone();
        prop_assert_eq!(order.len(), n);
        let mut position = vec![0usize; n];
        for (pos, &task) in order.iter().enumerate() {
            position[task] = pos;
        }
        let mut seen = order.clone();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>()); // each exactly once
        for i in 0..n {
            for d in masked_deps(&masks, i) {
                prop_assert!(
                    position[d] < position[i],
                    "task {} ran before its dependency {}", i, d
                );
            }
        }
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        prop_assert_eq!(executed, n);
    }

    #[test]
    fn random_dags_agree_between_engines(
        masks in proptest::collection::vec(any::<u64>(), 1..32),
        workers in 1usize..5,
    ) {
        // Both engines must run the same task set to completion.
        let make = |log: Arc<Mutex<Vec<usize>>>| -> Vec<ThreadTask> {
            masks
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    let log = log.clone();
                    ThreadTask::new(format!("t{i}"), move || log.lock().push(i))
                        .after(masked_deps(&masks, i))
                })
                .collect()
        };
        let ws_log = Arc::new(Mutex::new(Vec::new()));
        let ws = ThreadedExecutor::new(workers).run(make(ws_log.clone())).unwrap();
        let sq_log = Arc::new(Mutex::new(Vec::new()));
        let sq = SingleQueueExecutor::new(workers).run(make(sq_log.clone())).unwrap();
        prop_assert_eq!(ws.tasks.len(), masks.len());
        prop_assert_eq!(sq.tasks.len(), masks.len());
        prop_assert_eq!(ws_log.lock().len(), sq_log.lock().len());
        prop_assert_eq!(sq.total_steals(), 0); // the baseline has no steal concept
    }
}
