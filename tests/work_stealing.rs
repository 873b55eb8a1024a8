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
//!   placement for graph execution via `from_graph`;
//! * a task body that panics ends the run with `TaskPanicked` — within a
//!   wall cap, because the engine this replaced hung instead.

#[path = "common/single_queue.rs"]
mod single_queue;

use hetero_rt::prelude::*;
use hetero_rt::thread_engine::ThreadEngineError;
use proptest::prelude::*;
use single_queue::SingleQueueExecutor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
    let order = log.lock().unwrap().clone();
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
            let mut t =
                ThreadTask::new(format!("fork{idx}"), move || log.lock().unwrap().push(idx));
            if let Some(j) = prev_join {
                t = t.after([j]);
            }
            tasks.push(t);
        }
        let log = log.clone();
        let idx = tasks.len();
        tasks.push(
            ThreadTask::new(format!("join{idx}"), move || log.lock().unwrap().push(idx))
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

/// The exact order one worker runs `fork_join_tasks(log, 7, 5)` in: the
/// seeded forks newest first (owner LIFO), each join as the continuation
/// of the fork that readied it last, then the join's first dependent as
/// its continuation and the other six newest first.
#[test]
fn single_worker_order_is_owner_lifo_with_continuations() {
    let order = record_order(1, None, |log| fork_join_tasks(log, 7, 5));
    let expected = [
        6, 5, 4, 3, 2, 1, 0, 7, //
        8, 14, 13, 12, 11, 10, 9, 15, //
        16, 22, 21, 20, 19, 18, 17, 23, //
        24, 30, 29, 28, 27, 26, 25, 31, //
        32, 38, 37, 36, 35, 34, 33, 39,
    ];
    assert_eq!(order, expected);
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
    let mut labels: Vec<&str> = report.tasks.iter().map(|t| &*t.label).collect();
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
            ThreadTask::new(format!("sink{i}"), move || *counter.lock().unwrap() += 1)
                .after([0])
                .in_group("sink"),
        );
    }
    let report = ThreadedExecutor::with_placement(placement)
        .run(tasks)
        .unwrap();
    assert_eq!(*counter.lock().unwrap(), n_sinks);
    assert_eq!(report.tasks.len(), n_sinks + 1);
    assert!(report.total_steals() >= 1, "no task changed hands");
    for w in &report.worker_stats {
        let foreign = report
            .tasks
            .iter()
            .filter(|t| t.worker == w.worker)
            .filter(|t| (&*t.label == "source") != (report.groups[w.group] == "src"))
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
        Box::new(move || *done.lock().unwrap() += 1)
    });
    let n = tasks.len();
    let report = ThreadedExecutor::with_placement(placement)
        .run(tasks)
        .unwrap();
    assert_eq!(*done.lock().unwrap(), n);
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

/// Runs `f` on its own thread and fails the test when it has not returned
/// within `cap`: a hang must be a failure, not a stuck test run.
fn within<T: Send + 'static>(cap: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(cap)
        .unwrap_or_else(|_| panic!("no result within {cap:?}: the pool hung"))
}

/// A five-task chain whose task `boom` panics, on 1 and 4 workers, through
/// `run` and through `run_compiled`: the error names the task, everything
/// before it ran once, nothing after it ran, and the same executor (and the
/// same compiled graph) then completes a clean run.
#[test]
fn panicking_task_cancels_the_run_instead_of_hanging_it() {
    const CHAIN: usize = 5;
    fn body(
        ran: &Arc<Vec<AtomicUsize>>,
        i: usize,
        boom: Option<usize>,
    ) -> Box<dyn FnOnce() + Send> {
        let ran = ran.clone();
        Box::new(move || {
            ran[i].fetch_add(1, Ordering::SeqCst);
            assert!(boom != Some(i), "boom in task {i}");
        })
    }
    let mut chain = TaskGraph::new();
    let codelet = chain.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
    let handle = chain.register_data("acc", 8.0);
    for i in 0..CHAIN {
        let access = DataAccess {
            handle,
            mode: AccessMode::ReadWrite,
        };
        chain.submit(codelet, format!("t{i}"), 1.0, vec![access], None);
    }

    for workers in [1, 4] {
        for boom in [0, 2, CHAIN - 1] {
            for compiled in [false, true] {
                let chain = chain.clone();
                let (first, ran_first, second, ran_second) =
                    within(Duration::from_secs(20), move || {
                        let pool = ThreadedExecutor::new(workers);
                        let graph = pool.compile_graph(&chain).unwrap();
                        let go = |boom: Option<usize>| {
                            let ran: Arc<Vec<AtomicUsize>> =
                                Arc::new((0..CHAIN).map(|_| AtomicUsize::new(0)).collect());
                            let result = if compiled {
                                pool.run_compiled(&graph, |i| body(&ran, i, boom))
                            } else {
                                pool.run(from_graph(&chain, |t| body(&ran, t.id.0, boom)))
                            };
                            let ran: Vec<usize> =
                                ran.iter().map(|r| r.load(Ordering::SeqCst)).collect();
                            (result.map(|report| report.tasks.len()), ran)
                        };
                        let (first, ran_first) = go(Some(boom));
                        let (second, ran_second) = go(None);
                        (first, ran_first, second, ran_second)
                    });
                let case = format!("{workers} workers, boom in {boom}, compiled: {compiled}");
                match first {
                    Err(ThreadEngineError::TaskPanicked { task, message }) => {
                        assert_eq!(task, boom, "{case}");
                        assert!(
                            message.contains(&format!("boom in task {boom}")),
                            "{case}: {message}"
                        );
                    }
                    other => panic!("{case}: expected TaskPanicked, got {other:?}"),
                }
                let expected: Vec<usize> = (0..CHAIN).map(|i| usize::from(i <= boom)).collect();
                assert_eq!(ran_first, expected, "{case}");
                assert_eq!(second, Ok(CHAIN), "{case}: the pool must be reusable");
                assert_eq!(ran_second, vec![1; CHAIN], "{case}");
            }
        }
    }
}

/// The reproducer from the bug report: `a → boom → c` on two workers.
#[test]
fn three_task_reproducer_fails_fast() {
    let started = std::time::Instant::now();
    let result = within(Duration::from_secs(20), || {
        ThreadedExecutor::new(2).run(vec![
            ThreadTask::new("a", || {}),
            ThreadTask::new("boom", || panic!("boom")).after([0]),
            ThreadTask::new("c", || unreachable!("c waits on a task that panicked")).after([1]),
        ])
    });
    assert!(
        matches!(&result, Err(ThreadEngineError::TaskPanicked { task: 1, message }) if message == "boom"),
        "{result:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{:?}",
        started.elapsed()
    );
}

/// `Placement`'s fields are public, so a group can be given zero workers
/// by hand; the executor gives it one, as `with_group` would. With `a`
/// empty, the ready task is seeded to `a`'s workers; with `b` empty, `a`
/// hands its dependent to `b`'s injector. Both runs complete.
#[test]
fn zero_worker_groups_still_run_their_tasks() {
    for (a, b) in [(0, 2), (2, 0)] {
        let report = within(Duration::from_secs(20), move || {
            let mut placement = Placement::new().with_group("a", 1).with_group("b", 1);
            placement.groups[0].workers = a;
            placement.groups[1].workers = b;
            ThreadedExecutor::with_placement(placement).run(vec![
                ThreadTask::new("first", || {}).in_group("a"),
                ThreadTask::new("second", || {}).after([0]).in_group("b"),
            ])
        });
        let report = report.unwrap_or_else(|e| panic!("a: {a}, b: {b}: {e:?}"));
        assert_eq!(report.workers, 3, "a: {a}, b: {b}");
        let executed: usize = report.worker_stats.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 2, "a: {a}, b: {b}");
    }
}

/// The single-queue reference runs every task of a layered DAG and has no
/// steals to report.
#[test]
fn single_queue_baseline_agrees() {
    let counter = Arc::new(AtomicUsize::new(0));
    let tasks: Vec<ThreadTask> = (0..30)
        .map(|i| {
            let c = counter.clone();
            let mut t = ThreadTask::new(format!("t{i}"), move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
            if i >= 10 {
                t = t.after([i - 10]);
            }
            t
        })
        .collect();
    let report = SingleQueueExecutor::new(3).run(tasks).unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), 30);
    assert_eq!(report.tasks.len(), 30);
    assert_eq!(report.total_steals(), 0); // no steal concept
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
                ThreadTask::new(format!("t{i}"), move || log.lock().unwrap().push(i))
                    .after(masked_deps(&masks, i))
            })
            .collect();
        let n = tasks.len();
        let report = ThreadedExecutor::new(workers).run(tasks).unwrap();

        let order = log.lock().unwrap().clone();
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
                    ThreadTask::new(format!("t{i}"), move || log.lock().unwrap().push(i))
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
        prop_assert_eq!(ws_log.lock().unwrap().len(), sq_log.lock().unwrap().len());
        prop_assert_eq!(sq.total_steals(), 0); // the baseline has no steal concept

        // The same DAG as a `TaskGraph` (task `i` writes handle `i` and
        // reads the handle of each dependency), alternating between two
        // placement groups: through `run(from_graph(..))` and through
        // `run_compiled(compile_graph(..))` every task runs once and never
        // before a dependency.
        let mut graph = TaskGraph::new();
        let codelet = graph.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        for i in 0..masks.len() {
            let own = graph.register_data(format!("h{i}"), 8.0);
            let mut accesses = vec![DataAccess { handle: own, mode: AccessMode::Write }];
            accesses.extend(masked_deps(&masks, i).into_iter().map(|d| DataAccess {
                handle: hetero_rt::data::HandleId(d),
                mode: AccessMode::Read,
            }));
            let group = if i % 2 == 0 { "even" } else { "odd" };
            graph.submit(codelet, format!("t{i}"), 1.0, accesses, Some(group));
        }
        let pool = ThreadedExecutor::with_placement(
            Placement::new().with_group("even", workers).with_group("odd", 1),
        );
        for compiled in [false, true] {
            let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
            let body = |i: usize| -> Box<dyn FnOnce() + Send> {
                let log = log.clone();
                Box::new(move || log.lock().unwrap().push(i))
            };
            let report = if compiled {
                pool.run_compiled(&pool.compile_graph(&graph).unwrap(), body)
            } else {
                pool.run(from_graph(&graph, |t| body(t.id.0)))
            }
            .unwrap();
            prop_assert_eq!(report.tasks.len(), masks.len());
            let order = log.lock().unwrap().clone();
            let mut position = vec![usize::MAX; masks.len()];
            for (pos, &task) in order.iter().enumerate() {
                prop_assert_eq!(position[task], usize::MAX, "task {} ran twice", task);
                position[task] = pos;
            }
            for i in 0..masks.len() {
                prop_assert!(position[i] != usize::MAX, "task {} never ran", i);
                for d in masked_deps(&masks, i) {
                    prop_assert!(position[d] < position[i], "task {} ran before {}", i, d);
                }
            }
        }
    }
}
