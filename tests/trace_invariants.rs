//! Property tests for the hetero-trace event collection: whatever random
//! DAG the engines execute, the drained trace must satisfy the structural
//! invariants and reconcile with the engine's own counters.
//!
//! Checked per random (DAG, worker count, placement) sample:
//!
//! * `RunTrace::validate` passes — lossless rings, per-lane monotonic
//!   timestamps, exactly one start/end pair per task, properly nested
//!   spans, balanced phases;
//! * trace steal events equal `ExecReport::total_steals()` and the
//!   cross-group subset equals `ExecReport::total_cross_group_steals()`;
//! * every task became ready exactly once, and busy time per worker agrees
//!   with `WorkerStats::busy` (both sides read the same clock);
//! * the thread engine's stamp rules (`check_stamps`): which clock reading
//!   each event carries, through `run` and through `run_compiled`.

mod common;
#[path = "common/single_queue.rs"]
mod single_queue;

use hetero_rt::prelude::*;
use hetero_trace::{EventKind, Provenance};
use proptest::prelude::*;
use single_queue::SingleQueueExecutor;

/// Dependency mask decoding shared with `tests/work_stealing.rs`: task `i`
/// may depend on any of the 64 preceding tasks.
fn masked_deps(masks: &[u64], i: usize) -> Vec<usize> {
    (i.saturating_sub(64)..i)
        .filter(|&j| masks[i] & (1u64 << (i - 1 - j)) != 0)
        .collect()
}

fn dag_tasks(masks: &[u64], group_of: impl Fn(usize) -> Option<&'static str>) -> Vec<ThreadTask> {
    masks
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let mut t = ThreadTask::new(format!("t{i}"), move || {
                std::hint::black_box(i.wrapping_mul(0x9e37));
            })
            .after(masked_deps(masks, i));
            if let Some(g) = group_of(i) {
                t = t.in_group(g);
            }
            t
        })
        .collect()
}

/// Asserts the invariants shared by every traced run.
fn check_trace(report: &ExecReport, n: usize) {
    let trace = report.trace.as_ref().expect("ring sink collects a trace");
    let stats = trace
        .validate()
        .unwrap_or_else(|e| panic!("trace invariant broken: {e}"));
    assert_eq!(stats.tasks, n, "one start/end pair per task");
    assert_eq!(stats.readies, n as u64, "each task readied exactly once");
    assert_eq!(stats.dequeues, n as u64, "each task dequeued exactly once");
    assert_eq!(
        stats.steals,
        report.total_steals() as u64,
        "steal events match report counter"
    );
    assert_eq!(
        stats.cross_group_steals,
        report.total_cross_group_steals() as u64,
        "cross-group steal events match report counter"
    );
    // Per-worker busy time from trace spans equals the engine's own stats
    // exactly: both are computed from the same clock readings.
    for ws in &report.worker_stats {
        let from_trace = stats.busy_ns.get(ws.worker).copied().unwrap_or(0);
        assert_eq!(
            from_trace,
            ws.busy.as_nanos() as u64,
            "worker {} busy mismatch",
            ws.worker
        );
    }
    // Timestamps are monotonic per worker lane (validate() enforces it, but
    // assert the raw ordering too so a validate() regression is caught).
    for w in &trace.workers {
        let ts: Vec<u64> = w.events.iter().map(|e| e.ts).collect();
        assert!(ts.is_sorted(), "worker {} lane goes backwards", w.worker);
    }
}

/// The same DAG as a `TaskGraph`: task `i` writes handle `i` and reads the
/// handle of each dependency.
fn dag_graph(masks: &[u64], group_of: impl Fn(usize) -> Option<&'static str>) -> TaskGraph {
    let mut graph = TaskGraph::new();
    let codelet = graph.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
    for i in 0..masks.len() {
        let own = graph.register_data(format!("h{i}"), 8.0);
        let mut accesses = vec![DataAccess {
            handle: own,
            mode: AccessMode::Write,
        }];
        accesses.extend(masked_deps(masks, i).into_iter().map(|d| DataAccess {
            handle: HandleId(d),
            mode: AccessMode::Read,
        }));
        graph.submit(codelet, format!("t{i}"), 1.0, accesses, group_of(i));
    }
    graph
}

/// Runs the DAG traced on `pool`, through `run` and through `run_compiled`,
/// and checks both reports.
fn check_both_paths(
    pool: &ThreadedExecutor,
    masks: &[u64],
    group_of: impl Fn(usize) -> Option<&'static str> + Copy,
) -> [ExecReport; 2] {
    let pool = pool.clone().with_trace(TraceSink::ring());
    let graph = dag_graph(masks, group_of);
    let placed = pool.compile_graph(&graph).unwrap();
    let reports = [
        pool.run(dag_tasks(masks, group_of)).unwrap(),
        pool.run_compiled(&placed, |i| {
            Box::new(move || {
                std::hint::black_box(i.wrapping_mul(0x9e37));
            })
        })
        .unwrap(),
    ];
    for report in &reports {
        check_trace(report, masks.len());
        check_stamps(report, masks);
    }
    reports
}

/// The thread engine's stamp rules, as invariants of its traces:
///
/// * per task `ready ≤ dequeue == start ≤ end`: the claim carries the
///   reading the start takes anyway;
/// * every seed on the prelude carries one reading;
/// * a `TaskReady` on a worker lane follows the `TaskEnd` of one of the
///   task's dependencies (the completion that released it) and is no
///   earlier than the end of *every* dependency;
/// * a completion reads the clock once for its releases: a `TaskReady` that
///   is not the first after its `TaskEnd` repeats the timestamp before it —
///   unless the task had other dependencies, whose ends a reading taken
///   before its release might precede.
fn check_stamps(report: &ExecReport, masks: &[u64]) {
    let trace = report.trace.as_ref().expect("ring sink collects a trace");
    let n = masks.len();
    let (mut ready, mut dequeue) = (vec![None; n], vec![None; n]);
    let (mut start, mut end) = (vec![None; n], vec![None; n]);

    let seeds: Vec<u64> = trace
        .prelude
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskReady { task } => {
                ready[task as usize] = Some(e.ts);
                Some(e.ts)
            }
            _ => None,
        })
        .collect();
    assert!(!seeds.is_empty(), "a DAG has a source");
    assert!(
        seeds.iter().all(|ts| *ts == seeds[0]),
        "seeds share one reading: {seeds:?}"
    );

    // Worker-lane readies, with what the lane says about each: the task
    // whose end came before it, and the ready just before it if that one
    // followed the same end.
    let mut released: Vec<(usize, u64, usize, Option<u64>)> = Vec::new();
    for w in &trace.workers {
        let mut last_end: Option<usize> = None;
        let mut earlier: Option<u64> = None;
        for e in w.events.iter() {
            match e.kind {
                EventKind::TaskReady { task } => {
                    let by = last_end.expect("a lane readies a task only after ending one");
                    released.push((task as usize, e.ts, by, earlier));
                    ready[task as usize] = Some(e.ts);
                    earlier = Some(e.ts);
                }
                EventKind::TaskDequeued { task, .. } => dequeue[task as usize] = Some(e.ts),
                EventKind::TaskStart { task } => start[task as usize] = Some(e.ts),
                EventKind::TaskEnd { task } => {
                    end[task as usize] = Some(e.ts);
                    last_end = Some(task as usize);
                    earlier = None;
                }
                _ => {}
            }
        }
    }

    for task in 0..n {
        let stamps = (ready[task], dequeue[task], start[task], end[task]);
        let (Some(ready), Some(dequeue), Some(start), Some(end)) = stamps else {
            panic!("task {task} lacks an event: {stamps:?}");
        };
        assert!(ready <= dequeue, "task {task} claimed before it was ready");
        assert_eq!(
            dequeue, start,
            "task {task}: the claim shares the start's reading"
        );
        assert!(start <= end, "task {task} ends before it starts");
    }
    for (task, ts, by, earlier) in released {
        let deps = masked_deps(masks, task);
        assert!(
            deps.contains(&by),
            "task {task} readied after task {by}, not a dependency"
        );
        for d in &deps {
            assert!(
                end[*d] <= Some(ts),
                "task {task} ready before dependency {d} ended"
            );
        }
        if let (Some(earlier), [_only]) = (earlier, deps.as_slice()) {
            assert_eq!(
                ts, earlier,
                "task {task}: one reading per releasing completion"
            );
        }
    }
}

/// On a fork-join graph every dependent a completion releases after its
/// first waited on that completion alone, so each completion's readies
/// carry exactly one reading — at any worker count, on both paths.
#[test]
fn fork_join_completions_read_the_clock_once() {
    const WIDTH: usize = 8;
    // Per stage WIDTH forks, each after the previous join, then their join.
    let masks: Vec<u64> = (0..6 * (WIDTH + 1))
        .map(|i| match (i / (WIDTH + 1), i % (WIDTH + 1)) {
            (0, fork) if fork < WIDTH => 0,
            (_, fork) if fork < WIDTH => 1 << fork,
            _ => (1 << WIDTH) - 1,
        })
        .collect();
    for workers in 1..=4 {
        for report in check_both_paths(&ThreadedExecutor::new(workers), &masks, |_| None) {
            for w in &report.trace.as_ref().unwrap().workers {
                let mut since_end: Option<u64> = None;
                for e in w.events.iter() {
                    match e.kind {
                        EventKind::TaskEnd { .. } => since_end = None,
                        EventKind::TaskReady { .. } => {
                            assert_eq!(*since_end.get_or_insert(e.ts), e.ts);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

/// Every task the single-queue reference runs arrives from its one queue.
#[test]
fn traced_single_queue_uses_queue_provenance() {
    let tasks: Vec<ThreadTask> = (0..12)
        .map(|i| ThreadTask::new(format!("t{i}"), || {}))
        .collect();
    let report = SingleQueueExecutor::new(3)
        .with_trace(TraceSink::ring())
        .run(tasks)
        .unwrap();
    let trace = report.trace.as_ref().expect("trace collected");
    trace.validate().expect("invariants hold");
    for span in trace.task_spans() {
        assert_eq!(span.provenance, Some(Provenance::Queue));
    }
}

/// The event engine's bridged trace at scale: an Eager run of a 13 000-task
/// fork-join on the paper's testbed assigns every task exactly once, and
/// its trace validates and carries no A-series finding.
#[test]
fn bridged_dynamic_fork_join_validates_clean() {
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    let machine = simhw::machine::SimMachine::from_platform(&platform);
    let graph = kernels::graphs::fork_join_graph(64, 200, None);
    assert_eq!(graph.len(), 13_000);
    let options = SimOptions {
        flush_outputs: false,
        ..SimOptions::default()
    };
    let report = simulate_dynamic(&graph, &machine, &mut EagerScheduler, &options)
        .expect("the testbed runs a fork-join");
    let mut assigned = vec![0u32; graph.len()];
    for (task, _) in &report.assignments {
        assigned[task.0] += 1;
    }
    assert!(
        assigned.iter().all(|&n| n == 1),
        "every task assigned exactly once"
    );
    let trace = sim_report_to_trace(&report, &machine);
    trace
        .validate()
        .unwrap_or_else(|e| panic!("bridged trace invariant broken: {e}"));
    let anomalies = pdl_analyze::check_trace_anomalies(&trace);
    assert!(anomalies.is_empty(), "{}", anomalies.render());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traced_random_dags_validate(
        masks in proptest::collection::vec(any::<u64>(), 1..48),
        thin in 0u32..4,
        workers in 1usize..9,
    ) {
        // Thinned masks leave tasks with a single dependency, the ones a
        // completion's shared reading is for.
        let masks: Vec<u64> = masks
            .iter()
            .map(|m| (0..thin).fold(*m, |m, k| m & m.rotate_left(7 + 6 * k)))
            .collect();
        check_both_paths(&ThreadedExecutor::new(workers), &masks, |_| None);
    }

    #[test]
    fn traced_grouped_dags_validate(
        masks in proptest::collection::vec(any::<u64>(), 1..40),
        split in 1usize..4,
    ) {
        // Two placement groups; tasks alternate between them and ungrouped,
        // which exercises injector hand-offs and cross-group steals.
        let placement = Placement::new().with_group("a", split).with_group("b", 2);
        let pool = ThreadedExecutor::with_placement(placement);
        let reports = check_both_paths(&pool, &masks, |i| match i % 3 {
            0 => Some("a"),
            1 => Some("b"),
            _ => None,
        });
        // Cross-group steal provenance is per-span recoverable.
        for report in &reports {
            let trace = report.trace.as_ref().unwrap();
            let cross = trace
                .task_spans()
                .iter()
                .filter(|s| {
                    s.provenance
                        .as_ref()
                        .is_some_and(hetero_trace::Provenance::is_cross_group)
                })
                .count();
            prop_assert_eq!(cross, report.total_cross_group_steals());
        }
    }

    #[test]
    fn traced_single_queue_validates(
        masks in proptest::collection::vec(any::<u64>(), 1..32),
        workers in 1usize..5,
    ) {
        let n = masks.len();
        let report = SingleQueueExecutor::new(workers)
            .with_trace(TraceSink::ring())
            .run(dag_tasks(&masks, |_| None))
            .unwrap();
        check_trace(&report, n);
    }

    /// The codec is lossless even on *lossy* traces: whatever spans, ring
    /// overflow counts, and dependency edges a trace carries, export →
    /// parse must reproduce the trace verbatim — including each worker's
    /// `overwritten` tally (the analyzer's `A005` input) and every dep
    /// edge (the profiler's critical-path input).
    #[test]
    fn codec_round_trips_lossy_traces_and_deps(
        worker_spans in proptest::collection::vec(
            (0u64..1000, proptest::collection::vec((1u64..50, 1u64..50), 0..6)),
            1..4,
        ),
        dep_seeds in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8),
    ) {
        use hetero_trace::codec;

        let (trace, deps) = common::span_trace(&worker_spans, &dep_seeds);

        let exported = codec::export(&trace, &deps);
        let (parsed, parsed_deps) = codec::parse(&exported)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}"));
        prop_assert_eq!(&parsed, &trace, "trace must survive the codec verbatim");
        prop_assert_eq!(parsed_deps, deps, "dep edges must survive the codec");
        for (orig, back) in trace.workers.iter().zip(&parsed.workers) {
            prop_assert_eq!(orig.overwritten, back.overwritten);
        }
    }
}
