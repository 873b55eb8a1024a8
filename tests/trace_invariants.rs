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
//!   with `WorkerStats::busy` (both sides read the same clock).

mod common;

use bench::baseline::SingleQueueExecutor;
use hetero_rt::prelude::*;
use proptest::prelude::*;

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
        for pair in w.events.windows(2) {
            assert!(pair[0].ts <= pair[1].ts);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn traced_random_dags_validate(
        masks in proptest::collection::vec(any::<u64>(), 1..48),
        workers in 1usize..9,
    ) {
        let n = masks.len();
        let report = ThreadedExecutor::new(workers)
            .with_trace(TraceSink::ring())
            .run(dag_tasks(&masks, |_| None))
            .unwrap();
        check_trace(&report, n);
    }

    #[test]
    fn traced_grouped_dags_validate(
        masks in proptest::collection::vec(any::<u64>(), 1..40),
        split in 1usize..4,
    ) {
        // Two placement groups; tasks alternate between them and ungrouped,
        // which exercises injector hand-offs and cross-group steals.
        let n = masks.len();
        let placement = Placement::new().with_group("a", split).with_group("b", 2);
        let report = ThreadedExecutor::with_placement(placement)
            .with_trace(TraceSink::ring())
            .run(dag_tasks(&masks, |i| match i % 3 {
                0 => Some("a"),
                1 => Some("b"),
                _ => None,
            }))
            .unwrap();
        check_trace(&report, n);
        // Cross-group steal provenance is per-span recoverable.
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
