//! Critical-path profiler contract tests.
//!
//! Deterministic half: a hand-built trace with a **known injected
//! critical path** (CPU stage → interconnect transfer → GPU kernel, with
//! deliberate scheduler and queue-wait gaps) must be recovered *exactly*
//! — the chain, every blame category's nanosecond count, and the what-if
//! estimates. Property half: whatever random DAG the work-stealing
//! engine executes, the profiler's structural invariant holds — the
//! steps tile `[start_ns, makespan_ns]` contiguously and blame sums to
//! 100% of the critical path — and the profile survives a codec
//! round-trip unchanged.

use hetero_rt::prelude::*;
use hetero_trace::profile::{critical_path, folded_stacks, Profile};
use hetero_trace::{
    codec, EventKind, LaneLabel, RunTrace, TaskInfo, TraceEvent, TraceMeta, WorkerTrace,
};
use proptest::prelude::*;

fn ev(ts: u64, kind: EventKind) -> TraceEvent {
    TraceEvent { ts, kind }
}

fn lane(worker: usize, events: Vec<TraceEvent>) -> WorkerTrace {
    WorkerTrace {
        worker,
        events: events.into(),
        overwritten: 0,
    }
}

fn task<'a>(label: &'a str, category: &'a str) -> TaskInfo<'a> {
    TaskInfo {
        label,
        category,
        group: None,
    }
}

/// A three-stage offload with a fully known timeline:
///
/// ```text
/// cpu0  (cpus)   load   [  0, 100]
/// link  (links)  copy   [100, 160]          <- depends on load
/// gpu0  (gpus)   kernel [180, 400]          <- depends on copy
///                        ^ ready at 170: 160..170 scheduler,
///                          170..180 queue-wait/gpus
/// ```
fn injected_trace() -> (RunTrace, Vec<(u32, u32)>) {
    let trace = RunTrace {
        meta: TraceMeta {
            platform: Some("offload-testbed".to_string()),
            lanes: vec![
                LaneLabel {
                    name: "cpu0".to_string(),
                    group: Some("cpus".to_string()),
                },
                LaneLabel {
                    name: "gpu0".to_string(),
                    group: Some("gpus".to_string()),
                },
                LaneLabel {
                    name: "PCIe:host-gpu0".to_string(),
                    group: Some("links".to_string()),
                },
            ],
            tasks: [
                task("load", "task"),
                task("copy", "transfer"),
                task("kernel", "task"),
            ]
            .into_iter()
            .collect(),
            time_unit: Default::default(),
        },
        prelude: vec![ev(0, EventKind::TaskReady { task: 0 })].into(),
        workers: vec![
            lane(
                0,
                vec![ev(
                    0,
                    EventKind::TaskRun {
                        task: 0,
                        end: 100,
                        provenance: None,
                    },
                )],
            ),
            lane(
                1,
                vec![
                    ev(170, EventKind::TaskReady { task: 2 }),
                    ev(
                        180,
                        EventKind::TaskRun {
                            task: 2,
                            end: 400,
                            provenance: None,
                        },
                    ),
                ],
            ),
            lane(
                2,
                vec![ev(
                    100,
                    EventKind::TaskRun {
                        task: 1,
                        end: 160,
                        provenance: None,
                    },
                )],
            ),
        ],
    };
    (trace, vec![(0, 1), (1, 2)])
}

fn blame_ns(p: &Profile, category: &str) -> Option<u64> {
    p.blame
        .iter()
        .find(|b| b.category == category)
        .map(|b| b.ns)
}

/// The structural invariant every profile must satisfy, whatever the
/// trace: steps tile the chain contiguously and blame accounts for every
/// nanosecond of it.
fn assert_profile_invariants(p: &Profile) {
    assert!(!p.steps.is_empty(), "profile has steps");
    assert_eq!(p.steps.first().unwrap().start, p.start_ns);
    assert_eq!(p.steps.last().unwrap().end, p.makespan_ns);
    for w in p.steps.windows(2) {
        assert_eq!(w[0].end, w[1].start, "steps tile without gaps/overlaps");
    }
    let blamed: u64 = p.blame.iter().map(|b| b.ns).sum();
    assert_eq!(blamed, p.critical_path_ns(), "blame sums to 100%");
    let shares: f64 = p.blame.iter().map(|b| b.share).sum();
    assert!(
        p.critical_path_ns() == 0 || (shares - 1.0).abs() < 1e-9,
        "shares sum to 1.0 (got {shares})"
    );
}

#[test]
fn injected_critical_path_is_recovered_exactly() {
    let (trace, deps) = injected_trace();
    let p = critical_path(&trace, &deps).unwrap();

    assert_eq!(p.start_ns, 0);
    assert_eq!(p.makespan_ns, 400);
    assert_eq!(p.critical_path_ns(), 400);
    assert_profile_invariants(&p);

    // The chain is exactly the injected one, in execution order.
    assert_eq!(p.chain_tasks(), ["load", "copy", "kernel"]);

    // Every nanosecond lands in the expected category.
    assert_eq!(blame_ns(&p, "compute/cpus"), Some(100));
    assert_eq!(blame_ns(&p, "transfer/PCIe:host-gpu0"), Some(60));
    assert_eq!(blame_ns(&p, "scheduler"), Some(10));
    assert_eq!(blame_ns(&p, "queue-wait/gpus"), Some(10));
    assert_eq!(blame_ns(&p, "compute/gpus"), Some(220));
    assert_eq!(p.blame.len(), 5, "no stray categories");

    // What-ifs replay the chain against edited costs.
    let gpu = p
        .what_ifs
        .iter()
        .find(|w| w.description == "group gpus compute 2x faster")
        .expect("gpu compute what-if");
    assert_eq!(gpu.saving_ns, 110);
    assert_eq!(gpu.estimated_makespan_ns, 290);
    let link = p
        .what_ifs
        .iter()
        .find(|w| w.description == "link PCIe:host-gpu0 2x faster")
        .expect("link what-if");
    assert_eq!(link.saving_ns, 30);
}

#[test]
fn park_on_the_chain_is_blamed_as_imbalance() {
    let (mut trace, deps) = injected_trace();
    // The GPU lane parks 160..175 while its task's inputs are ready from
    // 170: scheduler 160..170, park 170..175, queue-wait 175..180.
    let parked = [ev(160, EventKind::Park), ev(175, EventKind::Unpark)];
    trace.workers[1].events = parked
        .into_iter()
        .chain(trace.workers[1].events.iter())
        .collect();
    let p = critical_path(&trace, &deps).unwrap();
    assert_profile_invariants(&p);
    assert_eq!(blame_ns(&p, "scheduler"), Some(10));
    assert_eq!(blame_ns(&p, "park/gpus"), Some(5));
    assert_eq!(blame_ns(&p, "queue-wait/gpus"), Some(5));
}

#[test]
fn profile_survives_codec_round_trip() {
    let (trace, deps) = injected_trace();
    let direct = critical_path(&trace, &deps).unwrap();
    let (parsed, parsed_deps) = codec::parse(&codec::export(&trace, &deps)).unwrap();
    assert_eq!(parsed_deps, deps);
    let reparsed = critical_path(&parsed, &parsed_deps).unwrap();
    assert_eq!(direct, reparsed, "profile identical after export/parse");
    assert_eq!(folded_stacks(&trace), folded_stacks(&parsed));
}

/// Dependency mask decoding shared with `tests/trace_invariants.rs`:
/// task `i` may depend on any of the 64 preceding tasks.
fn masked_deps(masks: &[u64], i: usize) -> Vec<usize> {
    (i.saturating_sub(64)..i)
        .filter(|&j| masks[i] & (1u64 << (i - 1 - j)) != 0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever DAG the engine executes, blame sums to the critical-path
    /// length and the steps tile it — the profiler's core invariant.
    #[test]
    fn blame_always_sums_to_critical_path(
        masks in proptest::collection::vec(any::<u64>(), 1..40),
        workers in 1usize..5,
    ) {
        let tasks: Vec<ThreadTask> = masks
            .iter()
            .enumerate()
            .map(|(i, _)| {
                ThreadTask::new(format!("t{i}"), move || {
                    std::hint::black_box(i.wrapping_mul(0x9e37));
                })
                .after(masked_deps(&masks, i))
            })
            .collect();
        let deps: Vec<(u32, u32)> = tasks
            .iter()
            .enumerate()
            .flat_map(|(i, t)| t.deps.iter().map(move |&d| (d as u32, i as u32)))
            .collect();
        let report = ThreadedExecutor::new(workers)
            .with_trace(TraceSink::ring())
            .run(tasks)
            .unwrap();
        let trace = report.trace.as_ref().expect("ring sink collects a trace");

        let p = critical_path(trace, &deps).unwrap();
        assert_profile_invariants(&p);
        prop_assert!(!p.chain_tasks().is_empty());
        // The chain ends at the very last span to finish.
        let spans = trace.task_spans();
        let last_end = spans.iter().map(|s| s.end).max().unwrap();
        prop_assert_eq!(p.makespan_ns, last_end);
        // The flamegraph covers all spans, not only the chain: its weights
        // sum to the total busy time.
        let folded_total: u64 = folded_stacks(trace)
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        let busy_total: u64 = spans.iter().map(|s| s.end - s.start).sum();
        prop_assert_eq!(folded_total, busy_total);

        // And the profile is reproducible from the on-disk form.
        let (parsed, parsed_deps) =
            codec::parse(&codec::export(trace, &deps)).unwrap();
        let reparsed = critical_path(&parsed, &parsed_deps).unwrap();
        prop_assert_eq!(p, reparsed);
    }
}
