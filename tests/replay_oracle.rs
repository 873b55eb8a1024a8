//! Guards `pdl_analyze::check_trace`; goes when it does.
//!
//! Differential oracle for the trace-replay check.
//!
//! `pdl_analyze::check_trace` finds T005 candidates from per-handle accessor
//! lists and keeps its vector clocks in one flat array. The check it
//! replaced — every pair of tasks, a `Vec` per clock — is kept here as the
//! reference, and random schedules (valid ones, ones that ignore
//! dependencies, ones that drop tasks, with read-only sharing, several
//! conflicting handles per pair, repeated labels, empty spans and spans the
//! graph does not know) must get the identical `Report` from both.

use hetero_rt::data::AccessMode;
use hetero_rt::graph::TaskGraph;
use hetero_rt::task::{Codelet, DataAccess};
use hetero_trace::{EventKind, LaneLabel, RunTrace, TaskInfo, TraceEvent, TraceMeta, WorkerTrace};
use pdl_analyze::check_trace;
use pdl_core::diag::{Diagnostic, Report};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `check_trace` as it was: every pair of tasks asked for a shared handle,
/// one heap-allocated clock per span.
fn reference_check_trace(trace: &RunTrace, graph: &TaskGraph) -> Report {
    let mut out: Vec<Diagnostic> = Vec::new();

    if let Err(e) = trace.validate() {
        out.push(
            Diagnostic::error(
                "T001",
                format!("trace violates its structural invariants: {e}"),
            )
            .with_note(
                "remaining replay checks were skipped — the event stream itself is unreliable",
            ),
        );
        return out.into_iter().collect();
    }

    let mut spans = trace.task_spans();
    spans.sort_by_key(|s| (s.start, s.end, s.worker, s.task));

    // Correlate graph tasks with trace spans.
    let mut graph_span: Vec<Option<usize>> = vec![None; graph.len()];
    if trace.meta.tasks.is_empty() {
        for (si, span) in spans.iter().enumerate() {
            if let Some(slot) = graph_span.get_mut(span.task as usize) {
                slot.get_or_insert(si);
            }
        }
    } else {
        // Label correlation: trace task index → label, label → span queue
        // in start order.
        let mut by_label: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (si, span) in spans.iter().enumerate() {
            if let Some(info) = trace.meta.tasks.get(span.task as usize) {
                by_label.entry(info.label).or_default().push(si);
            }
        }
        for queue in by_label.values_mut() {
            queue.reverse(); // pop() yields earliest start first
        }
        for task in graph.tasks() {
            graph_span[task.id.0] = by_label.get_mut(task.label).and_then(std::vec::Vec::pop);
        }
    }

    // T002: declared tasks that never ran.
    for task in graph.tasks() {
        if graph_span[task.id.0].is_none() {
            out.push(
                Diagnostic::error(
                    "T002",
                    format!(
                        "declared task {} (\"{}\") never executed in the trace",
                        task.id, task.label
                    ),
                )
                .with_subject(task.label),
            );
        }
    }

    // T003: dependency edges must be respected by observed time.
    for task in graph.tasks() {
        let Some(si) = graph_span[task.id.0] else {
            continue;
        };
        for &dep in graph.dependencies(task.id) {
            let Some(di) = graph_span[dep.0] else {
                continue;
            };
            if spans[di].end > spans[si].start {
                out.push(
                    Diagnostic::error(
                        "T003",
                        format!(
                            "task {} (\"{}\") started at {} before its declared dependency {} (\"{}\") finished at {}",
                            task.id,
                            task.label,
                            spans[si].start,
                            dep,
                            graph.task(dep).label,
                            spans[di].end
                        ),
                    )
                    .with_subject(task.label),
                );
            }
        }
    }

    // T004: group placement. The declared pin comes from the graph (or the
    // trace's own task table); the lane's group from the trace meta.
    for task in graph.tasks() {
        let Some(si) = graph_span[task.id.0] else {
            continue;
        };
        let declared = task.execution_group.or_else(|| {
            trace
                .meta
                .tasks
                .get(spans[si].task as usize)
                .and_then(|info| info.group)
        });
        let Some(declared) = declared else { continue };
        let lane_group = trace
            .meta
            .lanes
            .get(spans[si].worker)
            .and_then(|l| l.group.as_deref());
        if let Some(lane_group) = lane_group {
            if lane_group != declared {
                out.push(
                    Diagnostic::error(
                        "T004",
                        format!(
                            "task {} (\"{}\") is pinned to execution group \"{}\" but ran on lane {} of group \"{}\"",
                            task.id,
                            task.label,
                            declared,
                            spans[si].worker,
                            lane_group
                        ),
                    )
                    .with_subject(task.label),
                );
            }
        }
    }

    // T005: vector-clock race check over ALL spans (transfers included —
    // they strengthen per-lane ordering), with dependency edges between
    // correlated graph tasks that observed time actually respects.
    let clocks = vector_clocks(&spans, graph, &graph_span);
    for a in graph.tasks() {
        let Some(sa) = graph_span[a.id.0] else {
            continue;
        };
        for b in graph.tasks() {
            if b.id.0 <= a.id.0 {
                continue;
            }
            let Some(sb) = graph_span[b.id.0] else {
                continue;
            };
            let Some(handle) = conflict(a, b) else {
                continue;
            };
            let ordered = vc_leq(&clocks[sa], &clocks[sb]) || vc_leq(&clocks[sb], &clocks[sa]);
            if !ordered {
                out.push(
                    Diagnostic::error(
                        "T005",
                        format!(
                            "tasks {} (\"{}\") and {} (\"{}\") both access data handle {} with a write but are unordered in the observed schedule: a data race",
                            a.id, a.label, b.id, b.label, handle
                        ),
                    )
                    .with_subject(a.label),
                );
            }
        }
    }

    let mut report: Report = out.into_iter().collect();
    report.sort();
    report
}

/// First shared handle two tasks access conflictingly (≥ 1 write).
fn conflict(a: hetero_rt::task::Task<'_>, b: hetero_rt::task::Task<'_>) -> Option<usize> {
    for aa in a.accesses {
        for ba in b.accesses {
            if aa.handle == ba.handle
                && (aa.mode != AccessMode::Read || ba.mode != AccessMode::Read)
            {
                return Some(aa.handle.0);
            }
        }
    }
    None
}

/// Computes one vector clock per span. Component space is one slot per lane;
/// a span's clock is the join of its predecessors (previous span on its
/// lane, plus every time-respected declared dependency), then its own lane
/// component is bumped to its per-lane sequence number.
fn vector_clocks(
    spans: &[hetero_trace::TaskSpan],
    graph: &TaskGraph,
    graph_span: &[Option<usize>],
) -> Vec<Vec<u64>> {
    // Lane → dense slot.
    let mut slots: BTreeMap<usize, usize> = BTreeMap::new();
    for span in spans {
        let next = slots.len();
        slots.entry(span.worker).or_insert(next);
    }
    let width = slots.len().max(1);

    // Per-lane predecessor chain and sequence numbers (spans are sorted by
    // start time, so per-lane order is start order).
    let mut prev_on_lane: BTreeMap<usize, usize> = BTreeMap::new();
    let mut lane_pred: Vec<Option<usize>> = vec![None; spans.len()];
    let mut seq: Vec<u64> = vec![0; spans.len()];
    let mut lane_count: BTreeMap<usize, u64> = BTreeMap::new();
    for (si, span) in spans.iter().enumerate() {
        lane_pred[si] = prev_on_lane.insert(span.worker, si);
        let c = lane_count.entry(span.worker).or_insert(0);
        *c += 1;
        seq[si] = *c;
    }

    // Dependency predecessors, per span index of the dependent task.
    let mut dep_preds: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for task in graph.tasks() {
        let Some(si) = graph_span[task.id.0] else {
            continue;
        };
        for &dep in graph.dependencies(task.id) {
            if let Some(di) = graph_span[dep.0] {
                if spans[di].end <= spans[si].start {
                    dep_preds[si].push(di);
                }
            }
        }
    }

    let mut clocks: Vec<Vec<u64>> = vec![vec![0; width]; spans.len()];
    for si in 0..spans.len() {
        let mut clock = vec![0u64; width];
        let join = |pred: usize, clock: &mut Vec<u64>, clocks: &[Vec<u64>]| {
            for (c, p) in clock.iter_mut().zip(&clocks[pred]) {
                *c = (*c).max(*p);
            }
        };
        if let Some(p) = lane_pred[si] {
            join(p, &mut clock, &clocks);
        }
        for &p in &dep_preds[si] {
            join(p, &mut clock, &clocks);
        }
        clock[slots[&spans[si].worker]] = seq[si];
        clocks[si] = clock;
    }
    clocks
}

fn vc_leq(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// One drawn task: its accesses as `(handle, mode)`, then label, lane, gap
/// before it, duration and fate.
type DrawnTask = (Vec<(usize, u8)>, u8, usize, u64, u64, u8);

const HANDLES: usize = 5;
const GROUPS: [&str; 2] = ["cpus", "gpus"];

/// Fates: the schedule ignores this task's dependencies (a race unless its
/// lane happens to order it), the task never runs, a span the graph does not
/// know precedes it, the task is pinned to a group; anything else is a task
/// scheduled after its dependencies.
const IGNORES_DEPS: u8 = 0;
const NEVER_RUNS: u8 = 1;
const AFTER_A_COPY: u8 = 2;
const PINNED: u8 = 3;

/// The run record of one span.
fn span_events(task: usize, start: u64, end: u64) -> [TraceEvent; 1] {
    let task = task as u32;
    let kind = EventKind::TaskRun {
        task,
        end,
        provenance: None,
    };
    [TraceEvent { ts: start, kind }]
}

/// A trace of the given lanes' events; `labels` is its task table.
fn trace_of(lane_events: Vec<Vec<TraceEvent>>, labels: Vec<String>) -> RunTrace {
    RunTrace {
        meta: TraceMeta {
            lanes: (0..lane_events.len())
                .map(|l| LaneLabel {
                    name: format!("l{l}"),
                    group: Some(GROUPS[l % 2].to_string()),
                })
                .collect(),
            tasks: labels
                .iter()
                .map(|label| TaskInfo {
                    label,
                    category: "task",
                    group: None,
                })
                .collect(),
            ..TraceMeta::default()
        },
        prelude: Default::default(),
        workers: lane_events
            .into_iter()
            .enumerate()
            .map(|(worker, events)| WorkerTrace {
                worker,
                events: events.into(),
                overwritten: 0,
            })
            .collect(),
    }
}

/// A graph with sequential-consistency edges and a list schedule of it over
/// `lanes` lanes, as a labelled or label-less trace.
fn schedule(drawn: &[DrawnTask], lanes: usize, labelled: bool) -> (TaskGraph, RunTrace) {
    let mut graph = TaskGraph::new();
    let codelet = graph.add_codelet(Codelet::new("k"));
    let handles: Vec<_> = (0..HANDLES)
        .map(|h| graph.register_data(format!("h{h}"), 8.0))
        .collect();
    for (i, (accesses, label, _, _, _, fate)) in drawn.iter().enumerate() {
        let accesses = accesses.iter().map(|&(h, mode)| DataAccess {
            handle: handles[h],
            mode: [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite][mode as usize],
        });
        // Few labels, so that some repeat and correlate by start order.
        let group = (*fate == PINNED).then(|| GROUPS[i % 2]);
        graph.submit(codelet, format!("t{}", label % 12), 1.0, accesses, group);
    }

    let mut labels: Vec<String> = graph.tasks().map(|t| t.label.to_owned()).collect();
    let mut lane_events: Vec<Vec<TraceEvent>> = vec![Vec::new(); lanes];
    let mut lane_free = vec![0u64; lanes];
    let mut end_of: Vec<Option<u64>> = vec![None; graph.len()];
    for (task, &(_, _, lane, gap, duration, fate)) in graph.tasks().zip(drawn) {
        if fate == NEVER_RUNS {
            continue;
        }
        let lane = lane % lanes;
        let mut span = |id: usize, start: u64, end: u64| {
            lane_events[lane].extend(span_events(id, start, end));
        };
        if fate == AFTER_A_COPY {
            span(labels.len(), lane_free[lane], lane_free[lane] + 1);
            labels.push("copy".to_string());
            lane_free[lane] += 1;
        }
        let ready = graph
            .dependencies(task.id)
            .iter()
            .filter_map(|dep| end_of[dep.0])
            .max()
            .filter(|_| fate != IGNORES_DEPS)
            .unwrap_or(0);
        let start = lane_free[lane].max(ready) + gap;
        let end = start + duration;
        span(task.id.0, start, end);
        lane_free[lane] = end;
        end_of[task.id.0] = Some(end);
    }

    if !labelled {
        labels.clear();
    }
    let trace = trace_of(lane_events, labels);
    (graph, trace)
}

/// Drawn by hand rather than through `proptest!`, so that the run can end
/// by checking that the schedules covered what the oracle is for.
#[test]
fn replay_report_equals_the_all_pairs_reference() {
    let strategy = (
        proptest::collection::vec(
            (
                proptest::collection::vec((0usize..HANDLES, 0u8..3), 0..4),
                any::<u8>(),
                0usize..4,
                0u64..4,
                0u64..12,
                0u8..24,
            ),
            2..40,
        ),
        1usize..5,
        any::<bool>(),
    );
    let mut rng = proptest::rng::TestRng::deterministic("replay_oracle");
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for case in 0..400 {
        let (drawn, lanes, labelled) = strategy.generate(&mut rng);
        let (graph, trace) = schedule(&drawn, lanes, labelled);
        let report = check_trace(&trace, &graph);
        assert_eq!(
            report,
            reference_check_trace(&trace, &graph),
            "case {case}: {lanes} lanes, labelled {labelled}, tasks {drawn:?}"
        );
        if report.is_empty() {
            *seen.entry("clean").or_default() += 1;
        }
        for code in report.codes() {
            *seen.entry(code).or_default() += 1;
        }
    }
    for what in ["clean", "T002", "T003", "T004", "T005"] {
        assert!(
            seen.get(what).copied().unwrap_or(0) >= 20,
            "{what} under-exercised: {seen:?}"
        );
    }
    assert!(!seen.contains_key("T001"), "{seen:?}");
}

/// Read-only sharing is no conflict, however many tasks share; one pair
/// that conflicts on several handles is reported once, on the handle the
/// reference names.
#[test]
fn shared_reads_and_multi_handle_conflicts() {
    let read = |h| (h, 0u8);
    let write = |h| (h, 1u8);
    // Four readers of h0 on four lanes, all at once: clean.
    let readers: Vec<DrawnTask> = (0..4)
        .map(|lane| (vec![read(0)], lane as u8, lane, 0, 10, 9))
        .collect();
    let (graph, trace) = schedule(&readers, 4, true);
    assert!(check_trace(&trace, &graph).is_empty());

    // b ignores its dependency on a; they share h3 (read/write), h1
    // (write/write) and h0 (read/read), in that access order of a.
    let racy: Vec<DrawnTask> = vec![
        (vec![read(0), read(3), write(1)], 0, 0, 0, 10, 9),
        (vec![write(1), read(0), write(3)], 1, 1, 0, 10, IGNORES_DEPS),
    ];
    let (graph, trace) = schedule(&racy, 2, true);
    let report = check_trace(&trace, &graph);
    assert_eq!(report, reference_check_trace(&trace, &graph));
    let races: Vec<&Diagnostic> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "T005")
        .collect();
    assert_eq!(races.len(), 1, "{}", report.render());
    assert!(
        races[0].message.contains("data handle 3 "),
        "{}",
        races[0].message
    );
}

/// A dependent and its dependency, both empty spans of the same instant,
/// with the dependency on the later lane: it sorts after its dependent, so
/// the dependent joins a clock that is not computed yet. Both checks read
/// it as zero.
#[test]
fn empty_spans_of_one_instant() {
    let drawn: Vec<DrawnTask> = vec![(vec![(0, 1)], 0, 1, 0, 0, 9), (vec![(0, 2)], 1, 0, 0, 0, 9)];
    for labelled in [false, true] {
        let (graph, trace) = schedule(&drawn, 2, labelled);
        let report = check_trace(&trace, &graph);
        assert_eq!(report, reference_check_trace(&trace, &graph));
        assert_eq!(report.codes(), ["T005"], "{}", report.render());
    }
}

/// The replay check at the size the other layers handle: the 32 768 tiles
/// of the dataflow workload's DGEMM, list-scheduled over eight lanes. All
/// pairs is 537 million `conflict` calls (8.5 s optimised, minutes in a
/// test build); the conflicts themselves are 1 024 chains of 32.
#[test]
fn replay_of_32768_dgemm_tiles_is_quick() {
    let graph = kernels::graphs::dgemm_graph(8192, 256, None);
    assert_eq!(graph.len(), 32_768);
    let lanes = 8;
    let mut lane_events: Vec<Vec<TraceEvent>> = vec![Vec::new(); lanes];
    let mut lane_free = vec![0u64; lanes];
    let mut end_of = vec![0u64; graph.len()];
    for task in graph.tasks() {
        let lane = task.id.0 % lanes;
        let ready = graph
            .dependencies(task.id)
            .iter()
            .map(|dep| end_of[dep.0])
            .max()
            .unwrap_or(0);
        let start = lane_free[lane].max(ready);
        let end = start + 10;
        lane_events[lane].extend(span_events(task.id.0, start, end));
        lane_free[lane] = end;
        end_of[task.id.0] = end;
    }
    let labels = graph.tasks().map(|t| t.label.to_owned()).collect();
    let trace = trace_of(lane_events, labels);
    let started = std::time::Instant::now();
    let report = check_trace(&trace, &graph);
    let took = started.elapsed();
    assert!(report.is_empty(), "{}", report.render());
    assert!(
        took < std::time::Duration::from_secs(20),
        "replay of 32768 tasks took {took:?}"
    );
}
