//! Trace-replay checking (`T` codes): did an observed schedule respect the
//! declared task graph?
//!
//! [`check_trace`] consumes a [`RunTrace`] (from the thread engine's trace
//! sink or the virtual-time bridge) plus the [`TaskGraph`] that was
//! submitted, and verifies:
//!
//! * `T001` — the trace satisfies its own structural invariants
//!   ([`RunTrace::validate`]); nothing else is checked on a broken trace.
//! * `T002` — every declared task actually executed.
//! * `T003` — every declared dependency is respected by observed time:
//!   a task may not start before each of its dependencies ended.
//! * `T004` — tasks pinned to an execution group ran on a lane of that
//!   group (silent when the lane declares no group).
//! * `T005` — conflicting data accesses are ordered by the
//!   happens-before relation of the observed schedule, established with
//!   vector clocks over per-lane program order plus time-respected
//!   dependency edges.
//! * `T006` — every transfer lane (group `"links"`, produced by the
//!   virtual-time bridge's pipelined mode) corresponds to an interconnect
//!   the platform actually declares ([`check_trace_links`]).
//! * `T007` — a logic group sat essentially idle while another group was
//!   saturated: the schedule starves hardware the platform description
//!   says is available ([`check_trace_utilization`]).
//!
//! Trace task indices are correlated to graph tasks **by label** when the
//! trace carries a task table (the virtual-time bridge renumbers every span,
//! including transfers), in span-start order for duplicated labels; an
//! index-identical mapping is assumed for label-less traces.

use hetero_rt::data::AccessMode;
use hetero_rt::graph::TaskGraph;
use hetero_rt::task::{Task, TaskId};
use hetero_trace::lanes::{is_link_group, link_base, Lanes};
use hetero_trace::{RunTrace, TraceStats};
use pdl_core::diag::{Diagnostic, Report};
use std::collections::BTreeMap;

/// Replays a trace against the declared task graph. See the module docs for
/// the codes this can produce.
pub fn check_trace(trace: &RunTrace, graph: &TaskGraph) -> Report {
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
    // trace's own task table); the lane's group from the lane table.
    let lanes = Lanes::of(trace);
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
        if let Some(lane_group) = lanes.lane(spans[si].worker).group.as_deref() {
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
    //
    // Only a writer and another accessor of the same handle can race, so
    // the candidates of a task come from the accessor lists of its handles:
    // the check costs what the graph's conflicts cost, not all task pairs.
    let clocks = VectorClocks::of(&spans, graph, &graph_span);
    let mut accessors: Vec<Vec<(usize, AccessMode)>> = vec![Vec::new(); graph.data.len()];
    for task in graph.tasks() {
        if graph_span[task.id.0].is_some() {
            for access in task.accesses {
                accessors[access.handle.0].push((task.id.0, access.mode));
            }
        }
    }
    let mut later: Vec<usize> = Vec::new();
    for a in graph.tasks() {
        let Some(sa) = graph_span[a.id.0] else {
            continue;
        };
        later.clear();
        for access in a.accesses {
            let of_handle = &accessors[access.handle.0];
            // Lists are in task order; a pair is reported from its earlier task.
            let after = of_handle.partition_point(|&(id, _)| id <= a.id.0);
            later.extend(
                of_handle[after..]
                    .iter()
                    .filter(|(_, mode)| {
                        access.mode != AccessMode::Read || *mode != AccessMode::Read
                    })
                    .map(|&(id, _)| id),
            );
        }
        later.sort_unstable();
        later.dedup();
        for &b in &later {
            let b = graph.task(TaskId(b));
            let sb = graph_span[b.id.0].expect("only tasks with a span are listed");
            if clocks.ordered(sa, sb) {
                continue;
            }
            let handle = conflict(a, b).expect("candidates share a written handle");
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

    let mut report: Report = out.into_iter().collect();
    report.sort();
    report
}

/// Checks a trace's transfer lanes against the platform declaration.
///
/// The virtual-time bridge names every link lane
/// `"<ic_type>:<from>-<to>"` (with an optional `" #k"` channel suffix, `k`
/// digits) and puts it in the `"links"` group. A transfer shown on a lane
/// whose interconnect the (quantity-expanded) platform does not declare — in
/// either orientation — means the simulated schedule moved data over
/// hardware the description says does not exist: `T006`. Unparseable link
/// lane names are reported under the same code. Traces without link lanes
/// are vacuously clean.
pub fn check_trace_links(trace: &RunTrace, platform: &pdl_core::platform::Platform) -> Report {
    use pdl_core::id::PuId;
    let expanded = platform.expand_quantities();
    let mut out: Vec<Diagnostic> = Vec::new();
    for lane in trace.meta.lanes.iter().filter(|l| l.is_link()) {
        let base = link_base(&lane.name);
        let parsed = base.split_once(':').and_then(|(ic_type, endpoints)| {
            endpoints
                .rsplit_once('-')
                .map(|(from, to)| (ic_type, from, to))
        });
        let Some((ic_type, from, to)) = parsed else {
            out.push(
                Diagnostic::error(
                    "T006",
                    format!(
                        "link lane \"{}\" does not name an interconnect (expected \"type:from-to\")",
                        lane.name
                    ),
                )
                .with_subject(lane.name.clone()),
            );
            continue;
        };
        let (a, b) = (PuId::new(from), PuId::new(to));
        let declared = expanded
            .interconnects()
            .iter()
            .any(|ic| ic.ic_type == ic_type && ic.connects(&a, &b));
        if !declared {
            out.push(
                Diagnostic::error(
                    "T006",
                    format!(
                        "trace shows transfers over link \"{}\" but platform \"{}\" declares no {} interconnect between {} and {}",
                        lane.name, expanded.name, ic_type, from, to
                    ),
                )
                .with_note(
                    "the simulated schedule moved data over hardware the description omits — \
                     fix the platform description or the routing",
                )
                .with_subject(lane.name.clone()),
            );
        }
    }
    let mut report: Report = out.into_iter().collect();
    report.sort();
    report
}

/// A group is "idle" below this utilization over the run.
const T007_IDLE_BELOW: f64 = 0.25;
/// A group is "saturated" at or above this utilization over the run.
const T007_SATURATED_ABOVE: f64 = 0.75;

/// Flags logic-group starvation in an observed schedule (`T007`).
///
/// Utilization is per-group busy time over `lanes × wall` (wall = the last
/// span end), both from the trace's tally ([`RunTrace::stats`]). A group
/// under 25% while another group runs at 75% or more means the schedule
/// starved hardware the platform description says is available — usually
/// a missing codelet variant, an over-tight pin, or disabled cross-group
/// stealing.
/// Transfer lanes (group `"links"`) are naturally bursty and are skipped.
/// Broken traces (`T001` territory) and single-group traces are vacuously
/// clean.
pub fn check_trace_utilization(trace: &RunTrace) -> Report {
    if trace.validate().is_err() {
        return Report::default();
    }
    starved_groups(&trace.stats())
}

/// `T007` on the tally `stats` of a valid trace.
fn starved_groups(stats: &TraceStats) -> Report {
    let mut out: Vec<Diagnostic> = Vec::new();
    let wall = stats.last_end_ns;
    if wall > 0 {
        let util: Vec<(String, f64)> = stats
            .group_utilization(wall)
            .into_iter()
            .filter(|(g, _)| !is_link_group(g))
            .collect();
        let saturated = util
            .iter()
            .filter(|(_, u)| *u >= T007_SATURATED_ABOVE)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((busy_group, busy_util)) = saturated {
            for (group, u) in &util {
                if *u < T007_IDLE_BELOW {
                    out.push(
                        Diagnostic::warning(
                            "T007",
                            format!(
                                "logic group \"{group}\" was only {:.0}% utilized while group \"{busy_group}\" ran at {:.0}%: the schedule starves available hardware",
                                u * 100.0,
                                busy_util * 100.0
                            ),
                        )
                        .with_note(
                            "add a codelet variant for the idle group, relax the execution-group \
                             pin, or enable cross-group stealing",
                        )
                        .with_subject(group.clone()),
                    );
                }
            }
        }
    }
    let mut report: Report = out.into_iter().collect();
    report.sort();
    report
}

/// Analyzes a standalone exported trace file (the `hetero-trace-run` codec
/// format, `pdl check foo.trace.json`): structural invariants (`T001`),
/// group starvation (`T007`), runtime anomalies (`A001`–`A005`, see
/// [`crate::anomaly`]) and — against each supplied platform — link
/// declarations (`T006`). Graph-dependent checks (`T002`–`T005`) need the
/// submitted [`TaskGraph`] and run through [`check_trace`] instead.
///
/// A lossy trace (ring overflow) still runs the anomaly detectors over
/// its retained window — `A005` reports the loss next to the `T001`.
pub(crate) fn analyze_trace_source(
    path: &str,
    contents: &str,
    platforms: &[pdl_core::platform::Platform],
) -> Report {
    let (trace, _deps) = match hetero_trace::codec::parse(contents) {
        Ok(parsed) => parsed,
        Err(e) => {
            return std::iter::once(Diagnostic::error(
                "T001",
                format!("{path}: not a trace document: {e}"),
            ))
            .collect()
        }
    };
    let mut report = Report::default();
    match trace.validate() {
        Ok(()) => {
            let stats = trace.stats();
            report.merge(starved_groups(&stats));
            report.merge(crate::anomaly::tallied_anomalies(&trace, &stats));
        }
        Err(e) => {
            report.push(
                Diagnostic::error(
                    "T001",
                    format!("trace violates its structural invariants: {e}"),
                )
                .with_note(
                    "remaining replay checks were skipped — the event stream itself is unreliable",
                ),
            );
            if matches!(e, hetero_trace::TraceError::Lossy { .. }) {
                report.merge(crate::anomaly::check_trace_anomalies(&trace));
            }
        }
    }
    for platform in platforms {
        report.merge(check_trace_links(&trace, platform));
    }
    report.sort();
    report
}

/// First shared handle two tasks access conflictingly (≥ 1 write).
fn conflict(a: Task<'_>, b: Task<'_>) -> Option<usize> {
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

/// One vector clock per span, `lanes` components each, in one allocation.
/// A span's clock is the join of its predecessors (previous span on its
/// lane, plus every time-respected declared dependency), then its own lane
/// component is bumped to its per-lane sequence number.
struct VectorClocks {
    lanes: usize,
    clocks: Vec<u64>,
}

impl VectorClocks {
    fn of(
        spans: &[hetero_trace::TaskSpan],
        graph: &TaskGraph,
        graph_span: &[Option<usize>],
    ) -> Self {
        // Lane → dense component.
        let mut slots: BTreeMap<usize, usize> = BTreeMap::new();
        for span in spans {
            let next = slots.len();
            slots.entry(span.worker).or_insert(next);
        }
        let lanes = slots.len().max(1);

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

        // Spans are sorted by start time, so per-lane order is start order
        // and a predecessor's clock is final before it is joined. The one
        // exception, an empty span depending on an empty span of the same
        // instant that sorts after it, joins a clock that is still zero.
        let mut clocks = vec![0u64; lanes * spans.len()];
        let mut last_on_lane: Vec<Option<usize>> = vec![None; lanes];
        let mut seq_on_lane = vec![0u64; lanes];
        for (si, span) in spans.iter().enumerate() {
            let slot = slots[&span.worker];
            let (done, rest) = clocks.split_at_mut(lanes * si);
            let clock = &mut rest[..lanes];
            let lane_pred = last_on_lane[slot].replace(si);
            let earlier = |pred: &&usize| **pred < si;
            for &pred in lane_pred.iter().chain(&dep_preds[si]).filter(earlier) {
                for (c, p) in clock.iter_mut().zip(&done[lanes * pred..][..lanes]) {
                    *c = (*c).max(*p);
                }
            }
            seq_on_lane[slot] += 1;
            clock[slot] = seq_on_lane[slot];
        }
        VectorClocks { lanes, clocks }
    }

    fn of_span(&self, span: usize) -> &[u64] {
        &self.clocks[self.lanes * span..][..self.lanes]
    }

    /// Does one of the two spans happen before the other?
    fn ordered(&self, a: usize, b: usize) -> bool {
        let leq = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x <= y);
        let (a, b) = (self.of_span(a), self.of_span(b));
        leq(a, b) || leq(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_rt::data::AccessMode;
    use hetero_rt::task::{Codelet, DataAccess};
    use hetero_trace::{
        EventKind, LaneLabel, TaskInfo, TaskTable, TraceEvent, TraceMeta, WorkerTrace,
    };

    /// Two dependent tasks sharing one buffer: `a` writes, `b` reads-writes
    /// after `a` (sequential consistency inserts the edge on submit).
    fn chain_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k"));
        let h = g.register_data("buf", 8.0);
        g.submit(
            c,
            "a",
            1.0,
            vec![DataAccess {
                handle: h,
                mode: AccessMode::Write,
            }],
            None,
        );
        g.submit(
            c,
            "b",
            1.0,
            vec![DataAccess {
                handle: h,
                mode: AccessMode::ReadWrite,
            }],
            None,
        );
        g
    }

    fn meta_for(graph: &TaskGraph, lanes: Vec<LaneLabel>) -> TraceMeta {
        TraceMeta {
            platform: None,
            lanes,
            tasks: graph
                .tasks()
                .map(|t| TaskInfo {
                    label: t.label,
                    category: "task",
                    group: t.execution_group,
                })
                .collect(),
            time_unit: hetero_trace::TimeUnit::default(),
        }
    }

    /// A lane of `(start, task, end)` runs.
    fn lane(worker: usize, runs: Vec<(u64, u32, u64)>) -> WorkerTrace {
        let run = |(ts, task, end)| TraceEvent {
            ts,
            kind: EventKind::TaskRun {
                task,
                end,
                provenance: None,
            },
        };
        WorkerTrace {
            worker,
            events: runs.into_iter().map(run).collect(),
            overwritten: 0,
        }
    }

    #[test]
    fn conforming_trace_is_clean() {
        let g = chain_graph();
        let trace = RunTrace {
            meta: meta_for(&g, vec![LaneLabel::default()]),
            prelude: Default::default(),
            workers: vec![lane(0, vec![(0, 0, 5), (6, 1, 9)])],
        };
        let report = check_trace(&trace, &g);
        assert!(report.is_empty(), "{}", report.render());
    }

    #[test]
    fn broken_trace_is_t001_only() {
        let g = chain_graph();
        let trace = RunTrace {
            meta: meta_for(&g, vec![LaneLabel::default()]),
            prelude: Default::default(),
            // Task 1 starts while task 0 runs: the spans overlap.
            workers: vec![lane(0, vec![(0, 0, 7), (6, 1, 9)])],
        };
        assert_eq!(check_trace(&trace, &g).codes(), ["T001"]);
    }

    #[test]
    fn missing_task_is_t002() {
        let g = chain_graph();
        let trace = RunTrace {
            meta: meta_for(&g, vec![LaneLabel::default()]),
            prelude: Default::default(),
            workers: vec![lane(0, vec![(0, 0, 5)])],
        };
        assert_eq!(check_trace(&trace, &g).codes(), ["T002"]);
    }

    #[test]
    fn dependency_violation_is_t003_plus_race() {
        let g = chain_graph();
        // Two lanes, overlapping in time: b starts before a ends, and the
        // conflicting accesses become unordered → T003 and T005.
        let trace = RunTrace {
            meta: meta_for(&g, vec![LaneLabel::default(), LaneLabel::default()]),
            prelude: Default::default(),
            workers: vec![lane(0, vec![(0, 0, 5)]), lane(1, vec![(2, 1, 7)])],
        };
        assert_eq!(check_trace(&trace, &g).codes(), ["T003", "T005"]);
    }

    #[test]
    fn group_violation_is_t004() {
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k"));
        g.submit(c, "pinned", 1.0, Vec::new(), Some("gpus"));
        let trace = RunTrace {
            meta: meta_for(
                &g,
                vec![LaneLabel {
                    name: "cpu0".into(),
                    group: Some("cpus".into()),
                }],
            ),
            prelude: Default::default(),
            workers: vec![lane(0, vec![(0, 0, 5)])],
        };
        assert_eq!(check_trace(&trace, &g).codes(), ["T004"]);
    }

    #[test]
    fn independent_overlap_is_not_a_race() {
        // Two tasks on disjoint data, overlapping on two lanes: unordered
        // but no conflict → clean.
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k"));
        let h1 = g.register_data("x", 8.0);
        let h2 = g.register_data("y", 8.0);
        g.submit(
            c,
            "a",
            1.0,
            vec![DataAccess {
                handle: h1,
                mode: AccessMode::Write,
            }],
            None,
        );
        g.submit(
            c,
            "b",
            1.0,
            vec![DataAccess {
                handle: h2,
                mode: AccessMode::Write,
            }],
            None,
        );
        let trace = RunTrace {
            meta: meta_for(&g, vec![LaneLabel::default(), LaneLabel::default()]),
            prelude: Default::default(),
            workers: vec![lane(0, vec![(0, 0, 5)]), lane(1, vec![(2, 1, 7)])],
        };
        let report = check_trace(&trace, &g);
        assert!(report.is_empty(), "{}", report.render());
    }

    fn grouped_trace(busy: &[(&str, &str, u64, u64)]) -> RunTrace {
        // One lane per entry: (pu, group, start, end) of its single task.
        RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: busy
                    .iter()
                    .map(|(pu, group, _, _)| LaneLabel {
                        name: (*pu).to_string(),
                        group: Some((*group).to_string()),
                    })
                    .collect(),
                tasks: (0..busy.len())
                    .map(|i| format!("t{i}"))
                    .collect::<Vec<_>>()
                    .iter()
                    .map(|label| TaskInfo {
                        label,
                        category: "task",
                        group: None,
                    })
                    .collect(),
                time_unit: hetero_trace::TimeUnit::default(),
            },
            prelude: Default::default(),
            workers: busy
                .iter()
                .enumerate()
                .map(|(i, (_, _, s, e))| lane(i, vec![(*s, i as u32, *e)]))
                .collect(),
        }
    }

    #[test]
    fn starved_group_is_t007() {
        // cpus saturated for the whole run, gpu0 does 5% and sits idle.
        let trace = grouped_trace(&[
            ("cpu0", "cpus", 0, 1000),
            ("cpu1", "cpus", 0, 1000),
            ("gpu0", "gpus", 0, 50),
        ]);
        let report = check_trace_utilization(&trace);
        assert_eq!(report.codes(), ["T007"]);
        assert!(report.render().contains("\"gpus\""), "{}", report.render());
    }

    #[test]
    fn balanced_groups_are_not_t007() {
        let trace = grouped_trace(&[("cpu0", "cpus", 0, 1000), ("gpu0", "gpus", 100, 900)]);
        assert!(check_trace_utilization(&trace).is_empty());
        // No saturated group either → nothing to blame even if one idles.
        let lazy = grouped_trace(&[("cpu0", "cpus", 0, 500), ("gpu0", "gpus", 900, 1000)]);
        assert!(check_trace_utilization(&lazy).is_empty());
    }

    #[test]
    fn trace_source_analysis_combines_checks() {
        let trace = grouped_trace(&[
            ("cpu0", "cpus", 0, 1000),
            ("cpu1", "cpus", 0, 1000),
            ("gpu0", "gpus", 0, 50),
        ]);
        let text = hetero_trace::codec::export(&trace, &[]);
        let report = pdl_analyze_trace(&text);
        assert_eq!(report.codes(), ["T007"]);
        assert!(super::analyze_trace_source("x.json", "not json", &[])
            .codes()
            .contains(&"T001"));
    }

    fn pdl_analyze_trace(text: &str) -> Report {
        super::analyze_trace_source("t.json", text, &[])
    }

    fn links_trace(lane_names: &[&str]) -> RunTrace {
        RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: lane_names
                    .iter()
                    .map(|n| LaneLabel {
                        name: (*n).to_string(),
                        group: Some("links".into()),
                    })
                    .collect(),
                tasks: TaskTable::default(),
                time_unit: hetero_trace::TimeUnit::default(),
            },
            prelude: Default::default(),
            workers: Vec::new(),
        }
    }

    #[test]
    fn declared_link_lanes_are_clean() {
        let platform = pdl_discover::synthetic::xeon_2gpu_nvlink_testbed();
        // Declared PCIe host links (both orientations), a channel-split
        // lane, and the declared GPU peer link.
        let trace = links_trace(&[
            "PCIe:host-gpu0",
            "PCIe:gpu1-host",
            "PCIe:host-gpu0 #2",
            "NVLink:gpu0-gpu1",
        ]);
        let report = check_trace_links(&trace, &platform);
        assert!(report.is_empty(), "{}", report.render());
    }

    #[test]
    fn undeclared_or_malformed_link_lanes_are_t006() {
        let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
        // No NVLink on the plain testbed; "bogus" parses as no interconnect.
        let trace = links_trace(&["NVLink:gpu0-gpu1", "bogus"]);
        let report = check_trace_links(&trace, &platform);
        assert_eq!(report.codes(), ["T006", "T006"]);
    }

    /// A channel suffix is ` #` and at least one digit. A lane named
    /// `<declared link> #` is a link of its own, which the platform does
    /// not declare, and every reader names it so; `<declared link> #2` is
    /// a channel of the declared link everywhere.
    #[test]
    fn a_channel_suffix_needs_a_digit() {
        use hetero_trace::{anomaly, profile};
        let platform = pdl_discover::synthetic::xeon_2gpu_nvlink_testbed();
        for (lane_name, link, t006) in [
            ("PCIe:host-gpu0 #", "PCIe:host-gpu0 #", vec!["T006"]),
            ("PCIe:host-gpu0 #2", "PCIe:host-gpu0", vec![]),
        ] {
            let mut tasks = TaskTable::default();
            tasks.push("copy", "transfer", None);
            tasks.push("k", "task", None);
            let trace = RunTrace {
                meta: TraceMeta {
                    platform: None,
                    lanes: vec![
                        LaneLabel {
                            name: "gpu0".into(),
                            group: Some("gpus".into()),
                        },
                        LaneLabel {
                            name: lane_name.into(),
                            group: Some("links".into()),
                        },
                    ],
                    tasks,
                    time_unit: hetero_trace::TimeUnit::default(),
                },
                prelude: Default::default(),
                workers: vec![lane(1, vec![(0, 0, 95)]), lane(0, vec![(95, 1, 100)])],
            };
            assert_eq!(check_trace_links(&trace, &platform).codes(), t006);
            let folded = profile::folded_stacks(&trace);
            assert!(
                folded.contains(&format!("links;{link};transfer 95\n")),
                "{folded}"
            );
            let found = anomaly::detect(&trace);
            assert_eq!(found.len(), 1);
            assert_eq!((found[0].code, found[0].subject.as_str()), ("A004", link));
            let blame = profile::critical_path(&trace, &[(0, 1)]).unwrap().blame;
            assert_eq!(blame[0].category, format!("transfer/{link}"));
        }
    }

    #[test]
    fn bridged_pipeline_trace_has_only_declared_links() {
        use hetero_rt::prelude::*;
        let platform = pdl_discover::synthetic::xeon_2gpu_nvlink_testbed();
        let machine = simhw::machine::SimMachine::from_platform(&platform);
        let mut g = TaskGraph::new();
        let k = g.add_codelet(
            Codelet::new("k").with_variant(hetero_rt::task::Variant::new("gpu").requiring("Cuda")),
        );
        let h = g.register_data("A", 600e6);
        g.submit(
            k,
            "produce",
            1e10,
            vec![DataAccess {
                handle: h,
                mode: AccessMode::Write,
            }],
            None,
        );
        g.submit(
            k,
            "consume",
            1e10,
            vec![DataAccess {
                handle: h,
                mode: AccessMode::Read,
            }],
            None,
        );
        let report = simulate(
            &g,
            &machine,
            &mut RoundRobinScheduler::default(),
            &SimOptions {
                pipeline: TransferPipeline::full(),
                ..Default::default()
            },
        )
        .expect("simulation runs");
        let trace = sim_report_to_trace(&report, &machine);
        assert!(trace
            .meta
            .lanes
            .iter()
            .any(|l| l.group.as_deref() == Some("links")));
        let links = check_trace_links(&trace, &platform);
        assert!(links.is_empty(), "{}", links.render());
        // The replay checks still pass on the pipelined trace.
        let replay = check_trace(&trace, &g);
        assert!(replay.is_empty(), "{}", replay.render());
    }
}
