//! Critical-path profiler: where did the makespan actually go?
//!
//! Given a drained [`RunTrace`] plus the task-graph dependency edges,
//! [`critical_path`] reconstructs the longest chain of task spans,
//! transfer spans and inter-span gaps that ends at the last span to
//! finish, and attributes **every nanosecond** of that chain to a blame
//! category:
//!
//! * `compute/<group>` — a task span on a device/worker lane;
//! * `transfer/<link>` — a span on a `"links"`-group lane (PDL
//!   interconnect name, channel suffix stripped);
//! * `queue-wait/<group>` — the task was ready but no lane of the group
//!   picked it up;
//! * `park/<group>` — the lane that eventually ran the task was parked
//!   (imbalance: work existed elsewhere but not here);
//! * `scheduler` — the gap between a dependency finishing and the task
//!   becoming ready (graph bookkeeping, submission lag).
//!
//! By construction the steps tile the chain exactly, so blame sums to
//! 100% of the critical path — the profiler's own invariant, asserted in
//! the test suite. What-if estimates replay the chain against edited
//! costs (halved link time, halved group compute, one more PU per
//! group); they are first-order bounds, not simulations — shortening one
//! chain can expose another.
//!
//! [`folded_stacks`] renders *all* spans (not only the chain) as folded
//! `group;pu;kind` stacks for any flamegraph renderer.

use crate::event::EventKind;
use crate::json::Json;
use crate::trace::{RunTrace, TaskMap, TaskSpan};
use std::collections::BTreeMap;

/// Profile document schema version.
pub(crate) const PROFILE_SCHEMA_VERSION: u64 = 1;

/// One step on the critical path; steps tile `[start_ns, makespan_ns]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileStep {
    /// Step start timestamp (trace time unit).
    pub start: u64,
    /// Step end timestamp (exclusive).
    pub end: u64,
    /// Blame category (`compute/<group>`, `transfer/<link>`,
    /// `queue-wait/<group>`, `park/<group>`, `scheduler`).
    pub category: String,
    /// Human detail: task label for spans, lane name for gaps.
    pub detail: String,
}

impl ProfileStep {
    /// Step duration.
    pub(crate) fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Total attributed time for one blame category.
#[derive(Debug, Clone, PartialEq)]
pub struct Blame {
    /// Blame category.
    pub category: String,
    /// Nanoseconds of critical path attributed to it.
    pub ns: u64,
    /// Share of the critical path (0..=1).
    pub share: f64,
}

/// First-order estimate of the makespan under one edited cost.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// What was changed (human-readable).
    pub description: String,
    /// Critical-path nanoseconds saved on the current chain.
    pub saving_ns: u64,
    /// Estimated new makespan (lower bound: other chains may dominate).
    pub estimated_makespan_ns: u64,
}

/// The profiler's output: the chain, its blame split and what-ifs.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Earliest timestamp in the trace (chain origin).
    pub start_ns: u64,
    /// Latest span end (the makespan on the trace clock).
    pub makespan_ns: u64,
    /// The critical path, earliest step first.
    pub steps: Vec<ProfileStep>,
    /// Per-category blame, largest first. Sums to
    /// `makespan_ns - start_ns` exactly.
    pub blame: Vec<Blame>,
    /// What-if estimates, largest saving first.
    pub what_ifs: Vec<WhatIf>,
}

impl Profile {
    /// Critical-path length (== the sum of all step durations).
    pub fn critical_path_ns(&self) -> u64 {
        self.makespan_ns - self.start_ns
    }

    /// The task indices on the chain, in execution order.
    pub fn chain_tasks(&self) -> Vec<String> {
        self.steps
            .iter()
            .filter(|s| s.category.starts_with("compute/") || s.category.starts_with("transfer/"))
            .map(|s| s.detail.clone())
            .collect()
    }
}

/// Lane name / group / link-ness resolved once per lane (shared with the
/// anomaly detectors).
pub(crate) struct LaneInfo {
    pub(crate) name: String,
    pub(crate) group: String,
    pub(crate) is_link: bool,
}

pub(crate) fn lane_infos(trace: &RunTrace) -> Vec<LaneInfo> {
    let lane_count = trace.meta.lanes.len().max(
        trace
            .workers
            .iter()
            .map(|w| w.worker + 1)
            .max()
            .unwrap_or(0),
    );
    (0..lane_count)
        .map(|i| {
            let label = trace.meta.lanes.get(i);
            let group = label
                .and_then(|l| l.group.as_deref())
                .unwrap_or("ungrouped")
                .to_string();
            LaneInfo {
                name: label
                    .map(|l| l.name.clone())
                    .filter(|n| !n.is_empty())
                    .unwrap_or_else(|| format!("worker{i}")),
                is_link: group == "links",
                group,
            }
        })
        .collect()
}

/// Strips a `" #k"` channel suffix from a link lane name.
pub(crate) fn link_base(name: &str) -> &str {
    match name.rsplit_once(" #") {
        Some((base, k)) if !k.is_empty() && k.chars().all(|c| c.is_ascii_digit()) => base,
        _ => name,
    }
}

/// `[park, unpark)` intervals per lane.
fn park_intervals(trace: &RunTrace, makespan: u64) -> BTreeMap<usize, Vec<(u64, u64)>> {
    let mut out: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for w in &trace.workers {
        let mut open: Option<u64> = None;
        let intervals = out.entry(w.worker).or_default();
        for e in w.events.iter() {
            match e.kind {
                EventKind::Park => open = open.or(Some(e.ts)),
                EventKind::Unpark => {
                    if let Some(p) = open.take() {
                        if e.ts > p {
                            intervals.push((p, e.ts));
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(p) = open {
            if makespan > p {
                intervals.push((p, makespan));
            }
        }
    }
    out
}

/// Appends the steps covering the gap `[from, to)` before a span that ran
/// on `lane`: `[from, ready)` is scheduler time, the rest splits into
/// park/queue-wait segments by the lane's park intervals.
fn attribute_gap(
    steps: &mut Vec<ProfileStep>,
    from: u64,
    to: u64,
    ready: Option<u64>,
    lane: &LaneInfo,
    parks: &[(u64, u64)],
) {
    if to <= from {
        return;
    }
    let ready = ready.unwrap_or(from).clamp(from, to);
    if ready > from {
        steps.push(ProfileStep {
            start: from,
            end: ready,
            category: "scheduler".to_string(),
            detail: lane.name.clone(),
        });
    }
    // Split [ready, to) into alternating queue-wait / park segments.
    let mut cursor = ready;
    for &(p0, p1) in parks {
        if p1 <= cursor || p0 >= to {
            continue;
        }
        let p0 = p0.max(cursor);
        let p1 = p1.min(to);
        if p0 > cursor {
            steps.push(ProfileStep {
                start: cursor,
                end: p0,
                category: format!("queue-wait/{}", lane.group),
                detail: lane.name.clone(),
            });
        }
        steps.push(ProfileStep {
            start: p0,
            end: p1,
            category: format!("park/{}", lane.group),
            detail: lane.name.clone(),
        });
        cursor = p1;
    }
    if to > cursor {
        steps.push(ProfileStep {
            start: cursor,
            end: to,
            category: format!("queue-wait/{}", lane.group),
            detail: lane.name.clone(),
        });
    }
}

/// Reconstructs the critical path of `trace` and attributes it.
///
/// `deps` are task-graph edges as `(from, to)` pairs — task `to` depends
/// on task `from` — using the trace's task indices (the codec's optional
/// `"deps"` array carries exactly this). Missing edges degrade the chain
/// (same-lane ordering still applies); they never break the invariant
/// that blame sums to the critical-path length. A trace with no completed
/// span, or with a span that ends before it starts, is an error.
pub fn critical_path(trace: &RunTrace, deps: &[(u32, u32)]) -> Result<Profile, String> {
    let mut spans = trace.task_spans();
    if spans.is_empty() {
        return Err("trace contains no completed task spans".to_string());
    }
    let lanes = lane_infos(trace);
    // Not `validate()`: lossy windows must stay profilable. A reversed
    // span is the one defect every duration below would wrap on.
    if let Some(s) = spans.iter().find(|s| s.end < s.start) {
        return Err(format!(
            "task {} on lane {} ends at {} before it starts at {}",
            s.task, lanes[s.worker].name, s.end, s.start
        ));
    }
    spans.sort_by_key(|s| (s.start, s.end, s.worker));
    let makespan = spans.iter().map(|s| s.end).max().unwrap_or(0);
    let start_ns = trace
        .prelude
        .iter()
        .chain(trace.workers.iter().flat_map(|w| w.events.iter()))
        .map(|e| e.ts)
        .min()
        .unwrap_or(0);
    let (ready, _) = trace.ready_timestamps();
    let parks = park_intervals(trace, makespan);
    let no_parks: Vec<(u64, u64)> = Vec::new();

    // Task index → span index (first span wins on duplicates).
    let mut span_of: TaskMap<usize> = TaskMap::for_trace(trace);
    for (i, s) in spans.iter().enumerate() {
        span_of.slot(s.task).get_or_insert(i);
    }
    // Dependency predecessors, grouped by dependent task; the sort is
    // stable, so a task's predecessors keep the order `deps` lists them in.
    let mut preds: Vec<(u32, u32)> = deps.iter().map(|&(from, to)| (to, from)).collect();
    preds.sort_by_key(|&(to, _)| to);
    // Per-lane span order for same-lane predecessors, and each span's place
    // in it (the walk below would otherwise search its lane at every step).
    let mut lane_spans: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut place_in_lane = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let order = lane_spans.entry(s.worker).or_default();
        place_in_lane[i] = order.len();
        order.push(i);
    }

    // Walk backward from the last span to finish.
    let tail = (0..spans.len())
        .max_by_key(|&i| (spans[i].end, spans[i].start))
        .expect("nonempty");
    let mut rev: Vec<ProfileStep> = Vec::new();
    let mut current = tail;
    loop {
        let span: &TaskSpan = &spans[current];
        let lane = &lanes[span.worker];
        let (category, detail) = if lane.is_link {
            (
                format!("transfer/{}", link_base(&lane.name)),
                task_label(trace, span.task),
            )
        } else {
            (
                format!("compute/{}", lane.group),
                task_label(trace, span.task),
            )
        };
        rev.push(ProfileStep {
            start: span.start,
            end: span.end,
            category,
            detail,
        });

        // Candidate predecessors: declared deps that finished in time,
        // plus the previous span on the same lane.
        let mut best: Option<usize> = None;
        let mut consider = |i: usize| {
            if spans[i].end <= span.start
                && best
                    .is_none_or(|b| (spans[i].end, spans[i].start) > (spans[b].end, spans[b].start))
            {
                best = Some(i);
            }
        };
        let first_pred = preds.partition_point(|&(to, _)| to < span.task);
        for &(_, dep) in preds[first_pred..]
            .iter()
            .take_while(|&&(to, _)| to == span.task)
        {
            if let Some(&di) = span_of.get(dep) {
                consider(di);
            }
        }
        if let Some(order) = lane_spans.get(&span.worker) {
            let pos = place_in_lane[current];
            if pos > 0 {
                consider(order[pos - 1]);
            }
        }

        let gap_from = match best {
            Some(b) => spans[b].end,
            None => start_ns,
        };
        let lane_parks = parks.get(&span.worker).unwrap_or(&no_parks);
        attribute_gap(
            &mut rev,
            gap_from,
            span.start,
            ready.get(span.task).copied(),
            lane,
            lane_parks,
        );
        match best {
            Some(b) => current = b,
            None => break,
        }
    }
    // attribute_gap pushes gaps front-to-back within one call, but the
    // walk itself is back-to-front: restore global time order.
    rev.sort_by_key(|s| (s.start, s.end));
    let steps = rev;

    // Blame aggregation.
    let critical = makespan - start_ns;
    let mut by_cat: BTreeMap<String, u64> = BTreeMap::new();
    for s in &steps {
        *by_cat.entry(s.category.clone()).or_insert(0) += s.ns();
    }
    debug_assert_eq!(by_cat.values().sum::<u64>(), critical);
    let mut blame: Vec<Blame> = by_cat
        .into_iter()
        .map(|(category, ns)| Blame {
            category,
            ns,
            share: if critical == 0 {
                0.0
            } else {
                ns as f64 / critical as f64
            },
        })
        .collect();
    blame.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.category.cmp(&b.category)));

    // What-ifs: replay the chain against edited costs.
    let mut lanes_per_group: BTreeMap<&str, u64> = BTreeMap::new();
    for l in &lanes {
        if !l.is_link {
            *lanes_per_group.entry(l.group.as_str()).or_insert(0) += 1;
        }
    }
    let mut what_ifs: Vec<WhatIf> = Vec::new();
    for b in &blame {
        let saving = if let Some(link) = b.category.strip_prefix("transfer/") {
            Some((format!("link {link} 2x faster"), b.ns / 2))
        } else if let Some(group) = b.category.strip_prefix("compute/") {
            Some((format!("group {group} compute 2x faster"), b.ns / 2))
        } else if let Some(group) = b.category.strip_prefix("queue-wait/") {
            let n = lanes_per_group.get(group).copied().unwrap_or(1).max(1);
            // One more PU: waiting scales ~ n/(n+1) of what it was.
            Some((
                format!("group {group} one more PU"),
                b.ns - b.ns * n / (n + 1),
            ))
        } else {
            None
        };
        if let Some((description, saving_ns)) = saving {
            if saving_ns > 0 {
                what_ifs.push(WhatIf {
                    description,
                    saving_ns,
                    estimated_makespan_ns: makespan - saving_ns,
                });
            }
        }
    }
    what_ifs.sort_by(|a, b| {
        b.saving_ns
            .cmp(&a.saving_ns)
            .then_with(|| a.description.cmp(&b.description))
    });

    Ok(Profile {
        start_ns,
        makespan_ns: makespan,
        steps,
        blame,
        what_ifs,
    })
}

fn task_label(trace: &RunTrace, task: u32) -> String {
    trace
        .meta
        .tasks
        .get(task as usize)
        .map_or_else(|| format!("task{task}"), |t| t.label.to_string())
}

/// Renders every span of the trace as folded flamegraph stacks
/// (`group;pu;kind weight` lines, weights in the trace time unit),
/// aggregated over identical stacks. Feed to any `flamegraph.pl`-style
/// renderer.
pub fn folded_stacks(trace: &RunTrace) -> String {
    let lanes = lane_infos(trace);
    // Summed per lane and kind first, so a stack is spelled once, not once
    // per span; lanes that spell the same stack merge below.
    let mut per_lane: BTreeMap<(usize, &str), u64> = BTreeMap::new();
    for span in trace.task_spans() {
        let kind = if lanes[span.worker].is_link {
            "transfer"
        } else {
            trace
                .meta
                .tasks
                .get(span.task as usize)
                .map_or("task", |t| &t.category)
        };
        *per_lane.entry((span.worker, kind)).or_insert(0) += span.end - span.start;
    }
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for ((lane, kind), weight) in per_lane {
        let lane = &lanes[lane];
        let name = if lane.is_link {
            link_base(&lane.name)
        } else {
            &lane.name
        };
        *weights
            .entry(format!("{};{};{}", lane.group, name, kind))
            .or_insert(0) += weight;
    }
    let mut out = String::new();
    for (stack, w) in weights {
        out.push_str(&format!("{stack} {w}\n"));
    }
    out
}

/// The profile as a JSON document (`kind: "hetero-trace-profile"`).
pub fn to_json(profile: &Profile) -> Json {
    Json::obj([
        ("schema", Json::Num(PROFILE_SCHEMA_VERSION as f64)),
        ("kind", Json::str("hetero-trace-profile")),
        ("start_ns", Json::Num(profile.start_ns as f64)),
        ("makespan_ns", Json::Num(profile.makespan_ns as f64)),
        (
            "critical_path_ns",
            Json::Num(profile.critical_path_ns() as f64),
        ),
        (
            "steps",
            Json::Arr(
                profile
                    .steps
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("start", Json::Num(s.start as f64)),
                            ("end", Json::Num(s.end as f64)),
                            ("category", Json::str(s.category.clone())),
                            ("detail", Json::str(s.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "blame",
            Json::Arr(
                profile
                    .blame
                    .iter()
                    .map(|b| {
                        Json::obj([
                            ("category", Json::str(b.category.clone())),
                            ("ns", Json::Num(b.ns as f64)),
                            ("share", Json::Num(b.share)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "what_ifs",
            Json::Arr(
                profile
                    .what_ifs
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("description", Json::str(w.description.clone())),
                            ("saving_ns", Json::Num(w.saving_ns as f64)),
                            (
                                "estimated_makespan_ns",
                                Json::Num(w.estimated_makespan_ns as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TraceEvent};
    use crate::trace::{LaneLabel, RunTrace, TaskInfo, TraceMeta, WorkerTrace};

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

    fn two_lane_trace() -> RunTrace {
        RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![
                    LaneLabel {
                        name: "cpu0".to_string(),
                        group: Some("cpus".to_string()),
                    },
                    LaneLabel {
                        name: "gpu0".to_string(),
                        group: Some("gpus".to_string()),
                    },
                ],
                tasks: (0..3)
                    .map(|i| TaskInfo {
                        label: format!("t{i}").into(),
                        category: "task".into(),
                        group: None,
                    })
                    .collect(),
                time_unit: Default::default(),
            },
            prelude: vec![ev(0, EventKind::TaskReady { task: 0 })].into(),
            workers: vec![
                lane(
                    0,
                    vec![
                        ev(0, EventKind::TaskStart { task: 0 }),
                        ev(100, EventKind::TaskEnd { task: 0 }),
                    ],
                ),
                lane(
                    1,
                    vec![
                        ev(110, EventKind::TaskReady { task: 1 }),
                        ev(120, EventKind::TaskStart { task: 1 }),
                        ev(300, EventKind::TaskEnd { task: 1 }),
                    ],
                ),
            ],
        }
    }

    #[test]
    fn simple_chain_blame_tiles_the_makespan() {
        let trace = two_lane_trace();
        let p = critical_path(&trace, &[(0, 1)]).unwrap();
        assert_eq!(p.start_ns, 0);
        assert_eq!(p.makespan_ns, 300);
        assert_eq!(p.critical_path_ns(), 300);
        // Steps tile [0, 300] contiguously.
        assert_eq!(p.steps.first().unwrap().start, 0);
        assert_eq!(p.steps.last().unwrap().end, 300);
        for w in p.steps.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let total: u64 = p.blame.iter().map(|b| b.ns).sum();
        assert_eq!(total, 300);
        assert_eq!(p.chain_tasks(), ["t0", "t1"]);
        // 100 compute cpus + 10 scheduler (end→ready) + 10 queue-wait +
        // 180 compute gpus.
        let get = |c: &str| p.blame.iter().find(|b| b.category == c).map(|b| b.ns);
        assert_eq!(get("compute/cpus"), Some(100));
        assert_eq!(get("compute/gpus"), Some(180));
        assert_eq!(get("scheduler"), Some(10));
        assert_eq!(get("queue-wait/gpus"), Some(10));
    }

    #[test]
    fn what_ifs_shrink_the_makespan() {
        let trace = two_lane_trace();
        let p = critical_path(&trace, &[(0, 1)]).unwrap();
        let gpu = p
            .what_ifs
            .iter()
            .find(|w| w.description.contains("gpus compute"))
            .unwrap();
        assert_eq!(gpu.saving_ns, 90);
        assert_eq!(gpu.estimated_makespan_ns, 210);
        // queue-wait/gpus (10ns, 1 lane) → one more PU halves it.
        let pu = p
            .what_ifs
            .iter()
            .find(|w| w.description.contains("one more PU"))
            .unwrap();
        assert_eq!(pu.saving_ns, 5);
    }

    #[test]
    fn park_time_is_blamed_separately() {
        let mut trace = two_lane_trace();
        // gpu lane parked 110..115 inside the wait window.
        let mut gpu: Vec<TraceEvent> = trace.workers[1].events.iter().collect();
        gpu.splice(1..1, [ev(110, EventKind::Park), ev(115, EventKind::Unpark)]);
        trace.workers[1].events = gpu.into();
        let p = critical_path(&trace, &[(0, 1)]).unwrap();
        let get = |c: &str| p.blame.iter().find(|b| b.category == c).map(|b| b.ns);
        assert_eq!(get("park/gpus"), Some(5));
        assert_eq!(get("queue-wait/gpus"), Some(5));
        let total: u64 = p.blame.iter().map(|b| b.ns).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn transfer_lanes_blame_the_link() {
        let trace = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![
                    LaneLabel {
                        name: "gpu0".to_string(),
                        group: Some("gpus".to_string()),
                    },
                    LaneLabel {
                        name: "PCIe:host-gpu0 #2".to_string(),
                        group: Some("links".to_string()),
                    },
                ],
                tasks: vec![
                    TaskInfo {
                        label: "copy".into(),
                        category: "transfer".into(),
                        group: None,
                    },
                    TaskInfo {
                        label: "k".into(),
                        category: "task".into(),
                        group: None,
                    },
                ],
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![
                lane(
                    1,
                    vec![
                        ev(0, EventKind::TaskStart { task: 0 }),
                        ev(50, EventKind::TaskEnd { task: 0 }),
                    ],
                ),
                lane(
                    0,
                    vec![
                        ev(50, EventKind::TaskStart { task: 1 }),
                        ev(80, EventKind::TaskEnd { task: 1 }),
                    ],
                ),
            ],
        };
        let p = critical_path(&trace, &[(0, 1)]).unwrap();
        let get = |c: &str| p.blame.iter().find(|b| b.category == c).map(|b| b.ns);
        assert_eq!(get("transfer/PCIe:host-gpu0"), Some(50));
        assert_eq!(get("compute/gpus"), Some(30));
        let link = p
            .what_ifs
            .iter()
            .find(|w| w.description.contains("PCIe:host-gpu0"))
            .unwrap();
        assert_eq!(link.saving_ns, 25);
        assert_eq!(link.estimated_makespan_ns, 55);
    }

    #[test]
    fn empty_trace_is_an_error() {
        let trace = RunTrace {
            meta: TraceMeta::default(),
            prelude: Default::default(),
            workers: Vec::new(),
        };
        assert!(critical_path(&trace, &[]).is_err());
    }

    #[test]
    fn folded_stacks_aggregate_spans() {
        let trace = two_lane_trace();
        let folded = folded_stacks(&trace);
        assert!(folded.contains("cpus;cpu0;task 100"));
        assert!(folded.contains("gpus;gpu0;task 180"));
        let json = to_json(&critical_path(&trace, &[(0, 1)]).unwrap());
        assert_eq!(
            json.get("critical_path_ns").and_then(Json::as_u64),
            Some(300)
        );
        assert_eq!(
            json.get("kind").and_then(Json::as_str),
            Some("hetero-trace-profile")
        );
    }
}
