//! Critical-path profiler: where did the makespan actually go?
//!
//! Given a drained [`RunTrace`] plus the task-graph dependency edges,
//! [`critical_path`] reconstructs the longest chain of task spans,
//! transfer spans and inter-span gaps that ends at the last span to
//! finish, and attributes **every nanosecond** of that chain to a blame
//! category:
//!
//! * `compute/<group>` — a task span on a device/worker lane;
//! * `transfer/<link>` — a span on a link lane (PDL interconnect name,
//!   channel suffix stripped);
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
//! `group;pu;kind` stacks for any flamegraph renderer. Lanes, their
//! groups and their links come from the trace's lane table
//! ([`crate::lanes`]).

use crate::event::EventKind;
use crate::json::Json;
use crate::labels::Labels;
use crate::lanes::{is_link_group, link_base, Lanes};
use crate::trace::{LaneLabel, RunTrace, TaskMap, TaskSpan};
use std::collections::BTreeMap;

/// Profile document schema version.
pub(crate) const PROFILE_SCHEMA_VERSION: u64 = 1;

/// What a step of the critical path is, and so which blame category it
/// renders as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StepKind {
    /// A task span on a device or worker lane: `compute/<group>`.
    Compute,
    /// A span on a link lane: `transfer/<link>`.
    Transfer,
    /// The task was not ready yet: `scheduler`.
    Scheduler,
    /// The task was ready but no lane of the group took it:
    /// `queue-wait/<group>`.
    QueueWait,
    /// The lane that ran the task was parked: `park/<group>`.
    Park,
}

/// One step on the critical path; steps tile `[start_ns, makespan_ns]`.
/// A step holds indices, not text: [`to_json`] and [`Profile::chain_tasks`]
/// render it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStep {
    /// Step start timestamp (trace time unit).
    pub start: u64,
    /// Step end timestamp (exclusive).
    pub end: u64,
    /// What the step is.
    pub kind: StepKind,
    /// The lane it ran or waited on, an index into the profile's lanes:
    /// the trace's declared lanes, then those only its workers name.
    pub lane: u32,
    /// The task it ran, or the one it waited to run.
    pub task: u32,
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
    /// What the steps render with: the lanes, and the label of each span
    /// step's task, in step order.
    lanes: Vec<LaneLabel>,
    chain: Labels,
}

impl Profile {
    /// Critical-path length (== the sum of all step durations).
    pub fn critical_path_ns(&self) -> u64 {
        self.makespan_ns - self.start_ns
    }

    /// The labels of the tasks on the chain, in execution order.
    pub fn chain_tasks(&self) -> Vec<&str> {
        self.chain.iter().collect()
    }

    /// Every step with its blame category and its detail: the task label
    /// for spans, the lane name for gaps.
    fn rendered_steps(&self) -> impl Iterator<Item = (&ProfileStep, String, &str)> {
        let mut labels = self.chain.iter();
        self.steps.iter().map(move |s| {
            let lane = &self.lanes[s.lane as usize];
            let detail = match s.kind {
                StepKind::Compute | StepKind::Transfer => labels.next().expect("a label a span"),
                _ => lane.name.as_str(),
            };
            (s, category(s.kind, lane), detail)
        })
    }
}

/// The blame category of a `kind` step on `lane`.
fn category(kind: StepKind, lane: &LaneLabel) -> String {
    match kind {
        StepKind::Compute => format!("compute/{}", lane.group_name()),
        StepKind::Transfer => format!("transfer/{}", link_base(&lane.name)),
        StepKind::Scheduler => "scheduler".to_string(),
        StepKind::QueueWait => format!("queue-wait/{}", lane.group_name()),
        StepKind::Park => format!("park/{}", lane.group_name()),
    }
}

/// `[park, unpark)` intervals per lane slot.
fn park_intervals(trace: &RunTrace, lanes: &Lanes, makespan: u64) -> Vec<Vec<(u64, u64)>> {
    let mut out = vec![Vec::new(); lanes.labels.len()];
    for w in &trace.workers {
        let mut open: Option<u64> = None;
        let intervals = &mut out[lanes.slot(w.worker)];
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
    // A lane records its intervals in time order. Two entries for one
    // worker, or timestamps that go backwards, do not: those are sorted and
    // their overlaps merged, so every gap can search its lane's intervals.
    for intervals in &mut out {
        intervals.sort_unstable();
        intervals.dedup_by(|next, kept| {
            let overlaps = next.0 < kept.1;
            if overlaps {
                kept.1 = kept.1.max(next.1);
            }
            overlaps
        });
    }
    out
}

/// Appends the steps covering the gap `[from, to)` before `task` ran on
/// `lane`, latest first: `[from, ready)` is scheduler time, the rest splits
/// into park/queue-wait segments by the lane's park intervals, which are
/// disjoint and in time order.
fn attribute_gap(
    steps: &mut Vec<ProfileStep>,
    (from, to): (u64, u64),
    ready: Option<u64>,
    (lane, task): (u32, u32),
    parks: &[(u64, u64)],
) {
    if to <= from {
        return;
    }
    let first = steps.len();
    let mut push = |start, end, kind| {
        steps.push(ProfileStep {
            start,
            end,
            kind,
            lane,
            task,
        });
    };
    let ready = ready.unwrap_or(from).clamp(from, to);
    if ready > from {
        push(from, ready, StepKind::Scheduler);
    }
    // Split [ready, to) into alternating queue-wait / park segments.
    let mut cursor = ready;
    let skip = parks.partition_point(|&(_, p1)| p1 <= ready);
    for &(p0, p1) in parks[skip..].iter().take_while(|&&(p0, _)| p0 < to) {
        let p0 = p0.max(cursor);
        let p1 = p1.min(to);
        if p0 > cursor {
            push(cursor, p0, StepKind::QueueWait);
        }
        push(p0, p1, StepKind::Park);
        cursor = p1;
    }
    if to > cursor {
        push(cursor, to, StepKind::QueueWait);
    }
    steps[first..].reverse();
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
    let lanes = Lanes::of(trace);
    // Not `validate()`: lossy windows must stay profilable. A reversed
    // span is the one defect every duration below would wrap on.
    if let Some(s) = spans.iter().find(|s| s.end < s.start) {
        return Err(format!(
            "task {} on lane {} ends at {} before it starts at {}",
            s.task,
            lanes.lane(s.worker).name,
            s.end,
            s.start
        ));
    }
    // From here on a span's `worker` is its lane slot.
    for s in &mut spans {
        s.worker = lanes.slot(s.worker);
    }
    spans.sort_by_key(|s| (s.start, s.end, s.worker));
    let makespan = spans.iter().map(|s| s.end).max().unwrap_or(0);
    let (ready, start_ns) = trace.ready_timestamps(|_| {});
    let parks = park_intervals(trace, &lanes, makespan);

    // Task index → span index (first span wins on duplicates).
    let mut span_of: TaskMap<usize> = TaskMap::for_trace(trace);
    for (i, s) in spans.iter().enumerate() {
        span_of.slot(s.task).get_or_insert(i);
    }
    // Dependency predecessors, grouped by dependent task; the sort is
    // stable, so a task's predecessors keep the order `deps` lists them in.
    let mut preds: Vec<(u32, u32)> = deps.iter().map(|&(from, to)| (to, from)).collect();
    preds.sort_by_key(|&(to, _)| to);
    // The span before each on its lane (the walk below would otherwise
    // search its lane at every step).
    let mut last_on_lane: Vec<Option<usize>> = vec![None; lanes.labels.len()];
    let lane_pred: Vec<Option<usize>> = (0..spans.len())
        .map(|i| last_on_lane[spans[i].worker].replace(i))
        .collect();

    // Walk backward from the last span to finish.
    let tail = (0..spans.len())
        .max_by_key(|&i| (spans[i].end, spans[i].start))
        .expect("nonempty");
    let mut steps: Vec<ProfileStep> = Vec::new();
    let mut current = tail;
    let mut on_chain = vec![false; spans.len()];
    loop {
        let span: &TaskSpan = &spans[current];
        let lane = span.worker as u32;
        steps.push(ProfileStep {
            start: span.start,
            end: span.end,
            kind: if lanes.labels[span.worker].is_link() {
                StepKind::Transfer
            } else {
                StepKind::Compute
            },
            lane,
            task: span.task,
        });

        // Candidate predecessors: declared deps that finished in time,
        // plus the previous span on the same lane. A span already on the
        // chain is none: zero-length spans that depend on themselves or on
        // each other would otherwise be walked forever.
        on_chain[current] = true;
        let mut best: Option<usize> = None;
        let mut consider = |i: usize| {
            if !on_chain[i]
                && spans[i].end <= span.start
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
        if let Some(before) = lane_pred[current] {
            consider(before);
        }

        let gap_from = match best {
            Some(b) => spans[b].end,
            None => start_ns,
        };
        attribute_gap(
            &mut steps,
            (gap_from, span.start),
            ready.get(span.task).copied(),
            (lane, span.task),
            &parks[span.worker],
        );
        match best {
            Some(b) => current = b,
            None => break,
        }
    }
    // The walk pushed every step after the ones that follow it in time.
    // Reversed, the steps are in `(start, end)` order, except that
    // zero-length spans chained at one instant come latest-walked first:
    // they keep the order they were walked in.
    steps.reverse();
    for run in steps.chunk_by_mut(|a, b| (a.start, a.end) == (b.start, b.end)) {
        run.reverse();
    }
    let mut chain = Labels::default();
    for s in &steps {
        if matches!(s.kind, StepKind::Compute | StepKind::Transfer) {
            match trace.meta.tasks.get(s.task as usize) {
                Some(t) => chain.push_str(t.label),
                None => chain.push(format_args!("task{}", s.task)),
            }
        }
    }

    // Blame, summed per kind and lane, then per category: lanes of one
    // group share theirs.
    let critical = makespan - start_ns;
    let mut by_step: BTreeMap<(StepKind, u32), u64> = BTreeMap::new();
    for s in &steps {
        *by_step.entry((s.kind, s.lane)).or_insert(0) += s.end - s.start;
    }
    let mut by_cat: BTreeMap<String, u64> = BTreeMap::new();
    for ((kind, lane), ns) in by_step {
        *by_cat
            .entry(category(kind, &lanes.labels[lane as usize]))
            .or_insert(0) += ns;
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
    let groups = lanes.groups();
    let mut what_ifs: Vec<WhatIf> = Vec::new();
    for b in &blame {
        let saving = if let Some(link) = b.category.strip_prefix("transfer/") {
            Some((format!("link {link} 2x faster"), b.ns / 2))
        } else if let Some(group) = b.category.strip_prefix("compute/") {
            Some((format!("group {group} compute 2x faster"), b.ns / 2))
        } else if let Some(group) = b.category.strip_prefix("queue-wait/") {
            // One more PU: waiting scales ~ n/(n+1) of what it was. Link
            // lanes are channels of a link, not PUs.
            let n = match groups.get(group) {
                Some(slots) if !is_link_group(group) => slots.len() as u64,
                _ => 1,
            };
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
        lanes: lanes.labels,
        chain,
    })
}

/// Renders every span of the trace as folded flamegraph stacks
/// (`group;pu;kind weight` lines, weights in the trace time unit),
/// aggregated over identical stacks. Feed to any `flamegraph.pl`-style
/// renderer.
pub fn folded_stacks(trace: &RunTrace) -> String {
    let lanes = Lanes::of(trace);
    // Summed per lane and task category first, so a stack is spelled once,
    // not once per span; stacks spelled alike merge below.
    let mut per_lane: BTreeMap<(usize, &str), u64> = BTreeMap::new();
    for span in trace.task_spans() {
        let category = (trace.meta.tasks.get(span.task as usize)).map_or("task", |t| t.category);
        *per_lane
            .entry((lanes.slot(span.worker), category))
            .or_insert(0) += span.end - span.start;
    }
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for ((lane, category), weight) in per_lane {
        let lane = &lanes.labels[lane];
        let (name, kind) = match lane.is_link() {
            true => (link_base(&lane.name), "transfer"),
            false => (lane.name.as_str(), category),
        };
        *weights
            .entry(format!("{};{};{}", lane.group_name(), name, kind))
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
                    .rendered_steps()
                    .map(|(s, category, detail)| {
                        Json::obj([
                            ("start", Json::Num(s.start as f64)),
                            ("end", Json::Num(s.end as f64)),
                            ("category", Json::Str(category)),
                            ("detail", Json::str(detail)),
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
    use crate::labels::TaskInfo;
    use crate::trace::{LaneLabel, RunTrace, TraceMeta, WorkerTrace};

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
                tasks: ["t0", "t1", "t2"]
                    .into_iter()
                    .map(|label| TaskInfo {
                        label,
                        category: "task",
                        group: None,
                    })
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
                        ev(110, EventKind::TaskReady { task: 1 }),
                        ev(
                            120,
                            EventKind::TaskRun {
                                task: 1,
                                end: 300,
                                provenance: None,
                            },
                        ),
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

    /// Two entries for one worker give its lane park intervals out of time
    /// order and overlapping: the lane is parked for their union, once.
    #[test]
    fn overlapping_parks_of_one_lane_merge() {
        let mut trace = two_lane_trace();
        let mut gpu: Vec<TraceEvent> = trace.workers[1].events.iter().collect();
        gpu.splice(1..1, [ev(112, EventKind::Park), ev(118, EventKind::Unpark)]);
        trace.workers[1].events = gpu.into();
        trace.workers.push(lane(
            1,
            vec![
                ev(110, EventKind::Park),
                ev(114, EventKind::Unpark),
                ev(116, EventKind::Park),
                ev(117, EventKind::Unpark),
            ],
        ));
        let p = critical_path(&trace, &[(0, 1)]).unwrap();
        let parks: Vec<(u64, u64)> = (p.steps.iter())
            .filter(|s| s.kind == StepKind::Park)
            .map(|s| (s.start, s.end))
            .collect();
        assert_eq!(parks, [(110, 118)]);
        let get = |c: &str| p.blame.iter().find(|b| b.category == c).map(|b| b.ns);
        assert_eq!(get("scheduler"), Some(10));
        assert_eq!(get("park/gpus"), Some(8));
        assert_eq!(get("queue-wait/gpus"), Some(2));
        for w in p.steps.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
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
                tasks: [
                    TaskInfo {
                        label: "copy",
                        category: "transfer",
                        group: None,
                    },
                    TaskInfo {
                        label: "k",
                        category: "task",
                        group: None,
                    },
                ]
                .into_iter()
                .collect(),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![
                lane(
                    1,
                    vec![ev(
                        0,
                        EventKind::TaskRun {
                            task: 0,
                            end: 50,
                            provenance: None,
                        },
                    )],
                ),
                lane(
                    0,
                    vec![ev(
                        50,
                        EventKind::TaskRun {
                            task: 1,
                            end: 80,
                            provenance: None,
                        },
                    )],
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
