//! Single-trace anomaly detection — the runtime pathologies behind the
//! pdl-analyze `A` diagnostic family.
//!
//! [`detect`] scans one drained [`RunTrace`] for scheduling pathologies
//! that a human would otherwise have to eyeball out of a timeline:
//!
//! * **A001 straggler worker** — one lane of a group finishes far later
//!   than the group's median lane, holding the makespan hostage;
//! * **A002 group load imbalance** — one lane of a group does a large
//!   multiple of the group's average work;
//! * **A003 steal storm** — a group obtains most of its work by
//!   stealing, meaning placement is fighting affinity;
//! * **A004 saturated link** — a link's lanes are busy for almost the
//!   whole run window, making the interconnect the bottleneck;
//! * **A005 lossy trace window** — a worker's ring overflowed, so any
//!   analysis of that lane only covers the retained suffix.
//!
//! Each check's thresholds are constants, the values the CLI and the
//! fixture corpus are calibrated against. Every finding carries a span
//! into the trace timeline ([`Anomaly::start_ns`] / [`Anomaly::end_ns`])
//! so it can be projected onto the same axis as the Chrome export or the
//! critical-path profile.
//! Detection is intentionally tolerant of lossy traces: A005 reports the
//! loss, and the remaining checks run over the retained events. Lanes and
//! their groups come from the lane table ([`crate::lanes`]), per-lane busy
//! time and extent from the trace's tally ([`RunTrace::stats`]).

use crate::lanes::{is_link_group, link_base, Lanes};
use crate::trace::RunTrace;
use crate::{LaneStats, TraceStats};
use std::collections::BTreeMap;

/// A001: a lane is a straggler when it finishes at least this fraction of
/// the run window after its group's median lane.
const STRAGGLER_TAIL_FRACTION: f64 = 0.25;
/// A002: flag a group when its busiest lane carries at least this multiple
/// of the group's mean per-lane busy time…
const IMBALANCE_FACTOR: f64 = 2.0;
/// A002: …and the busiest-to-idlest spread is at least this fraction of
/// the run window (filters out noise on tiny runs).
const IMBALANCE_MIN_SPREAD_FRACTION: f64 = 0.10;
/// A003: flag a group when at least this fraction of its dequeues were
/// steals…
const STEAL_RATIO: f64 = 0.5;
/// A003: …and the group dequeued at least this many tasks.
const STEAL_MIN_DEQUEUES: u64 = 16;
/// A004: flag a link when its busy time covers at least this fraction of
/// the run window.
const LINK_BUSY_FRACTION: f64 = 0.9;

/// One detected anomaly, with a stable code and a timeline span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// Stable code (`"A001"` … `"A005"`).
    pub code: &'static str,
    /// What the finding is about: a lane name (A001, A005), a logic
    /// group (A002, A003) or a link base name (A004).
    pub subject: String,
    /// Human-readable explanation with the measured numbers.
    pub message: String,
    /// Start of the affected window on the trace clock.
    pub start_ns: u64,
    /// End of the affected window.
    pub end_ns: u64,
}

/// Scans `trace` for the A-series pathologies. Findings come back sorted
/// by (code, subject) for deterministic reporting.
pub fn detect(trace: &RunTrace) -> Vec<Anomaly> {
    detect_tallied(trace, &trace.stats())
}

/// [`detect`] with the trace's tally, `stats` (from [`RunTrace::stats`]),
/// already taken.
pub fn detect_tallied(trace: &RunTrace, stats: &TraceStats) -> Vec<Anomaly> {
    let lanes = Lanes::of(trace);
    let agg = stats.by_lane(trace, &lanes);
    let window = stats.last_end_ns.saturating_sub(stats.start_ns);

    // Lane slots per non-link group, in slot order.
    let mut groups = lanes.groups();
    groups.retain(|group, _| !is_link_group(group));

    let mut out = Vec::new();
    detect_lossy(trace, &lanes, stats, &mut out);
    if window > 0 {
        detect_stragglers(&lanes, &agg, &groups, window, &mut out);
        detect_imbalance(&lanes, &agg, &groups, window, &mut out);
        detect_steal_storms(trace, &lanes, &mut out);
        detect_saturated_links(&lanes, &agg, window, &mut out);
    }
    out.sort_by(|a, b| (a.code, &a.subject).cmp(&(b.code, &b.subject)));
    out
}

/// A005: ring overflow means the lane's history has a hole at the front.
fn detect_lossy(trace: &RunTrace, lanes: &Lanes, stats: &TraceStats, out: &mut Vec<Anomaly>) {
    for w in &trace.workers {
        if w.overwritten == 0 {
            continue;
        }
        let name = lanes.lane(w.worker).name.clone();
        let first_retained = w.events.iter().next().map_or(stats.start_ns, |e| e.ts);
        out.push(Anomaly {
            code: "A005",
            message: format!(
                "lane \"{name}\" ring overflowed: {} events were overwritten; \
                 analysis of this lane only covers the retained window",
                w.overwritten
            ),
            subject: name,
            start_ns: first_retained,
            end_ns: stats.last_end_ns.max(first_retained),
        });
    }
}

/// A001: one lane of a group finishes far later than the group median.
fn detect_stragglers(
    lanes: &Lanes,
    agg: &[LaneStats],
    groups: &BTreeMap<&str, Vec<usize>>,
    window: u64,
    out: &mut Vec<Anomaly>,
) {
    for (group, members) in groups {
        let active: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| agg[i].spans > 0)
            .collect();
        if active.len() < 2 {
            continue;
        }
        let mut ends: Vec<u64> = active.iter().map(|&i| agg[i].last_end_ns).collect();
        ends.sort_unstable();
        let median = ends[(ends.len() - 1) / 2];
        let threshold = ((STRAGGLER_TAIL_FRACTION * window as f64) as u64).max(1);
        for &i in &active {
            let tail = agg[i].last_end_ns.saturating_sub(median);
            if tail >= threshold {
                out.push(Anomaly {
                    code: "A001",
                    subject: lanes.labels[i].name.clone(),
                    message: format!(
                        "lane \"{}\" of group \"{group}\" finished {tail} ns after the \
                         group's median lane ({:.0}% of the run window): a straggler \
                         holding the makespan",
                        lanes.labels[i].name,
                        tail as f64 / window as f64 * 100.0
                    ),
                    start_ns: median,
                    end_ns: agg[i].last_end_ns,
                });
            }
        }
    }
}

/// A002: one lane of a group does a large multiple of the mean work.
fn detect_imbalance(
    lanes: &Lanes,
    agg: &[LaneStats],
    groups: &BTreeMap<&str, Vec<usize>>,
    window: u64,
    out: &mut Vec<Anomaly>,
) {
    for (group, members) in groups {
        if members.len() < 2 {
            continue;
        }
        let total: u64 = members.iter().map(|&i| agg[i].busy_ns).sum();
        if total == 0 {
            continue;
        }
        let busiest = *members
            .iter()
            .max_by_key(|&&i| agg[i].busy_ns)
            .expect("non-empty group");
        let max_busy = agg[busiest].busy_ns;
        let min_busy = members.iter().map(|&i| agg[i].busy_ns).min().unwrap_or(0);
        let mean = total as f64 / members.len() as f64;
        let spread = max_busy - min_busy;
        if max_busy as f64 >= IMBALANCE_FACTOR * mean
            && spread as f64 >= IMBALANCE_MIN_SPREAD_FRACTION * window as f64
        {
            out.push(Anomaly {
                code: "A002",
                subject: (*group).to_string(),
                message: format!(
                    "group \"{group}\" is load-imbalanced: lane \"{}\" did {max_busy} ns \
                     of work, {:.1}x the group's per-lane mean of {mean:.0} ns",
                    lanes.labels[busiest].name,
                    max_busy as f64 / mean.max(1.0)
                ),
                start_ns: agg[busiest].first_start_ns.min(agg[busiest].last_end_ns),
                end_ns: agg[busiest].last_end_ns,
            });
        }
    }
}

/// A003: a group obtains most of its work by stealing.
fn detect_steal_storms(trace: &RunTrace, lanes: &Lanes, out: &mut Vec<Anomaly>) {
    #[derive(Default)]
    struct StealAgg {
        dequeues: u64,
        steals: u64,
        first_steal: u64,
        last_steal: u64,
    }
    let mut per_group: BTreeMap<&str, StealAgg> = BTreeMap::new();
    trace.for_each_span(|_, span| {
        let lane = lanes.lane(span.worker);
        let Some(provenance) = span.provenance.filter(|_| !lane.is_link()) else {
            return;
        };
        let a = per_group.entry(lane.group_name()).or_default();
        a.dequeues += 1;
        if provenance.is_steal() {
            if a.steals == 0 {
                a.first_steal = span.start;
            }
            a.steals += 1;
            a.last_steal = span.start;
        }
    });
    for (group, a) in per_group {
        if a.dequeues < STEAL_MIN_DEQUEUES || a.steals == 0 {
            continue;
        }
        let ratio = a.steals as f64 / a.dequeues as f64;
        if ratio >= STEAL_RATIO {
            out.push(Anomaly {
                code: "A003",
                subject: group.to_string(),
                message: format!(
                    "group \"{group}\" stole {} of its {} dequeues ({:.0}%): a steal \
                     storm — initial placement is fighting the group's affinity",
                    a.steals,
                    a.dequeues,
                    ratio * 100.0
                ),
                start_ns: a.first_steal,
                end_ns: a.last_steal.max(a.first_steal),
            });
        }
    }
}

/// A004: a link's busy time covers almost the whole run window.
fn detect_saturated_links(lanes: &Lanes, agg: &[LaneStats], window: u64, out: &mut Vec<Anomaly>) {
    let mut per_link: BTreeMap<&str, LaneStats> = BTreeMap::new();
    for (lane, a) in lanes.labels.iter().zip(agg) {
        if lane.is_link() {
            per_link.entry(link_base(&lane.name)).or_default().absorb(a);
        }
    }
    for (link, a) in per_link {
        let utilization = a.busy_ns as f64 / window as f64;
        if utilization >= LINK_BUSY_FRACTION {
            out.push(Anomaly {
                code: "A004",
                subject: link.to_string(),
                message: format!(
                    "link \"{link}\" was busy {:.0}% of the run window ({} of {window} ns): \
                     the interconnect is saturated and transfers are the bottleneck",
                    utilization * 100.0,
                    a.busy_ns
                ),
                start_ns: a.first_start_ns,
                end_ns: a.last_end_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Provenance, TraceEvent};
    use crate::labels::TaskTable;
    use crate::trace::{LaneLabel, RunTrace, TraceMeta, WorkerTrace};

    fn ev(ts: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { ts, kind }
    }

    fn lane_label(name: &str, group: &str) -> LaneLabel {
        LaneLabel {
            name: name.to_string(),
            group: Some(group.to_string()),
        }
    }

    fn task_infos(n: usize) -> TaskTable {
        let mut tasks = TaskTable::default();
        (0..n).for_each(|i| tasks.push(&format!("t{i}"), "task", None));
        tasks
    }

    fn span_events(task: u32, start: u64, end: u64) -> Vec<TraceEvent> {
        vec![ev(
            start,
            EventKind::TaskRun {
                task,
                end,
                provenance: None,
            },
        )]
    }

    fn worker(i: usize, events: Vec<TraceEvent>) -> WorkerTrace {
        WorkerTrace {
            worker: i,
            events: events.into(),
            overwritten: 0,
        }
    }

    fn codes(anomalies: &[Anomaly]) -> Vec<&'static str> {
        anomalies.iter().map(|a| a.code).collect()
    }

    /// Three cpu lanes; cpu0 and cpu1 end at 1000, cpu2's work ends at
    /// `end`, which is also the run window.
    fn straggler_trace(end: u64) -> RunTrace {
        RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![
                    lane_label("cpu0", "cpus"),
                    lane_label("cpu1", "cpus"),
                    lane_label("cpu2", "cpus"),
                ],
                tasks: task_infos(4),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![
                worker(0, span_events(0, 0, 1000)),
                worker(1, span_events(1, 0, 1000)),
                worker(2, {
                    let mut e = span_events(2, 0, 500);
                    e.extend(span_events(3, end - 500, end));
                    e
                }),
            ],
        }
    }

    #[test]
    fn straggler_lane_is_a001() {
        // cpu2 ends at 2000 while the median lane ends at 1000.
        let found = detect(&straggler_trace(2000));
        assert_eq!(codes(&found), ["A001"]);
        assert_eq!(found[0].subject, "cpu2");
        assert_eq!(found[0].start_ns, 1000);
        assert_eq!(found[0].end_ns, 2000);
    }

    #[test]
    fn straggler_tail_at_the_fraction_is_a001() {
        // A 1333 ns window puts the 25 % threshold at 333 ns: a 333 ns
        // tail fires, a 332 ns tail in a 1332 ns window does not.
        assert_eq!(codes(&detect(&straggler_trace(1333))), ["A001"]);
        assert!(detect(&straggler_trace(1332)).is_empty());
    }

    #[test]
    fn imbalanced_group_is_a002() {
        // cpu0 does 900 ns, cpu1 does 50 ns: 1.9x the mean of 475 falls
        // short of 2.0 — then cpu1 at 0 pushes the factor over.
        let imbalanced = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![lane_label("cpu0", "cpus"), lane_label("cpu1", "cpus")],
                tasks: task_infos(1),
                time_unit: Default::default(),
            },
            prelude: vec![ev(0, EventKind::TaskReady { task: 0 })].into(),
            workers: vec![worker(0, span_events(0, 0, 900)), worker(1, Vec::new())],
        };
        let found = detect(&imbalanced);
        assert_eq!(codes(&found), ["A002"]);
        assert_eq!(found[0].subject, "cpus");

        // Balanced lanes: clean.
        let balanced = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![lane_label("cpu0", "cpus"), lane_label("cpu1", "cpus")],
                tasks: task_infos(2),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![
                worker(0, span_events(0, 0, 900)),
                worker(1, span_events(1, 0, 880)),
            ],
        };
        assert!(detect(&balanced).is_empty());
    }

    #[test]
    fn imbalance_under_the_spread_floor_is_not_a002() {
        // cpu0 does 40 ns and cpu1 nothing: 2x the mean of 20, but the
        // 40 ns spread is 4 % of the 1000 ns window, under the 10 % floor.
        let trace = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![lane_label("cpu0", "cpus"), lane_label("cpu1", "cpus")],
                tasks: task_infos(1),
                time_unit: Default::default(),
            },
            prelude: vec![ev(0, EventKind::TaskReady { task: 0 })].into(),
            workers: vec![worker(0, span_events(0, 960, 1000)), worker(1, Vec::new())],
        };
        assert!(detect(&trace).is_empty());
        // A 100 ns spread is exactly the 10 % floor: the factor decides.
        let at_floor = RunTrace {
            workers: vec![worker(0, span_events(0, 900, 1000)), worker(1, Vec::new())],
            ..trace
        };
        assert_eq!(codes(&detect(&at_floor)), ["A002"]);
    }

    /// One cpu lane dequeuing `n` tasks, every other one by steal.
    fn steal_trace(n: u32) -> RunTrace {
        let mut events = Vec::new();
        for t in 0..n {
            let prov = if t % 2 == 0 {
                Provenance::Steal {
                    victim: 1,
                    cross_group: false,
                }
            } else {
                Provenance::Local
            };
            let ts = u64::from(t) * 10;
            events.push(ev(
                ts,
                EventKind::TaskRun {
                    task: t,
                    end: ts + 5,
                    provenance: Some(prov),
                },
            ));
        }
        RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![lane_label("cpu0", "cpus")],
                tasks: task_infos(n as usize),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![worker(0, events)],
        }
    }

    #[test]
    fn steal_heavy_group_is_a003() {
        let found = detect(&steal_trace(20));
        assert_eq!(codes(&found), ["A003"]);
        assert_eq!(found[0].subject, "cpus");
        // 16 dequeues is the minimum; 15 (8 of them steals) is too few.
        assert_eq!(codes(&detect(&steal_trace(16))), ["A003"]);
        assert!(detect(&steal_trace(15)).is_empty());
    }

    #[test]
    fn saturated_link_is_a004() {
        // The PCIe link (split over two channel lanes) is busy 95% of the
        // 1000 ns window; the GPU computes only 40%.
        let trace = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![
                    lane_label("gpu0", "gpus"),
                    lane_label("PCIe:host-gpu0 #1", "links"),
                    lane_label("PCIe:host-gpu0 #2", "links"),
                ],
                tasks: task_infos(4),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![
                worker(0, span_events(0, 600, 1000)),
                worker(1, span_events(1, 0, 600)),
                worker(2, span_events(2, 250, 600)),
            ],
        };
        let found = detect(&trace);
        assert_eq!(codes(&found), ["A004"]);
        assert_eq!(found[0].subject, "PCIe:host-gpu0");
        assert_eq!(found[0].start_ns, 0);
        assert_eq!(found[0].end_ns, 600);
        // A link busy 899 of the 1000 ns, just under 90 %, stays clean.
        let lazier = RunTrace {
            workers: vec![
                worker(0, span_events(0, 600, 1000)),
                worker(1, span_events(1, 0, 600)),
                worker(2, span_events(2, 301, 600)),
            ],
            ..trace
        };
        assert!(detect(&lazier).is_empty());
    }

    #[test]
    fn link_busy_exactly_at_the_fraction_is_a004() {
        // The link is busy 9 of a 10 ns window: 9.0 / 10.0 is the same
        // `f64` as the 0.9 default, and the threshold is inclusive.
        let trace = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![
                    lane_label("gpu0", "gpus"),
                    lane_label("PCIe:host-gpu0 #1", "links"),
                ],
                tasks: task_infos(2),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![
                worker(0, span_events(0, 9, 10)),
                worker(1, span_events(1, 0, 9)),
            ],
        };
        assert_eq!(LINK_BUSY_FRACTION, 9.0 / 10.0);
        let found = detect(&trace);
        assert_eq!(codes(&found), ["A004"]);
        assert_eq!(found[0].subject, "PCIe:host-gpu0");
    }

    #[test]
    fn overflowed_ring_is_a005() {
        let trace = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![lane_label("cpu0", "cpus")],
                tasks: task_infos(1),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![WorkerTrace {
                worker: 0,
                events: span_events(0, 500, 900).into(),
                overwritten: 42,
            }],
        };
        let found = detect(&trace);
        assert_eq!(codes(&found), ["A005"]);
        assert_eq!(found[0].subject, "cpu0");
        assert!(found[0].message.contains("42 events"));
        // The window begins at the first retained event.
        assert_eq!(found[0].start_ns, 500);
        assert_eq!(found[0].end_ns, 900);
    }

    #[test]
    fn healthy_trace_is_clean() {
        let trace = RunTrace {
            meta: TraceMeta {
                platform: None,
                lanes: vec![lane_label("cpu0", "cpus"), lane_label("cpu1", "cpus")],
                tasks: task_infos(2),
                time_unit: Default::default(),
            },
            prelude: Default::default(),
            workers: vec![
                worker(0, span_events(0, 0, 1000)),
                worker(1, span_events(1, 10, 990)),
            ],
        };
        assert!(detect(&trace).is_empty());
        // Empty traces are vacuously clean too.
        assert!(detect(&RunTrace::default()).is_empty());
    }
}
