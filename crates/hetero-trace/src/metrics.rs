//! The one tally of a trace ([`RunTrace::stats`]) and the fixed
//! log₂-bucket histogram it keeps.

use crate::event::EventKind;
use crate::json::Json;
use crate::lanes::Lanes;
use crate::trace::RunTrace;
use std::fmt;

/// Smallest bucket exponent: the first bucket holds values `<= 2^4` (16 ns).
const MIN_EXP: u32 = 4;
/// Largest bounded bucket exponent (2^40 ns ≈ 18 min); above is overflow.
const MAX_EXP: u32 = 40;
/// Buckets of every histogram in the crate: one per exponent in
/// `MIN_EXP..=MAX_EXP` plus the overflow bucket.
const BUCKETS: usize = (MAX_EXP - MIN_EXP + 2) as usize;

/// The one plain histogram: fixed log₂ buckets in nanoseconds — inclusive
/// upper bounds 2⁴, 2⁵, … 2⁴⁰, then overflow — in an inline array, so it
/// is allocation-free and `observe` is branch-free arithmetic. Every
/// quantile in the suite comes from [`Histogram::quantile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    /// `u64::MAX` while empty.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index of a value: the smallest `i` with `value <= 2^(4+i)`,
    /// or the overflow bucket past 2⁴⁰.
    #[inline]
    fn bucket(value: u64) -> usize {
        if value <= (1 << MIN_EXP) {
            return 0;
        }
        // ceil(log2(value)) for value > 1.
        let bits = u64::BITS - (value - 1).leading_zeros();
        ((bits - MIN_EXP) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for overflow).
    fn upper_bound(i: usize) -> u64 {
        if i + 1 < BUCKETS {
            1 << (MIN_EXP + i as u32)
        } else {
            u64::MAX
        }
    }

    /// Records one observation — pure arithmetic, no allocation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// `(inclusive upper bound, count)` per bucket; the final bucket is
    /// `(u64::MAX, overflow count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &n)| (Self::upper_bound(i), n))
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the containing bucket, clamped to the observed `[min, max]`
    /// range so coarse buckets never report values outside what was seen.
    /// `None` when empty. The edges are exact, not interpolated:
    /// `q <= 0` returns the observed minimum and `q >= 1` the maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        let mut lo = 0u64;
        for (hi, n) in self.buckets() {
            if n > 0 && cum + n >= target {
                let lo = lo.max(self.min).min(hi);
                let hi = hi.min(self.max).max(lo);
                let frac = (target - cum) as f64 / n as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return Some((v.round() as u64).clamp(self.min, self.max));
            }
            cum += n;
            lo = hi;
        }
        Some(self.max)
    }

    /// The histogram as JSON.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            ("mean", Json::Num(self.mean())),
            ("min", Json::Num(self.min().unwrap_or(0) as f64)),
            ("max", Json::Num(self.max().unwrap_or(0) as f64)),
            ("p50", Json::Num(self.quantile(0.50).unwrap_or(0) as f64)),
            ("p90", Json::Num(self.quantile(0.90).unwrap_or(0) as f64)),
            ("p99", Json::Num(self.quantile(0.99).unwrap_or(0) as f64)),
            (
                "buckets",
                Json::Arr(
                    self.buckets()
                        .map(|(le, n)| {
                            Json::obj([
                                (
                                    "le",
                                    if le == u64::MAX {
                                        Json::str("+inf")
                                    } else {
                                        Json::Num(le as f64)
                                    },
                                ),
                                ("count", Json::Num(n as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Busy time, span count and extent of one recorded lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneStats {
    /// Sum of the lane's task span lengths (ns).
    pub busy_ns: u64,
    /// Task spans the lane completed.
    pub spans: u64,
    /// The earliest span start (0 without spans).
    pub first_start_ns: u64,
    /// The latest span end (0 without spans).
    pub last_end_ns: u64,
}

impl LaneStats {
    /// Adds the spans of `other` to these.
    pub(crate) fn absorb(&mut self, other: &LaneStats) {
        if other.spans == 0 {
            return;
        }
        if self.spans == 0 || other.first_start_ns < self.first_start_ns {
            self.first_start_ns = other.first_start_ns;
        }
        self.last_end_ns = self.last_end_ns.max(other.last_end_ns);
        self.busy_ns += other.busy_ns;
        self.spans += other.spans;
    }
}

/// The one tally of a trace, from [`RunTrace::stats`].
///
/// Readies and parks count records; dequeues, steals and cross-group
/// steals count the runs whose claim was recorded; tasks, lane busy time,
/// the histograms and the last end come from [`RunTrace::task_spans`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Completed task spans.
    pub tasks: usize,
    /// Ready records.
    pub readies: u64,
    /// Runs whose claim was recorded (prelude included).
    pub dequeues: u64,
    /// Claims whose provenance counts as a steal.
    pub steals: u64,
    /// Steals that crossed a logic-group boundary.
    pub cross_group_steals: u64,
    /// Park records.
    pub parks: u64,
    /// One row per entry of [`RunTrace::workers`], in that order.
    pub lanes: Vec<LaneStats>,
    /// Start → end of every span.
    pub task_latency_ns: Histogram,
    /// First ready → start, for spans whose task has a ready event.
    pub queue_wait_ns: Histogram,
    /// The latest span end (0 without spans).
    pub last_end_ns: u64,
    /// The earliest timestamp of any record (0 without records).
    pub(crate) start_ns: u64,
    /// [`RunTrace::total_events`].
    pub(crate) events: usize,
    /// Per group of the trace's lane table, in name order: its spans and
    /// its number of lanes.
    pub(crate) groups: Vec<(String, LaneStats, u64)>,
}

/// The name of a counter in [`TraceStats::counters`]. The variants are in
/// name order, so the derived order is the order of the names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Counter {
    CrossGroupSteals,
    Dequeues,
    Events,
    GroupBusyNs(String),
    GroupTasks(String),
    Parks,
    Readies,
    Steals,
    TasksExecuted,
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Counter::CrossGroupSteals => f.write_str("cross_group_steals"),
            Counter::Dequeues => f.write_str("dequeues"),
            Counter::Events => f.write_str("events"),
            Counter::GroupBusyNs(group) => write!(f, "group_busy_ns/{group}"),
            Counter::GroupTasks(group) => write!(f, "group_tasks/{group}"),
            Counter::Parks => f.write_str("parks"),
            Counter::Readies => f.write_str("readies"),
            Counter::Steals => f.write_str("steals"),
            Counter::TasksExecuted => f.write_str("tasks_executed"),
        }
    }
}

impl RunTrace {
    /// Counts the trace in one scan of its records and one walk of its
    /// task runs, and folds the lanes into the groups of its lane table.
    /// Checks nothing: [`RunTrace::validate`] says whether the numbers can
    /// be trusted.
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats {
            lanes: vec![LaneStats::default(); self.workers.len()],
            ..TraceStats::default()
        };
        let (ready, start_ns) = self.ready_timestamps(|kind| match kind {
            EventKind::TaskReady { .. } => stats.readies += 1,
            EventKind::TaskRun {
                provenance: Some(provenance),
                ..
            } => {
                stats.dequeues += 1;
                stats.steals += u64::from(provenance.is_steal());
                stats.cross_group_steals += u64::from(provenance.is_cross_group());
            }
            EventKind::Park => stats.parks += 1,
            _ => {}
        });
        stats.start_ns = start_ns;
        self.for_each_span(|lane, span| {
            let length = span.end.saturating_sub(span.start);
            stats.tasks += 1;
            stats.lanes[lane].absorb(&LaneStats {
                busy_ns: length,
                spans: 1,
                first_start_ns: span.start,
                last_end_ns: span.end,
            });
            stats.task_latency_ns.observe(length);
            if let Some(ready) = ready.get(span.task) {
                stats
                    .queue_wait_ns
                    .observe(span.start.saturating_sub(*ready));
            }
            stats.last_end_ns = stats.last_end_ns.max(span.end);
        });
        stats.events = self.total_events();
        let lanes = Lanes::of(self);
        let per_lane = stats.by_lane(self, &lanes);
        stats.groups = (lanes.groups().into_iter())
            .map(|(group, slots)| {
                let mut total = LaneStats::default();
                slots.iter().for_each(|&slot| total.absorb(&per_lane[slot]));
                (group.to_string(), total, slots.len() as u64)
            })
            .collect();
        stats
    }
}

impl TraceStats {
    /// The tally's rows folded into lane slots: one row per lane of
    /// `lanes`, the table of `trace`, which this tally was taken from.
    pub(crate) fn by_lane(&self, trace: &RunTrace, lanes: &Lanes) -> Vec<LaneStats> {
        let mut out = vec![LaneStats::default(); lanes.labels.len()];
        for (w, row) in trace.workers.iter().zip(&self.lanes) {
            out[lanes.slot(w.worker)].absorb(row);
        }
        out
    }

    /// Per-group utilization over `wall_ns`: group busy time over `wall ×
    /// lanes-in-group`, for every group of the trace's lane table.
    pub fn group_utilization(&self, wall_ns: u64) -> Vec<(String, f64)> {
        (self.groups.iter())
            .map(|(group, total, lanes)| {
                let capacity = wall_ns.saturating_mul(*lanes).max(1);
                (group.clone(), total.busy_ns as f64 / capacity as f64)
            })
            .collect()
    }

    /// The counters of the tally in name order: `events` and `readies`
    /// always; `tasks_executed`, `dequeues`, `steals`,
    /// `cross_group_steals` and `parks` when non-zero; and per group with
    /// a span, `group_busy_ns/<group>` and `group_tasks/<group>`.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (Counter, u64)> {
        let mut counters: Vec<(Counter, u64)> = [
            (Counter::TasksExecuted, self.tasks as u64),
            (Counter::Dequeues, self.dequeues),
            (Counter::Steals, self.steals),
            (Counter::CrossGroupSteals, self.cross_group_steals),
            (Counter::Parks, self.parks),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect();
        counters.push((Counter::Events, self.events as u64));
        counters.push((Counter::Readies, self.readies));
        for (group, total, _) in self.groups.iter().filter(|(_, total, _)| total.spans > 0) {
            counters.push((Counter::GroupBusyNs(group.clone()), total.busy_ns));
            counters.push((Counter::GroupTasks(group.clone()), total.spans));
        }
        counters.sort_unstable();
        counters.into_iter()
    }

    /// The non-empty histograms in name order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        [
            ("queue_wait_ns", &self.queue_wait_ns),
            ("task_latency_ns", &self.task_latency_ns),
        ]
        .into_iter()
        .filter(|(_, h)| h.count() > 0)
    }

    /// The counters and histograms as JSON (`counters` object +
    /// `histograms` object).
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters()
                        .map(|(name, n)| (name.to_string(), Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms()
                        .map(|(name, h)| (name.to_string(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Provenance, TraceEvent};
    use crate::labels::TaskInfo;
    use crate::trace::{LaneLabel, TraceMeta, WorkerTrace};

    #[test]
    fn histogram_bucket_math() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(16), 0);
        assert_eq!(Histogram::bucket(17), 1);
        assert_eq!(Histogram::bucket(32), 1);
        assert_eq!(Histogram::bucket(33), 2);
        assert_eq!(Histogram::bucket(1 << 40), BUCKETS - 2);
        assert_eq!(Histogram::bucket((1 << 40) + 1), BUCKETS - 1);
        assert_eq!(Histogram::bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn default_histogram_spans_ns_to_minutes() {
        let bounds: Vec<u64> = Histogram::default().buckets().map(|(le, _)| le).collect();
        assert_eq!(bounds.len(), BUCKETS);
        assert_eq!(bounds[0], 16);
        assert_eq!(bounds[BUCKETS - 2], 1 << 40);
        assert_eq!(bounds[BUCKETS - 1], u64::MAX);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        for v in [5, 16, 17, 1000, 1 << 41] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum, 1038 + (1 << 41));
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(1 << 41));
        let occupied: Vec<(u64, u64)> = h.buckets().filter(|&(_, n)| n > 0).collect();
        // ≤16 → 2 (5 and the inclusive 16), ≤32 → 1, ≤1024 → 1, overflow → 1.
        assert_eq!(occupied, vec![(16, 2), (32, 1), (1024, 1), (u64::MAX, 1)]);
        let json = h.to_json();
        assert_eq!(json.get("count").and_then(Json::as_u64), Some(5));
        assert_eq!(json.get("buckets").unwrap().items().len(), BUCKETS);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100u64 {
            h.observe(v);
        }
        // Uniform 1..=100: 32 observations lie at or below 32, so the 50th
        // is 18/32 of the way through the (32, 64] bucket.
        assert_eq!(h.quantile(0.5), Some(50));
        // Extremes are exact, not interpolated.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(100));
        // The top bucket (64, 128] is clamped to the observed maximum.
        let p99 = h.quantile(0.99).unwrap();
        assert!((90..=100).contains(&p99), "p99 = {p99}");
        // A single observation reports itself at every quantile.
        let mut one = Histogram::new();
        one.observe(5_000);
        assert_eq!(one.quantile(0.5), Some(5_000));
        assert_eq!(one.quantile(0.99), Some(5_000));
        // Overflow-bucket observations are bounded by max.
        let mut big = Histogram::new();
        big.observe((1 << 41) + 70);
        big.observe((1 << 41) + 90);
        let p99 = big.quantile(0.99).unwrap();
        assert!(
            ((1 << 41) + 70..=(1 << 41) + 90).contains(&p99),
            "p99 = {p99}"
        );
        let json = big.to_json();
        assert!(json.get("p99").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn quantile_edges_return_min_max_and_none() {
        // Empty histogram: every quantile is None, including the edges.
        let empty = Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), None);
        }
        // q=0 / q=1 return the exact observed extremes even when both
        // land inside one wide bucket — (2^19, 2^20] — that interpolation
        // would smear.
        let mut h = Histogram::new();
        h.observe(600_000);
        h.observe(999_999);
        assert_eq!(Histogram::bucket(600_000), Histogram::bucket(999_999));
        assert_eq!(h.quantile(0.0), Some(600_000));
        assert_eq!(h.quantile(1.0), Some(999_999));
        // Out-of-range q clamps to the same exact edges.
        assert_eq!(h.quantile(-3.0), Some(600_000));
        assert_eq!(h.quantile(7.0), Some(999_999));
        // Interior quantiles stay within the observed range.
        let p50 = h.quantile(0.5).unwrap();
        assert!((600_000..=999_999).contains(&p50));
    }

    #[test]
    fn stats_attribute_groups() {
        let trace = RunTrace {
            meta: TraceMeta {
                platform: Some("testbed".to_string()),
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
                tasks: [
                    TaskInfo {
                        label: "a",
                        category: "task",
                        group: None,
                    },
                    TaskInfo {
                        label: "b",
                        category: "task",
                        group: None,
                    },
                ]
                .into_iter()
                .collect(),
                time_unit: Default::default(),
            },
            prelude: vec![TraceEvent {
                ts: 0,
                kind: EventKind::TaskReady { task: 0 },
            }]
            .into(),
            workers: vec![
                WorkerTrace {
                    worker: 0,
                    events: vec![TraceEvent {
                        ts: 10,
                        kind: EventKind::TaskRun {
                            task: 0,
                            end: 40,
                            provenance: Some(Provenance::Local),
                        },
                    }]
                    .into(),
                    overwritten: 0,
                },
                WorkerTrace {
                    worker: 1,
                    events: vec![
                        TraceEvent {
                            ts: 20,
                            kind: EventKind::TaskRun {
                                task: 1,
                                end: 60,
                                provenance: Some(Provenance::Steal {
                                    victim: 0,
                                    cross_group: true,
                                }),
                            },
                        },
                        TraceEvent {
                            ts: 61,
                            kind: EventKind::Park,
                        },
                    ]
                    .into(),
                    overwritten: 0,
                },
            ],
        };
        let stats = trace.stats();
        let counter = |name: &str| {
            stats
                .counters()
                .find(|(c, _)| c.to_string() == name)
                .map_or(0, |(_, n)| n)
        };
        assert_eq!(counter("tasks_executed"), 2);
        assert_eq!(counter("steals"), 1);
        assert_eq!(counter("cross_group_steals"), 1);
        assert_eq!(counter("parks"), 1);
        assert_eq!(counter("group_busy_ns/cpus"), 30);
        assert_eq!(counter("group_busy_ns/gpus"), 40);
        assert_eq!(counter("group_tasks/gpus"), 1);
        let lanes = [(30, 1, 10, 40), (40, 1, 20, 60)].map(
            |(busy_ns, spans, first_start_ns, last_end_ns)| LaneStats {
                busy_ns,
                spans,
                first_start_ns,
                last_end_ns,
            },
        );
        assert_eq!(stats.lanes, lanes);
        assert_eq!(stats.last_end_ns, 60);
        let lat = &stats.task_latency_ns;
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.sum, 70);
        // Only task 0 had a ready event: one queue-wait sample of 10 ns.
        let wait = &stats.queue_wait_ns;
        assert_eq!(wait.count(), 1);
        assert_eq!(wait.sum, 10);
        // Counters come out in name order.
        let names: Vec<String> = stats.counters().map(|(c, _)| c.to_string()).collect();
        assert!(names.is_sorted(), "{names:?}");

        let util = stats.group_utilization(100);
        let cpus = util.iter().find(|(g, _)| g == "cpus").unwrap().1;
        let gpus = util.iter().find(|(g, _)| g == "gpus").unwrap().1;
        assert!((cpus - 0.3).abs() < 1e-9);
        assert!((gpus - 0.4).abs() < 1e-9);
    }

    /// A worker past the lane table is one more `ungrouped` lane: its busy
    /// time and its capacity both count in the utilization, and the
    /// profiler's what-if counts it among the group's lanes.
    #[test]
    fn a_worker_past_the_lane_table_is_an_ungrouped_lane() {
        let span = |task: u32, start: u64, end: u64| {
            let kind = EventKind::TaskRun {
                task,
                end,
                provenance: None,
            };
            vec![TraceEvent { ts: start, kind }]
        };
        let label = |name: &str, group: Option<&str>| LaneLabel {
            name: name.to_string(),
            group: group.map(str::to_string),
        };
        let mut meta = TraceMeta {
            lanes: vec![label("c0", Some("cpus")), label("x1", None)],
            ..TraceMeta::default()
        };
        (0..3).for_each(|i| meta.tasks.push(&format!("t{i}"), "task", None));
        let mut trace = RunTrace {
            meta,
            prelude: Default::default(),
            workers: (0..3)
                .map(|worker| WorkerTrace {
                    worker,
                    events: span(worker as u32, 0, 100).into(),
                    overwritten: 0,
                })
                .collect(),
        };
        trace.validate().unwrap();
        let util = trace.stats().group_utilization(100);
        assert_eq!(
            util,
            [("cpus".to_string(), 1.0), ("ungrouped".to_string(), 1.0)]
        );

        // Task 2 waits 40 ns for a lane of `ungrouped`, which has two: one
        // more PU leaves 2/3 of the wait.
        trace.prelude = vec![TraceEvent {
            ts: 0,
            kind: EventKind::TaskReady { task: 2 },
        }]
        .into();
        trace.workers[2].events = span(2, 40, 140).into();
        let profile = crate::profile::critical_path(&trace, &[]).unwrap();
        let pu = (profile.what_ifs.iter())
            .find(|w| w.description == "group ungrouped one more PU")
            .unwrap();
        assert_eq!(pu.saving_ns, 40 - 40 * 2 / 3);
    }
}
