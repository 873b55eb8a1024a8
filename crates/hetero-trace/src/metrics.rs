//! Counters and the fixed log₂-bucket histogram summarizing a run.

use crate::json::Json;
use crate::trace::RunTrace;
use std::collections::BTreeMap;

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

/// Named counters plus named histograms — the run-level metrics surface.
///
/// [`MetricsRegistry::from_trace`] derives the standard metric set from a
/// drained [`RunTrace`]: task latency, queue wait (ready → start), steal
/// counters and per-group busy time / utilization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to a counter (creating it at 0).
    pub(crate) fn inc(&mut self, name: impl Into<String>, by: u64) {
        *self.counters.entry(name.into()).or_insert(0) += by;
    }

    /// Reads a counter (0 when absent).
    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Derives the standard metric set from a trace:
    ///
    /// * counters `tasks_executed`, `dequeues`, `steals`,
    ///   `cross_group_steals`, `parks`, `events`, plus per-group
    ///   `group_busy_ns/<group>` and `group_tasks/<group>`;
    /// * histograms `task_latency_ns` (start → end) and `queue_wait_ns`
    ///   (ready → start, tasks with a recorded ready event only).
    pub fn from_trace(trace: &RunTrace) -> Self {
        let mut m = MetricsRegistry::new();
        m.inc("events", trace.total_events() as u64);

        // Ready timestamps may live on a different lane than the task's
        // execution; collect them globally first.
        let (ready_ts, readies) = trace.ready_timestamps();
        m.inc("readies", readies);

        // Totals are kept in locals (per lane for the group counters) and
        // folded into the registry once, so no span pays for a name.
        let mut latency = Histogram::default();
        let mut queue_wait = Histogram::default();
        let (mut dequeues, mut steals, mut cross_group_steals) = (0, 0, 0);
        // (busy ns, spans) per labelled lane, and for lanes past the table.
        let mut per_lane = vec![(0u64, 0u64); trace.meta.lanes.len()];
        let mut unlabelled = (0u64, 0u64);
        for span in trace.task_spans() {
            latency.observe(span.end - span.start);
            if let Some(ready) = ready_ts.get(span.task) {
                queue_wait.observe(span.start.saturating_sub(*ready));
            }
            if let Some(p) = span.provenance {
                dequeues += 1;
                steals += u64::from(p.is_steal());
                cross_group_steals += u64::from(p.is_cross_group());
            }
            let (busy, spans) = per_lane.get_mut(span.worker).unwrap_or(&mut unlabelled);
            *busy += span.end - span.start;
            *spans += 1;
        }
        let parks = trace
            .workers
            .iter()
            .flat_map(|w| w.events.iter())
            .filter(|e| matches!(e.kind, crate::event::EventKind::Park))
            .count() as u64;

        // A counter or histogram exists only once something was counted.
        for (name, n) in [
            ("tasks_executed", latency.count()),
            ("dequeues", dequeues),
            ("steals", steals),
            ("cross_group_steals", cross_group_steals),
            ("parks", parks),
        ] {
            if n > 0 {
                m.inc(name, n);
            }
        }
        let groups = trace.meta.lanes.iter().map(|l| l.group.as_deref());
        for (group, (busy, spans)) in groups.zip(per_lane).chain([(None, unlabelled)]) {
            if spans > 0 {
                let group = group.unwrap_or("ungrouped");
                m.inc(format!("group_busy_ns/{group}"), busy);
                m.inc(format!("group_tasks/{group}"), spans);
            }
        }
        for (name, histogram) in [("task_latency_ns", latency), ("queue_wait_ns", queue_wait)] {
            if histogram.count() > 0 {
                m.histograms.insert(name.to_string(), histogram);
            }
        }
        m
    }

    /// Per-group utilization over `wall_ns`: `group_busy_ns / (wall ×
    /// lanes-in-group)`, using the lane table of `trace`.
    pub fn group_utilization(&self, trace: &RunTrace, wall_ns: u64) -> Vec<(String, f64)> {
        let mut lanes_per_group: BTreeMap<&str, u64> = BTreeMap::new();
        for lane in &trace.meta.lanes {
            *lanes_per_group
                .entry(lane.group.as_deref().unwrap_or("ungrouped"))
                .or_insert(0) += 1;
        }
        lanes_per_group
            .into_iter()
            .map(|(group, lanes)| {
                let busy = self.counter(&format!("group_busy_ns/{group}"));
                let capacity = wall_ns.saturating_mul(lanes).max(1);
                (group.to_string(), busy as f64 / capacity as f64)
            })
            .collect()
    }

    /// The registry as JSON (`counters` object + `histograms` object).
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
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
    fn registry_from_trace_attributes_groups() {
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
                    events: vec![
                        TraceEvent {
                            ts: 10,
                            kind: EventKind::TaskDequeued {
                                task: 0,
                                provenance: Provenance::Local,
                            },
                        },
                        TraceEvent {
                            ts: 10,
                            kind: EventKind::TaskStart { task: 0 },
                        },
                        TraceEvent {
                            ts: 40,
                            kind: EventKind::TaskEnd { task: 0 },
                        },
                    ]
                    .into(),
                    overwritten: 0,
                },
                WorkerTrace {
                    worker: 1,
                    events: vec![
                        TraceEvent {
                            ts: 20,
                            kind: EventKind::TaskDequeued {
                                task: 1,
                                provenance: Provenance::Steal {
                                    victim: 0,
                                    cross_group: true,
                                },
                            },
                        },
                        TraceEvent {
                            ts: 20,
                            kind: EventKind::TaskStart { task: 1 },
                        },
                        TraceEvent {
                            ts: 60,
                            kind: EventKind::TaskEnd { task: 1 },
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
        let m = MetricsRegistry::from_trace(&trace);
        assert_eq!(m.counter("tasks_executed"), 2);
        assert_eq!(m.counter("steals"), 1);
        assert_eq!(m.counter("cross_group_steals"), 1);
        assert_eq!(m.counter("parks"), 1);
        assert_eq!(m.counter("group_busy_ns/cpus"), 30);
        assert_eq!(m.counter("group_busy_ns/gpus"), 40);
        assert_eq!(m.counter("group_tasks/gpus"), 1);
        let lat = &m.histograms["task_latency_ns"];
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.sum, 70);
        // Only task 0 had a ready event: one queue-wait sample of 10 ns.
        let wait = &m.histograms["queue_wait_ns"];
        assert_eq!(wait.count(), 1);
        assert_eq!(wait.sum, 10);

        let util = m.group_utilization(&trace, 100);
        let cpus = util.iter().find(|(g, _)| g == "cpus").unwrap().1;
        let gpus = util.iter().find(|(g, _)| g == "gpus").unwrap().1;
        assert!((cpus - 0.3).abs() < 1e-9);
        assert!((gpus - 0.4).abs() < 1e-9);
    }
}
