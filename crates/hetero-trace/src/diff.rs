//! Cross-run performance attribution: what changed between two runs, and
//! which platform resource is to blame?
//!
//! [`perf_diff`] takes two runs (base and head, each a [`RunTrace`] plus
//! its dependency edges), profiles both with the critical-path profiler
//! ([`crate::profile::critical_path`]) and produces a [`PerfDiff`] that
//! decomposes the wall-time delta into the profiler's blame categories
//! (`compute/<group>`, `transfer/<link>`, `queue-wait/<group>`,
//! `park/<group>`, `scheduler`). Because each profile's blame tiles its
//! own critical path exactly, the per-category deltas **sum to the
//! measured wall-time delta by construction** — attribution never loses
//! or invents a nanosecond (asserted by the test suite).
//!
//! On top of the wall-time decomposition the diff carries metric shifts
//! from both traces' tallies ([`RunTrace::stats`]): counter deltas
//! (steals, parks, per-group busy time, …) and histogram p50/p99 shifts
//! (task latency, queue wait).
//!
//! The diff renders as a human-readable table
//! ([`PerfDiff::render_table`]) and as schema-versioned JSON
//! ([`PerfDiff::to_json`], schema [`PERF_DIFF_SCHEMA`]) — the format the
//! `pdl perf-diff` CLI emits.

use crate::json::Json;
use crate::metrics::Counter;
use crate::profile::{critical_path, Profile};
use crate::trace::RunTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier of the JSON document.
pub const PERF_DIFF_SCHEMA: &str = "pdl-perf-diff/1";

/// One blame category's share of the wall-time delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryDelta {
    /// Blame category (`compute/<group>`, `transfer/<link>`,
    /// `queue-wait/<group>`, `park/<group>`, `scheduler`).
    pub category: String,
    /// Nanoseconds attributed to this category on the base run's
    /// critical path (0 when the category only appears in head).
    pub base_ns: u64,
    /// Nanoseconds attributed on the head run's critical path.
    pub head_ns: u64,
}

impl CategoryDelta {
    /// Signed change: positive means this category got slower.
    pub fn delta_ns(&self) -> i64 {
        self.head_ns as i64 - self.base_ns as i64
    }
}

/// A counter whose value changed between the runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Counter name (`steals`, `group_busy_ns/<group>`, …).
    pub name: String,
    /// Base-run value.
    pub base: u64,
    /// Head-run value.
    pub head: u64,
}

impl CounterDelta {
    /// Signed change.
    pub(crate) fn delta(&self) -> i64 {
        self.head as i64 - self.base as i64
    }
}

/// A histogram whose p50 or p99 shifted between the runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileShift {
    /// Histogram name.
    pub name: String,
    /// Base-run p50 (0 when the histogram was empty or absent).
    pub base_p50: u64,
    /// Head-run p50.
    pub head_p50: u64,
    /// Base-run p99.
    pub base_p99: u64,
    /// Head-run p99.
    pub head_p99: u64,
}

/// The decomposed difference between two runs.
///
/// Invariant: `categories` covers the union of both profiles' blame
/// categories, so `sum(delta_ns) == head_wall_ns - base_wall_ns` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfDiff {
    /// Base-run wall time (critical-path length).
    pub base_wall_ns: u64,
    /// Head-run wall time.
    pub head_wall_ns: u64,
    /// Per-category deltas, biggest regression first.
    pub categories: Vec<CategoryDelta>,
    /// Counters that changed, in name order.
    pub counters: Vec<CounterDelta>,
    /// Histograms whose p50/p99 shifted, in name order.
    pub quantiles: Vec<QuantileShift>,
}

impl PerfDiff {
    /// Signed wall-time change (positive = head is slower).
    pub fn delta_ns(&self) -> i64 {
        self.head_wall_ns as i64 - self.base_wall_ns as i64
    }

    /// The category that regressed the most, if any regressed at all.
    pub fn top_regression(&self) -> Option<&CategoryDelta> {
        self.categories.first().filter(|c| c.delta_ns() > 0)
    }

    /// Builds the wall-time decomposition from two profiles (no metric
    /// deltas; [`perf_diff`] adds those from the traces).
    pub(crate) fn from_profiles(base: &Profile, head: &Profile) -> PerfDiff {
        let mut by_cat: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for b in &base.blame {
            by_cat.entry(&b.category).or_default().0 = b.ns;
        }
        for b in &head.blame {
            by_cat.entry(&b.category).or_default().1 = b.ns;
        }
        let mut categories: Vec<CategoryDelta> = by_cat
            .into_iter()
            .map(|(category, (base_ns, head_ns))| CategoryDelta {
                category: category.to_string(),
                base_ns,
                head_ns,
            })
            .collect();
        categories.sort_by(|a, b| {
            b.delta_ns()
                .cmp(&a.delta_ns())
                .then_with(|| a.category.cmp(&b.category))
        });
        PerfDiff {
            base_wall_ns: base.critical_path_ns(),
            head_wall_ns: head.critical_path_ns(),
            categories,
            counters: Vec::new(),
            quantiles: Vec::new(),
        }
    }

    /// Adds counter deltas and histogram p50/p99 shifts from the tallies
    /// of both traces (only changed instruments are recorded).
    fn merge_metrics(&mut self, base_trace: &RunTrace, head_trace: &RunTrace) {
        let (base, head) = (base_trace.stats(), head_trace.stats());
        let mut counters: BTreeMap<Counter, (u64, u64)> = BTreeMap::new();
        for (name, v) in base.counters() {
            counters.entry(name).or_default().0 = v;
        }
        for (name, v) in head.counters() {
            counters.entry(name).or_default().1 = v;
        }
        for (name, (b, h)) in counters {
            self.push_counter(name, b, h);
        }
        let mut hists: BTreeMap<&str, [u64; 4]> = BTreeMap::new();
        for (name, hist) in base.histograms() {
            let e = hists.entry(name).or_default();
            e[0] = hist.quantile(0.50).unwrap_or(0);
            e[2] = hist.quantile(0.99).unwrap_or(0);
        }
        for (name, hist) in head.histograms() {
            let e = hists.entry(name).or_default();
            e[1] = hist.quantile(0.50).unwrap_or(0);
            e[3] = hist.quantile(0.99).unwrap_or(0);
        }
        for (name, [b50, h50, b99, h99]) in hists {
            self.push_quantiles(name, b50, h50, b99, h99);
        }
    }

    fn push_counter(&mut self, name: Counter, base: u64, head: u64) {
        if base != head {
            self.counters.push(CounterDelta {
                name: name.to_string(),
                base,
                head,
            });
        }
    }

    fn push_quantiles(
        &mut self,
        name: &str,
        base_p50: u64,
        head_p50: u64,
        base_p99: u64,
        head_p99: u64,
    ) {
        if base_p50 != head_p50 || base_p99 != head_p99 {
            self.quantiles.push(QuantileShift {
                name: name.to_string(),
                base_p50,
                head_p50,
                base_p99,
                head_p99,
            });
        }
    }

    /// The human-readable attribution table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let delta = self.delta_ns();
        let pct = if self.base_wall_ns == 0 {
            String::new()
        } else {
            format!(", {:+.1}%", delta as f64 / self.base_wall_ns as f64 * 100.0)
        };
        let _ = writeln!(
            out,
            "wall (critical path): {} -> {}  ({}{pct})",
            fmt_ns(self.base_wall_ns),
            fmt_ns(self.head_wall_ns),
            fmt_delta(delta),
        );
        let _ = writeln!(
            out,
            "  {:<32} {:>10} {:>10} {:>11} {:>8}",
            "category", "base", "head", "delta", "share"
        );
        for c in &self.categories {
            let share = if delta == 0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", c.delta_ns() as f64 / delta as f64 * 100.0)
            };
            let _ = writeln!(
                out,
                "  {:<32} {:>10} {:>10} {:>11} {:>8}",
                c.category,
                fmt_ns(c.base_ns),
                fmt_ns(c.head_ns),
                fmt_delta(c.delta_ns()),
                share
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for c in &self.counters {
                let _ = writeln!(
                    out,
                    "  {:<32} {} -> {} ({:+})",
                    c.name,
                    c.base,
                    c.head,
                    c.delta()
                );
            }
        }
        if !self.quantiles.is_empty() {
            let _ = writeln!(out, "histograms:");
            for q in &self.quantiles {
                let _ = writeln!(
                    out,
                    "  {:<32} p50 {} -> {}   p99 {} -> {}",
                    q.name,
                    fmt_ns(q.base_p50),
                    fmt_ns(q.head_p50),
                    fmt_ns(q.base_p99),
                    fmt_ns(q.head_p99)
                );
            }
        }
        if let Some(top) = self.top_regression() {
            let _ = writeln!(
                out,
                "top regression: {} ({} of the {} slowdown)",
                top.category,
                fmt_delta(top.delta_ns()),
                fmt_delta(delta)
            );
        }
        out
    }

    /// The diff as a schema-versioned JSON document
    /// (`"schema": "pdl-perf-diff/1"`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(PERF_DIFF_SCHEMA)),
            ("kind", Json::str("pdl-perf-diff")),
            ("base_wall_ns", Json::Num(self.base_wall_ns as f64)),
            ("head_wall_ns", Json::Num(self.head_wall_ns as f64)),
            ("delta_ns", Json::Num(self.delta_ns() as f64)),
            (
                "categories",
                Json::Arr(
                    self.categories
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("category", Json::str(c.category.clone())),
                                ("base_ns", Json::Num(c.base_ns as f64)),
                                ("head_ns", Json::Num(c.head_ns as f64)),
                                ("delta_ns", Json::Num(c.delta_ns() as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::str(c.name.clone())),
                                ("base", Json::Num(c.base as f64)),
                                ("head", Json::Num(c.head as f64)),
                                ("delta", Json::Num(c.delta() as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "quantiles",
                Json::Arr(
                    self.quantiles
                        .iter()
                        .map(|q| {
                            Json::obj([
                                ("name", Json::str(q.name.clone())),
                                ("base_p50", Json::Num(q.base_p50 as f64)),
                                ("head_p50", Json::Num(q.head_p50 as f64)),
                                ("base_p99", Json::Num(q.base_p99 as f64)),
                                ("head_p99", Json::Num(q.head_p99 as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Profiles both runs and decomposes the wall-time delta, including
/// metric deltas derived from the traces themselves. Fails when either
/// trace has no completed task spans (nothing to profile).
pub fn perf_diff(
    base: &RunTrace,
    base_deps: &[(u32, u32)],
    head: &RunTrace,
    head_deps: &[(u32, u32)],
) -> Result<PerfDiff, String> {
    let base_profile = critical_path(base, base_deps).map_err(|e| format!("base: {e}"))?;
    let head_profile = critical_path(head, head_deps).map_err(|e| format!("head: {e}"))?;
    let mut diff = PerfDiff::from_profiles(&base_profile, &head_profile);
    diff.merge_metrics(base, head);
    Ok(diff)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_delta(d: i64) -> String {
    let magnitude = fmt_ns(d.unsigned_abs());
    if d < 0 {
        format!("-{magnitude}")
    } else {
        format!("+{magnitude}")
    }
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

    /// A two-task pipeline: transfer on a `PCIe` link, then compute on
    /// the GPU. `transfer_ns` stretches the link span.
    fn pipeline_trace(transfer_ns: u64) -> RunTrace {
        RunTrace {
            meta: TraceMeta {
                platform: Some("testbed".to_string()),
                lanes: vec![
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
                WorkerTrace {
                    worker: 1,
                    events: vec![ev(
                        0,
                        EventKind::TaskRun {
                            task: 0,
                            end: transfer_ns,
                            provenance: None,
                        },
                    )]
                    .into(),
                    overwritten: 0,
                },
                WorkerTrace {
                    worker: 0,
                    events: vec![ev(
                        transfer_ns,
                        EventKind::TaskRun {
                            task: 1,
                            end: transfer_ns + 300,
                            provenance: None,
                        },
                    )]
                    .into(),
                    overwritten: 0,
                },
            ],
        }
    }

    #[test]
    fn category_deltas_sum_exactly_to_the_wall_delta() {
        let base = pipeline_trace(100);
        let head = pipeline_trace(400);
        let deps = [(0u32, 1u32)];
        let d = perf_diff(&base, &deps, &head, &deps).unwrap();
        assert_eq!(d.base_wall_ns, 400);
        assert_eq!(d.head_wall_ns, 700);
        assert_eq!(d.delta_ns(), 300);
        let sum: i64 = d.categories.iter().map(CategoryDelta::delta_ns).sum();
        assert_eq!(sum, d.delta_ns());
        let top = d.top_regression().expect("something regressed");
        assert_eq!(top.category, "transfer/PCIe:host-gpu0");
        assert_eq!(top.delta_ns(), 300);
    }

    #[test]
    fn improvement_has_no_top_regression() {
        let base = pipeline_trace(400);
        let head = pipeline_trace(100);
        let deps = [(0u32, 1u32)];
        let d = perf_diff(&base, &deps, &head, &deps).unwrap();
        assert_eq!(d.delta_ns(), -300);
        assert!(d.top_regression().is_none());
        let sum: i64 = d.categories.iter().map(CategoryDelta::delta_ns).sum();
        assert_eq!(sum, -300);
    }

    #[test]
    fn metrics_deltas_record_histogram_shifts() {
        let base = pipeline_trace(100);
        let head = pipeline_trace(400);
        let deps = [(0u32, 1u32)];
        let d = perf_diff(&base, &deps, &head, &deps).unwrap();
        // Task latency shifted (the transfer span got longer).
        let lat = d
            .quantiles
            .iter()
            .find(|q| q.name == "task_latency_ns")
            .expect("latency shifted");
        assert!(lat.head_p99 > lat.base_p99);
        // group_busy_ns/links counter moved by exactly the stretch.
        let busy = d
            .counters
            .iter()
            .find(|c| c.name == "group_busy_ns/links")
            .expect("link busy changed");
        assert_eq!(busy.delta(), 300);
    }

    #[test]
    fn table_and_json_render() {
        let base = pipeline_trace(100);
        let head = pipeline_trace(400);
        let deps = [(0u32, 1u32)];
        let d = perf_diff(&base, &deps, &head, &deps).unwrap();
        let table = d.render_table();
        assert!(table.contains("transfer/PCIe:host-gpu0"), "{table}");
        assert!(table.contains("top regression"), "{table}");
        let json = d.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(PERF_DIFF_SCHEMA)
        );
        assert_eq!(json.get("delta_ns").and_then(Json::as_f64), Some(300.0));
        // The JSON document round-trips through the parser.
        let back = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(back.get("schema"), json.get("schema"));
    }

    #[test]
    fn identical_runs_diff_to_zero() {
        let t = pipeline_trace(100);
        let deps = [(0u32, 1u32)];
        let d = perf_diff(&t, &deps, &t, &deps).unwrap();
        assert_eq!(d.delta_ns(), 0);
        assert!(d.counters.is_empty());
        assert!(d.quantiles.is_empty());
        assert!(d.top_regression().is_none());
        for c in &d.categories {
            assert_eq!(c.delta_ns(), 0);
        }
    }
}
