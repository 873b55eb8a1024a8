//! Per-layer metrics: how each one named in `BENCHMARK.json` is derived from
//! the spans and counters of a traced run.

use crate::harness::{in_pass, RunOutcome};
use crate::stats::{self, Span};
use std::collections::BTreeMap;

/// Counters that depend on thread timing and need not repeat between passes
/// (marked `~` in the README).
pub const APPROXIMATE_COUNTERS: &[&str] = &[
    "hetero-rt.steals",
    "hetero-rt.failed_steals",
    "hetero-rt.busy_share_sum",
    "hetero-trace.events",
    "hetero-trace.export_bytes",
];

/// Spans and counters of one traced run, indexed for the formulas below.
pub struct Layers<'a> {
    outcome: &'a RunOutcome,
    /// Per span name: self time summed per pass (or probe round), in ns.
    self_ns_by_pass: BTreeMap<&'static str, BTreeMap<u32, u64>>,
    /// Per span name: duration of every single call, in ms.
    call_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Share of each pass's wall time that no layer span covers.
    unattributed: Vec<f64>,
}

impl<'a> Layers<'a> {
    pub fn new(outcome: &'a RunOutcome) -> Self {
        let spans: &[Span] = &outcome.ctx.spans;
        let self_ns = stats::self_times_ns(spans);
        let mut self_ns_by_pass: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
        let mut call_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut unattributed = Vec::new();
        for (span, own) in spans.iter().zip(self_ns) {
            let duration = span.end_ns - span.start_ns;
            if span.name == "pass" {
                if in_pass(span) && duration > 0 {
                    unattributed.push(own as f64 / duration as f64);
                }
                continue;
            }
            *self_ns_by_pass
                .entry(span.name)
                .or_default()
                .entry(span.pass)
                .or_insert(0) += own;
            call_ms
                .entry(span.name)
                .or_default()
                .push(duration as f64 / 1e6);
        }
        Layers {
            outcome,
            self_ns_by_pass,
            call_ms,
            unattributed,
        }
    }

    /// Median over passes of the self time spent in spans of this name, ms.
    fn ms(&self, span: &str) -> f64 {
        let per_pass: Vec<f64> = self
            .self_ns_by_pass
            .get(span)
            .map(|by_pass| by_pass.values().map(|&ns| ns as f64 / 1e6).collect())
            .unwrap_or_default();
        stats::median(&per_pass)
    }

    /// Median duration of one call of this name, ms.
    fn call_ms(&self, span: &str) -> f64 {
        stats::median(self.call_ms.get(span).map_or(&[], Vec::as_slice))
    }

    /// Median over passes of a counter; a probe's value if no pass set it.
    fn count(&self, counter: &str) -> f64 {
        let ctx = &self.outcome.ctx;
        let per_pass: Vec<f64> = ctx
            .counter_history
            .iter()
            .filter_map(|pass| pass.get(counter).copied())
            .collect();
        if per_pass.is_empty() {
            ctx.probe_counters.get(counter).copied().unwrap_or(0.0)
        } else {
            stats::median(&per_pass)
        }
    }
}

/// `a / b`, or 0 when the workload never exercised the denominator.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

type Formula = fn(&Layers) -> f64;

/// Every per-layer metric, in the order of the README table. A unit test
/// holds this list and `BENCHMARK.json` to the same names.
pub const PER_LAYER: &[(&str, Formula)] = &[
    ("pdl-xml.from_xml_ms", |l| l.ms("pdl-xml.from_xml")),
    ("pdl-xml.from_xml_mb_per_s", |l| {
        ratio(
            l.count("pdl-xml.bytes_in") / 1e6,
            l.ms("pdl-xml.from_xml") / 1e3,
        )
    }),
    ("pdl-xml.to_xml_ms", |l| l.ms("pdl-xml.to_xml")),
    ("pdl-xml.bytes_in", |l| l.count("pdl-xml.bytes_in")),
    ("pdl-query.select_ms", |l| l.ms("pdl-query.select")),
    ("pdl-query.route_ms", |l| l.ms("pdl-query.route")),
    ("pdl-query.matches", |l| l.count("pdl-query.matches")),
    ("pdl-registry.publish_ms", |l| l.ms("pdl-registry.publish")),
    ("pdl-registry.resolve_p50_ns", |l| {
        l.call_ms("pdl-registry.resolve") * 1e6
    }),
    ("pdl-registry.select_ms", |l| l.ms("pdl-registry.select")),
    ("pdl-registry.diff_ms", |l| l.ms("pdl-registry.diff")),
    ("pdl-registry.releases", |l| {
        l.count("pdl-registry.releases")
    }),
    ("pdl-registry.dedup_share", |l| {
        ratio(
            l.count("pdl-registry.dedup_publishes"),
            l.count("pdl-registry.publishes"),
        )
    }),
    ("pdl-analyze.analyze_platform_ms", |l| {
        l.ms("pdl-analyze.analyze_platform")
    }),
    ("pdl-analyze.analyze_program_ms", |l| {
        l.ms("pdl-analyze.analyze_program")
    }),
    ("pdl-analyze.check_trace_ms", |l| {
        l.ms("pdl-analyze.check_trace")
    }),
    ("pdl-analyze.anomalies_ms", |l| {
        l.ms("pdl-analyze.anomalies")
    }),
    ("pdl-analyze.diagnostics", |l| {
        l.count("pdl-analyze.diagnostics")
    }),
    ("cascabel.compile_ms", |l| l.ms("cascabel.compile")),
    ("cascabel.parse_ms", |l| l.ms("cascabel.parse")),
    ("cascabel.preselect_ms", |l| l.ms("cascabel.preselect")),
    ("cascabel.mapping_ms", |l| l.ms("cascabel.mapping")),
    ("cascabel.codegen_ms", |l| l.ms("cascabel.codegen")),
    ("cascabel.compplan_ms", |l| l.ms("cascabel.compplan")),
    ("cascabel.graph_tasks", |l| l.count("cascabel.graph_tasks")),
    ("cascabel.generated_bytes", |l| {
        l.count("cascabel.generated_bytes")
    }),
    ("cascabel.variants_kept", |l| {
        l.count("cascabel.variants_kept")
    }),
    ("cascabel.variants_pruned", |l| {
        l.count("cascabel.variants_pruned")
    }),
    ("kernels.fork_join_graph_ms", |l| {
        l.ms("kernels.fork_join_graph")
    }),
    ("kernels.dgemm_graph_ms", |l| l.ms("kernels.dgemm_graph")),
    ("kernels.graph_tasks_per_s", |l| {
        ratio(
            l.count("kernels.graph_tasks"),
            (l.ms("kernels.fork_join_graph") + l.ms("kernels.dgemm_graph")) / 1e3,
        )
    }),
    ("hetero-rt.compile_graph_ms", |l| {
        l.ms("hetero-rt.compile_graph")
    }),
    ("hetero-rt.run_compiled_ms", |l| {
        l.call_ms("hetero-rt.run_compiled")
    }),
    ("hetero-rt.run_compiled_tasks_per_s", |l| {
        ratio(
            l.count("hetero-rt.batch_tasks"),
            l.ms("hetero-rt.run_compiled") / 1e3,
        )
    }),
    ("hetero-rt.from_graph_ms", |l| l.ms("hetero-rt.from_graph")),
    ("hetero-rt.run_tasks_ms", |l| l.ms("hetero-rt.run_tasks")),
    ("hetero-rt.run_traced_ms", |l| l.ms("hetero-rt.run_traced")),
    ("hetero-rt.steals", |l| l.count("hetero-rt.steals")),
    ("hetero-rt.failed_steals", |l| {
        l.count("hetero-rt.failed_steals")
    }),
    ("hetero-rt.steal_success_share", |l| {
        let steals = l.count("hetero-rt.steals");
        ratio(steals, steals + l.count("hetero-rt.failed_steals"))
    }),
    ("hetero-rt.busy_share", |l| {
        ratio(
            l.count("hetero-rt.busy_share_sum"),
            l.count("hetero-rt.thread_runs"),
        )
    }),
    ("hetero-rt.simulate_ms", |l| l.ms("hetero-rt.simulate")),
    ("hetero-rt.simulate_us_per_task", |l| {
        ratio(
            l.ms("hetero-rt.simulate") * 1e3,
            l.count("hetero-rt.list_tasks"),
        )
    }),
    ("hetero-rt.simulate_dynamic_ms", |l| {
        l.ms("hetero-rt.simulate_dynamic")
    }),
    ("hetero-rt.simulate_dynamic_us_per_task", |l| {
        ratio(
            l.ms("hetero-rt.simulate_dynamic") * 1e3,
            l.count("hetero-rt.dynamic_tasks"),
        )
    }),
    ("hetero-rt.bridge_ms", |l| l.ms("hetero-rt.bridge")),
    ("hetero-rt.bytes_to_devices", |l| {
        l.count("hetero-rt.bytes_to_devices")
    }),
    ("hetero-rt.bytes_to_host", |l| {
        l.count("hetero-rt.bytes_to_host")
    }),
    ("hetero-rt.bytes_peer", |l| l.count("hetero-rt.bytes_peer")),
    ("hetero-rt.assignments", |l| {
        l.count("hetero-rt.assignments")
    }),
    ("hetero-rt.sim_makespan_s", |l| l.outcome.sim_makespan_s),
    ("simhw.from_platform_ms", |l| l.ms("simhw.from_platform")),
    ("simhw.devices", |l| l.count("simhw.devices")),
    ("simhw.links", |l| l.count("simhw.links")),
    ("simhw.device_busy_share", |l| {
        ratio(
            l.count("simhw.device_busy_share_sum"),
            l.count("hetero-rt.simulations"),
        )
    }),
    ("simhw.link_busy_share_max", |l| {
        l.count("simhw.link_busy_share_max")
    }),
    ("simhw.hold_events_per_s", |l| {
        l.count("simhw.hold_events_per_s")
    }),
    ("hetero-trace.ring_overhead_pct", |l| {
        let plain = l.call_ms("hetero-rt.run_tasks");
        let traced = l.call_ms("hetero-rt.run_traced");
        if traced > 0.0 {
            ratio(traced - plain, plain) * 100.0
        } else {
            0.0
        }
    }),
    ("hetero-trace.events", |l| l.count("hetero-trace.events")),
    ("hetero-trace.overwritten", |l| {
        l.count("hetero-trace.overwritten")
    }),
    ("hetero-trace.export_ms", |l| l.ms("hetero-trace.export")),
    ("hetero-trace.export_mb_per_s", |l| {
        ratio(
            l.count("hetero-trace.export_bytes") / 1e6,
            l.ms("hetero-trace.export") / 1e3,
        )
    }),
    ("hetero-trace.export_bytes", |l| {
        l.count("hetero-trace.export_bytes")
    }),
    ("hetero-trace.parse_ms", |l| l.ms("hetero-trace.parse")),
    ("hetero-trace.critical_path_ms", |l| {
        l.ms("hetero-trace.critical_path")
    }),
    ("hetero-trace.folded_ms", |l| l.ms("hetero-trace.folded")),
    ("hetero-trace.chrome_ms", |l| l.ms("hetero-trace.chrome")),
    ("hetero-trace.summary_ms", |l| l.ms("hetero-trace.summary")),
    ("hetero-trace.perf_diff_ms", |l| {
        l.ms("hetero-trace.perf_diff")
    }),
    ("hetero-trace.blame_sum_error_ns", |l| {
        l.count("hetero-trace.blame_sum_error_ns")
    }),
    ("bench.passes", |l| l.outcome.traced_pass_ms.len() as f64),
    ("bench.pass_p50_ms", |l| stats::median(&l.outcome.pass_ms)),
    ("bench.pass_q1_ms", |l| {
        stats::quartiles(&l.outcome.pass_ms).0
    }),
    ("bench.pass_q3_ms", |l| {
        stats::quartiles(&l.outcome.pass_ms).2
    }),
    ("bench.pass_hi_ms", |l| {
        let passes = &l.outcome.pass_ms;
        stats::percentile(passes, stats::tail_percentile(passes.len()))
    }),
    ("bench.pass_hi_pct", |l| {
        f64::from(stats::tail_percentile(l.outcome.pass_ms.len()))
    }),
    ("bench.unattributed_share", |l| {
        stats::median(&l.unattributed)
    }),
    ("bench.trace_overhead_pct", |l| {
        let plain = stats::min(&l.outcome.pass_ms);
        ratio(stats::min(&l.outcome.traced_pass_ms) - plain, plain) * 100.0
    }),
    ("bench.failed_share", |l| {
        ratio(l.outcome.ctx.failed as f64, l.outcome.ctx.attempted as f64)
    }),
];

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_trace::json::Json;

    #[test]
    fn benchmark_json_and_formulas_name_the_same_metrics() {
        let doc = Json::parse(crate::spec::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let listed: Vec<&str> = doc
            .get("per_layer")
            .expect("per_layer")
            .items()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let derived: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed, derived);
    }
}
