//! `BENCHMARK.json`, compiled in: the one place that names the workloads,
//! the metrics, their units and their regression bounds.

use hetero_trace::json::Json;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may get worse; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

fn document() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

fn text(value: &Json, key: &str) -> String {
    let field = value.get(key).and_then(Json::as_str);
    field
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key:?}"))
        .to_string()
}

/// The metrics of `end_to_end` or `per_layer`, in file order.
pub fn metrics(section: &str) -> Vec<Metric> {
    let doc = document();
    let listed = doc.get(section).map_or(&[][..], Json::items);
    listed
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            lower_is_better: text(m, "better") == "lower",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// Workload names, in file order.
pub fn workloads() -> Vec<String> {
    let doc = document();
    let listed = doc.get("workloads").map_or(&[][..], Json::items);
    listed.iter().map(|w| text(w, "name")).collect()
}

/// How long one run measures unless `--seconds` says otherwise.
pub fn run_seconds() -> f64 {
    document()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json: run_seconds")
}
