//! Acceptance tests for the differential-profiling subsystem: a perf diff
//! must decompose the wall-clock delta into blame-category deltas that sum
//! *exactly* to the measured delta, and the committed regression fixtures
//! must be attributed to the transfer layer (with the matching `A004`
//! anomaly on the head run).

use hetero_trace::anomaly::detect;
use hetero_trace::diff::{perf_diff, CategoryDelta, PERF_DIFF_SCHEMA};
use hetero_trace::json::Json;
use hetero_trace::{codec, RunTrace};

fn fixture(name: &str) -> (RunTrace, Vec<(u32, u32)>) {
    let path = format!("{}/examples/traces/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    codec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn category_deltas_sum_exactly_to_wall_clock_delta() {
    let (base, base_deps) = fixture("perf_diff_base.trace.json");
    let (head, head_deps) = fixture("perf_diff_regressed.trace.json");
    let d = perf_diff(&base, &base_deps, &head, &head_deps).unwrap();

    assert_eq!(d.base_wall_ns, 160);
    assert_eq!(d.head_wall_ns, 1200);
    assert_eq!(d.delta_ns(), 1040);
    let sum: i64 = d.categories.iter().map(CategoryDelta::delta_ns).sum();
    assert_eq!(sum, d.delta_ns(), "blame deltas must tile the wall delta");

    // The diff is direction-symmetric: swapping base and head negates the
    // wall delta and every category delta, so the sum stays exact.
    let rev = perf_diff(&head, &head_deps, &base, &base_deps).unwrap();
    assert_eq!(rev.delta_ns(), -d.delta_ns());
    let rev_sum: i64 = rev.categories.iter().map(CategoryDelta::delta_ns).sum();
    assert_eq!(rev_sum, rev.delta_ns());
}

#[test]
fn injected_transfer_regression_is_attributed_to_the_link() {
    let (base, base_deps) = fixture("perf_diff_base.trace.json");
    let (head, head_deps) = fixture("perf_diff_regressed.trace.json");
    let d = perf_diff(&base, &base_deps, &head, &head_deps).unwrap();

    let top = d.top_regression().expect("a regression exists");
    assert_eq!(top.category, "transfer/PCIe:host-gpu0");
    assert_eq!(top.delta_ns(), d.delta_ns(), "the link absorbs all of it");

    // The compute category is untouched by the injected regression.
    let compute = d
        .categories
        .iter()
        .find(|c| c.category == "compute/gpus")
        .expect("compute category present");
    assert_eq!(compute.delta_ns(), 0);

    // The anomaly detector agrees: the head run saturates the same link.
    let anomalies = detect(&head);
    assert!(
        anomalies
            .iter()
            .any(|a| a.code == "A004" && a.subject == "PCIe:host-gpu0"),
        "expected A004 on PCIe:host-gpu0, got {anomalies:?}"
    );
    assert!(detect(&base).is_empty());

    // The median task — the 60-ns kernel — is the same span in both runs,
    // and both sides read it off the same buckets: only the tail moved.
    let latency = d
        .quantiles
        .iter()
        .find(|q| q.name == "task_latency_ns")
        .expect("p99 shifted, so the histogram is listed");
    assert_eq!(latency.base_p50, latency.head_p50);
    assert!(latency.head_p99 > latency.base_p99);
}

/// Machine-generated traces: the Fig. 5 testbed simulated with healthy
/// (32 GB/s) and degraded (2 GB/s) `PCIe`, pipelined and bridged. Sim
/// traces renumber tasks, so the diff runs without dependency edges —
/// sum-exactness must hold regardless.
#[test]
fn live_simulated_pair_stays_sum_exact() {
    use hetero_rt::prelude::*;
    let sim_trace = |pcie_gbs: f64| {
        let platform = bench::ablations::testbed_with_pcie(pcie_gbs);
        let machine = simhw::machine::SimMachine::from_platform(&platform);
        let mut graph = TaskGraph::new();
        let k = graph
            .add_codelet(Codelet::new("k").with_variant(Variant::new("gpu").requiring("Cuda")));
        let handle = graph.register_data("A", 600e6);
        for (label, mode) in [
            ("produce", AccessMode::Write),
            ("consume", AccessMode::Read),
        ] {
            graph.submit(k, label, 1e10, [DataAccess { handle, mode }], None);
        }
        let options = SimOptions {
            pipeline: TransferPipeline::full(),
            ..Default::default()
        };
        let report = simulate(
            &graph,
            &machine,
            &mut RoundRobinScheduler::default(),
            &options,
        )
        .expect("testbed simulation runs");
        sim_report_to_trace(&report, &machine)
    };
    let d = perf_diff(&sim_trace(32.0), &[], &sim_trace(2.0), &[]).unwrap();
    assert!(d.delta_ns() > 0, "degrading PCIe slows the simulated run");
    let sum: i64 = d.categories.iter().map(CategoryDelta::delta_ns).sum();
    assert_eq!(sum, d.delta_ns());
}

#[test]
fn perf_diff_json_document_is_schema_versioned_and_reparses() {
    let (base, base_deps) = fixture("perf_diff_base.trace.json");
    let (head, head_deps) = fixture("perf_diff_regressed.trace.json");
    let d = perf_diff(&base, &base_deps, &head, &head_deps).unwrap();

    let doc = Json::parse(&d.to_json().to_pretty()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(PERF_DIFF_SCHEMA)
    );
    assert_eq!(doc.get("delta_ns").and_then(Json::as_f64), Some(1040.0));
    let categories = doc.get("categories").unwrap().items();
    let json_sum: f64 = categories
        .iter()
        .filter_map(|c| c.get("delta_ns").and_then(Json::as_f64))
        .sum();
    assert_eq!(json_sum, 1040.0, "the exported document stays sum-exact");
}
