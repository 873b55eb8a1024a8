//! Portability sweep (DESIGN.md Abl. E): the same annotated input programs
//! translated against several PDL descriptors — the paper's "without the
//! need to modify the source program" claim, quantified.

use cascabel::codegen::ProblemSpec;
use cascabel::driver::Cascabel;
use hetero_rt::prelude::*;
use pdl_core::platform::Platform;
use pdl_discover::synthetic;
use simhw::machine::SimMachine;

/// Result of one (workload, platform) cell of the sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Workload name.
    pub workload: String,
    /// Platform name.
    pub platform: String,
    /// Virtual makespan (seconds); `None` if the workload cannot run there.
    pub makespan_s: Option<f64>,
    /// Number of tasks in the generated graph.
    pub tasks: usize,
    /// Variants kept by pre-selection.
    pub kept_variants: usize,
}

/// The platforms of the sweep.
pub(crate) fn sweep_platforms() -> Vec<Platform> {
    vec![
        synthetic::xeon_x5550_host(),
        synthetic::build_testbed(
            "xeon-x5550-gtx480",
            &synthetic::TestbedOptions {
                cpu_cores: 8,
                gpus: vec!["GeForce GTX 480"],
                dedicate_driver_cores: true,
                nvlink_gpus: false,
            },
        ),
        synthetic::xeon_2gpu_testbed(),
        synthetic::gpgpu_cluster(4, 2),
    ]
}

/// Workload sources (name, annotated program, spec).
pub(crate) fn sweep_workloads() -> Vec<(String, &'static str, ProblemSpec)> {
    let mut dgemm_spec = ProblemSpec::with_size("N", 4096);
    dgemm_spec.tile = Some(1024);
    vec![
        ("dgemm".to_string(), crate::fig5::DGEMM_INPUT, dgemm_spec),
        (
            "vecadd".to_string(),
            r#"
#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)
void vector_add(double *A, double *B) { for (int i = 0; i < N; i++) A[i] += B[i]; }
#pragma cascabel execute I_vecadd : (A:BLOCK:16777216, B:BLOCK:16777216)
vector_add(A, B);
"#,
            ProblemSpec::default(),
        ),
    ]
}

/// Runs the full sweep.
pub fn run() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for platform in sweep_platforms() {
        for (name, src, spec) in sweep_workloads() {
            let mut cc = Cascabel::new(platform.clone());
            let cell = match cc.compile(src, &spec) {
                Err(_) => SweepCell {
                    workload: name,
                    platform: platform.name.clone(),
                    makespan_s: None,
                    tasks: 0,
                    kept_variants: 0,
                },
                Ok(result) => {
                    let machine = SimMachine::from_platform(&platform);
                    let makespan = simulate(
                        &result.output.graph,
                        &machine,
                        &mut HeftScheduler,
                        &SimOptions::default(),
                    )
                    .ok()
                    .map(|r| r.makespan.seconds());
                    SweepCell {
                        workload: name,
                        platform: platform.name.clone(),
                        makespan_s: makespan,
                        tasks: result.output.graph.len(),
                        kept_variants: result.selections.iter().map(|s| s.kept().count()).sum(),
                    }
                }
            };
            cells.push(cell);
        }
    }
    cells
}

/// The `BENCH_portability.json` document: one object per sweep cell.
pub fn to_json(cells: &[SweepCell]) -> hetero_trace::json::Json {
    use hetero_trace::json::Json;
    Json::obj([
        (
            "schema",
            Json::Num(hetero_trace::summary::SCHEMA_VERSION as f64),
        ),
        ("kind", Json::str("portability-sweep")),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("workload", Json::str(c.workload.clone())),
                            ("platform", Json::str(c.platform.clone())),
                            (
                                "makespan_s",
                                c.makespan_s.map(Json::Num).unwrap_or(Json::Null),
                            ),
                            ("tasks", Json::Num(c.tasks as f64)),
                            ("kept_variants", Json::Num(c.kept_variants as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders the sweep as a table.
pub fn render(cells: &[SweepCell]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<28} {:>8} {:>9} {:>12}\n",
        "workload", "platform", "tasks", "variants", "makespan"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:<10} {:<28} {:>8} {:>9} {:>12}\n",
            c.workload,
            c.platform,
            c.tasks,
            c.kept_variants,
            match c.makespan_s {
                Some(m) => format!("{m:.4}s"),
                None => "n/a".to_string(),
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_cells() {
        let cells = run();
        assert_eq!(cells.len(), sweep_platforms().len() * 2);
        // Every cell ran (all platforms have x86 fall-back paths).
        for c in &cells {
            assert!(c.makespan_s.is_some(), "{} on {}", c.workload, c.platform);
            assert!(c.tasks > 0);
        }
    }

    #[test]
    fn more_gpus_means_faster_dgemm() {
        let cells = run();
        let dgemm: Vec<&SweepCell> = cells.iter().filter(|c| c.workload == "dgemm").collect();
        let find = |name: &str| {
            dgemm
                .iter()
                .find(|c| c.platform.contains(name))
                .unwrap()
                .makespan_s
                .unwrap()
        };
        let cpu_only = find("8core");
        let one_gpu = find("gtx480");
        let two_gpu = find("gtx480-gtx285");
        assert!(one_gpu < cpu_only, "{one_gpu} !< {cpu_only}");
        assert!(two_gpu < one_gpu, "{two_gpu} !< {one_gpu}");
    }

    #[test]
    fn render_is_tabular() {
        let text = render(&run());
        assert!(text.contains("workload"));
        assert!(text.lines().count() >= 9);
    }
}
