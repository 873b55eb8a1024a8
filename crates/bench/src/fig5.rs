//! Figure 5 of the paper: "Speedup after translation from single threaded
//! input program (single) to multithreaded (starpu) and GPGPU
//! (starpu+2gpu) versions."
//!
//! Experiment (paper §IV-D): DGEMM of two 8192×8192 double matrices,
//! serial input annotated with cascabel pragmas, translated by the
//! source-to-source compiler against two PDL descriptors of the testbed
//! (dual Xeon X5550, GTX 480 + GTX 285) and executed by the StarPU-style
//! runtime. The reproduction executes in virtual time on the PDL-derived
//! simulated machine (see DESIGN.md substitution table); speedup
//! relationships — who wins and by roughly what factor — are the result.

use cascabel::codegen::ProblemSpec;
use cascabel::driver::Cascabel;
use hetero_rt::prelude::*;
use hetero_trace::{json::Json, PhaseSpan, RunTrace};
use pdl_core::platform::Platform;
use pdl_discover::synthetic;
use simhw::machine::SimMachine;

/// The annotated serial input program of the experiment, identical for
/// every target platform.
pub const DGEMM_INPUT: &str = r#"
#include <cblas.h>

#pragma cascabel task : x86 : I_dgemm : dgemm_serial : (A: read, B: read, C: readwrite)
void my_dgemm(double *A, double *B, double *C) { cblas_dgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, N, N, N, 1.0, A, N, B, N, 1.0, C, N); }

#pragma cascabel execute I_dgemm : (A:BLOCK:N, B:BLOCK:N, C:BLOCK:N)
my_dgemm(A, B, C);
"#;

/// One configuration of the experiment.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Configuration label (`single`, `starpu`, `starpu+2gpu`).
    pub label: String,
    /// Virtual makespan in seconds.
    pub makespan_s: f64,
    /// Speedup vs. the `single` baseline.
    pub speedup: f64,
    /// Per-PU utilization (PU id, fraction).
    pub utilization: Vec<(String, f64)>,
    /// Bytes moved host→device during the run.
    pub bytes_to_devices: f64,
    /// Gantt chart (text).
    pub gantt: String,
    /// Virtual-time run trace (one lane per device, PDL-labeled) — feed to
    /// [`hetero_trace::chrome::export`] or [`hetero_trace::summary`].
    pub trace: RunTrace,
}

/// Full results of the Figure 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Results {
    /// Matrix dimension used.
    pub n: usize,
    /// Tile size used by the translated versions.
    pub tile: usize,
    /// The three configurations, in paper order.
    pub rows: Vec<Fig5Row>,
    /// Cascabel compile-phase timings per translated configuration
    /// (label → parse/preselect/mapping/codegen/compplan spans).
    pub compile_phases: Vec<(String, Vec<PhaseSpan>)>,
}

impl Fig5Results {
    /// Looks up a row by label.
    pub fn row(&self, label: &str) -> Option<&Fig5Row> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Renders the figure as a text table plus bar chart.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Figure 5 reproduction — DGEMM {n}x{n} (tile {tile}), translated from one serial input program\n\n",
            n = self.n,
            tile = self.tile
        ));
        out.push_str(&format!(
            "{:<14} {:>12} {:>9}\n",
            "version", "makespan", "speedup"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>11.3}s {:>8.2}x  |{}\n",
                r.label,
                r.makespan_s,
                r.speedup,
                "#".repeat((r.speedup * 2.0).round() as usize)
            ));
        }
        out
    }

    /// The `BENCH_fig5.json` run-summary document: per-row makespan,
    /// speedup, trace summary and compile-phase timings.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                let wall_ns = (r.makespan_s * 1e9).round().max(0.0) as u64;
                Json::obj([
                    ("label", Json::str(r.label.clone())),
                    ("makespan_s", Json::Num(r.makespan_s)),
                    ("speedup", Json::Num(r.speedup)),
                    ("bytes_to_devices", Json::Num(r.bytes_to_devices)),
                    (
                        "utilization",
                        Json::Arr(
                            r.utilization
                                .iter()
                                .map(|(pu, u)| {
                                    Json::obj([
                                        ("pu", Json::str(pu.clone())),
                                        ("utilization", Json::Num(*u)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("summary", hetero_trace::summary::to_json(&r.trace, wall_ns)),
                ])
            })
            .collect();
        let compile: Vec<Json> = self
            .compile_phases
            .iter()
            .map(|(label, phases)| {
                Json::obj([
                    ("label", Json::str(label.clone())),
                    (
                        "phases",
                        Json::Arr(
                            phases
                                .iter()
                                .map(|p| {
                                    Json::obj([
                                        ("name", Json::str(p.name.clone())),
                                        ("duration_ns", Json::Num(p.duration().as_nanos() as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            (
                "schema",
                Json::Num(hetero_trace::summary::SCHEMA_VERSION as f64),
            ),
            ("kind", Json::str("fig5")),
            ("n", Json::Num(self.n as f64)),
            ("tile", Json::Num(self.tile as f64)),
            ("rows", Json::Arr(rows)),
            ("compile_phases", Json::Arr(compile)),
        ])
    }
}

/// Simulates one translated program on one platform.
fn run_config(label: &str, platform: &Platform, graph: &TaskGraph) -> Fig5Row {
    let machine = SimMachine::from_platform(platform);
    let report = simulate(graph, &machine, &mut HeftScheduler, &SimOptions::default())
        .expect("fig5 configs always have runnable variants");
    Fig5Row {
        label: label.to_string(),
        makespan_s: report.makespan.seconds(),
        speedup: 0.0, // filled by caller
        utilization: report.utilization(),
        bytes_to_devices: report.bytes_to_devices,
        gantt: report.gantt(64),
        trace: sim_report_to_trace(&report, &machine),
    }
}

/// Runs the complete Figure 5 experiment.
///
/// `n` is the matrix dimension (paper: 8192), `tile` the block size of the
/// translated data-parallel versions (2048 reproduces the paper's shape
/// with 64 tile-multiply tasks).
pub fn run(n: usize, tile: usize) -> Fig5Results {
    let mut spec = ProblemSpec::with_size("N", n);
    spec.tile = Some(tile);

    // "single": the untranslated serial input program — one task, one CPU
    // core of the testbed.
    let single_platform = synthetic::xeon_x5550_host();
    let single_graph = kernels::graphs::dgemm_serial_graph(n);
    let mut single = run_config("single", &single_platform, &single_graph);

    // "starpu": translated against the CPU-only PDL descriptor.
    let starpu_platform = synthetic::xeon_x5550_host();
    let mut cc = Cascabel::new(starpu_platform.clone());
    let starpu_result = cc.compile(DGEMM_INPUT, &spec).expect("compiles");
    let mut starpu = run_config("starpu", &starpu_platform, &starpu_result.output.graph);

    // "starpu+2gpu": the same source against the GPU PDL descriptor.
    let gpu_platform = synthetic::xeon_2gpu_testbed();
    let mut cc = Cascabel::new(gpu_platform.clone());
    let gpu_result = cc.compile(DGEMM_INPUT, &spec).expect("compiles");
    let mut gpu = run_config("starpu+2gpu", &gpu_platform, &gpu_result.output.graph);

    let base = single.makespan_s;
    single.speedup = 1.0;
    starpu.speedup = base / starpu.makespan_s;
    gpu.speedup = base / gpu.makespan_s;

    Fig5Results {
        n,
        tile,
        rows: vec![single, starpu, gpu],
        compile_phases: vec![
            ("starpu".to_string(), starpu_result.phases),
            ("starpu+2gpu".to_string(), gpu_result.phases),
        ],
    }
}

/// The paper-scale run (8192, tile 2048).
pub fn run_paper_scale() -> Fig5Results {
    run(8192, 2048)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_shape() {
        let r = run_paper_scale();
        let single = r.row("single").unwrap();
        let starpu = r.row("starpu").unwrap();
        let gpu = r.row("starpu+2gpu").unwrap();

        assert_eq!(single.speedup, 1.0);
        // 8 cores minus runtime/transfer effects: clearly parallel, ≤ 8.
        assert!(
            starpu.speedup > 5.0 && starpu.speedup <= 8.05,
            "starpu speedup {}",
            starpu.speedup
        );
        // GPUs dominate: strictly better than CPU-only, and by a wide margin.
        assert!(
            gpu.speedup > 1.5 * starpu.speedup,
            "gpu {} vs starpu {}",
            gpu.speedup,
            starpu.speedup
        );
        // Data actually moved to devices in the GPU configuration only.
        assert_eq!(starpu.bytes_to_devices, 0.0);
        assert!(gpu.bytes_to_devices > 0.0);
    }

    /// The figure exactly as EXPERIMENTS.md quotes it.
    #[test]
    fn paper_scale_table_is_pinned() {
        assert_eq!(
            run_paper_scale().render(),
            "\
Figure 5 reproduction — DGEMM 8192x8192 (tile 2048), translated from one serial input program

version            makespan   speedup
single             114.820s     1.00x  |##
starpu              14.352s     8.00x  |################
starpu+2gpu          6.116s    18.77x  |######################################
"
        );
    }

    #[test]
    fn render_contains_rows() {
        let r = run(2048, 512);
        let text = r.render();
        assert!(text.contains("single"));
        assert!(text.contains("starpu+2gpu"));
        assert!(text.contains("speedup"));
    }
}
