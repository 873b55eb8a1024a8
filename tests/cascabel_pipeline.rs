//! End-to-end integration of the Cascabel pipeline (paper Figure 4):
//! annotated source → repository → pre-selection → mapping → codegen →
//! compilation plan → simulated execution, across several PDL targets.

use cascabel::codegen::ProblemSpec;
use cascabel::driver::Cascabel;
use hetero_rt::prelude::*;
use pdl_discover::synthetic;
use simhw::machine::SimMachine;

const VECADD: &str = r#"
#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)
void vector_add(double *A, double *B) { for (int i = 0; i < N; i++) A[i] += B[i]; }

#pragma cascabel execute I_vecadd : (A:BLOCK:N, B:BLOCK:N)
vector_add(A, B);
"#;

fn simulate_result(
    platform: &pdl_core::platform::Platform,
    graph: &TaskGraph,
) -> hetero_rt::sim_engine::SimReport {
    let machine = SimMachine::from_platform(platform);
    simulate(graph, &machine, &mut HeftScheduler, &SimOptions::default()).unwrap()
}

#[test]
fn vecadd_runs_on_every_platform_without_source_changes() {
    let spec = ProblemSpec::with_size("N", 1 << 20);
    for platform in [
        synthetic::xeon_x5550_host(),
        synthetic::xeon_2gpu_testbed(),
        synthetic::gpgpu_cluster(2, 2),
    ] {
        let mut cc = Cascabel::new(platform.clone());
        let r = cc
            .compile(VECADD, &spec)
            .unwrap_or_else(|e| panic!("{}: {e}", platform.name));
        assert!(!r.output.graph.is_empty(), "{}", platform.name);
        let report = simulate_result(&platform, &r.output.graph);
        assert!(report.makespan.seconds() > 0.0, "{}", platform.name);
    }
}

#[test]
fn pipeline_artifacts_are_complete() {
    let mut cc = Cascabel::new(synthetic::xeon_2gpu_testbed());
    let r = cc
        .compile(VECADD, &ProblemSpec::with_size("N", 4096))
        .unwrap();

    // (1) Repository holds the input task + expert variants.
    let iface = cc.repository().interface("I_vecadd").unwrap();
    assert!(iface.implementations.len() >= 2);
    assert!(iface.has_cpu_fallback());

    // (2) Pre-selection kept something for every used interface.
    let vec_sel = r
        .selections
        .iter()
        .find(|s| s.interface == "I_vecadd")
        .unwrap();
    assert!(vec_sel.kept().count() >= 2); // x86 + OpenCL on this target

    // (3) Generated host program references the runtime.
    assert!(r.output.main_source.contains("starpu_init"));
    assert!(r.output.main_source.contains("starpu_shutdown"));

    // (4) Kernel files per architecture.
    assert!(r.output.kernel_sources.contains_key("x86"));
    assert!(r.output.kernel_sources.contains_key("gpu"));

    // (5) Compilation plan from PDL: gcc for host, nvcc for gpu, starpu lib.
    assert!(r.plan.compiles.iter().any(|c| c.compiler == "gcc"));
    assert!(r.plan.compiles.iter().any(|c| c.compiler == "nvcc"));
    assert!(r.plan.link.libraries.iter().any(|l| l == "starpu"));
}

#[test]
fn execution_group_annotation_controls_placement() {
    let gpu_src = r#"
#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)
void vector_add(double *A, double *B) { }
#pragma cascabel execute I_vecadd : gpus (A:BLOCK:N, B:BLOCK:N)
vector_add(A, B);
"#;
    let platform = synthetic::xeon_2gpu_testbed();
    let mut cc = Cascabel::new(platform.clone());
    let r = cc
        .compile(gpu_src, &ProblemSpec::with_size("N", 1 << 20))
        .unwrap();
    let report = simulate_result(&platform, &r.output.graph);
    // Every task landed on a gpu-group device.
    let machine = SimMachine::from_platform(&platform);
    for (_, dev) in &report.assignments {
        assert!(
            machine.devices[dev.0].groups.iter().any(|g| g == "gpus"),
            "task placed on {}",
            machine.devices[dev.0].pu_id
        );
    }
}

#[test]
fn fallback_guarantee_without_gpu_variants() {
    // A task with ONLY the x86 input variant still compiles and runs on the
    // GPU platform (on the CPU workers) — the §IV-C fall-back guarantee.
    let src = r#"
#pragma cascabel task : x86 : I_custom : custom01 : (X: readwrite)
void custom(double *X) { heavy(X); }
#pragma cascabel execute I_custom :
custom(X);
"#;
    let platform = synthetic::xeon_2gpu_testbed();
    let mut cc = Cascabel::with_empty_repository(platform.clone());
    let mut spec = ProblemSpec::default();
    spec.flops_hints.insert("I_custom".into(), 1e9);
    let r = cc.compile(src, &spec).unwrap();
    let report = simulate_result(&platform, &r.output.graph);
    let machine = SimMachine::from_platform(&platform);
    let (_, dev) = report.assignments[0];
    assert_eq!(machine.devices[dev.0].arch, "x86");
}

#[test]
fn unmapped_execution_group_fails_loudly() {
    let src = r#"
#pragma cascabel task : x86 : I_k : k01 : (X: readwrite)
void k(double *X) { }
#pragma cascabel execute I_k : martians (X:BLOCK:N)
k(X);
"#;
    let mut cc = Cascabel::new(synthetic::xeon_x5550_host());
    let err = cc
        .compile(src, &ProblemSpec::with_size("N", 100))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("martians"), "{msg}");
}

#[test]
fn generated_source_differs_per_platform_but_input_is_identical() {
    let spec = ProblemSpec::with_size("N", 1 << 20);
    let mut a = Cascabel::new(synthetic::xeon_x5550_host());
    let main_cpu = a.compile(VECADD, &spec).unwrap().output.main_source;
    let mut b = Cascabel::new(synthetic::xeon_2gpu_testbed());
    let main_gpu = b.compile(VECADD, &spec).unwrap().output.main_source;
    assert_ne!(main_cpu, main_gpu);
    assert!(main_cpu.contains("xeon-x5550-8core"));
    assert!(main_gpu.contains("xeon-x5550-gtx480-gtx285"));
}
