//! The paper's §IV-A running example: an annotated vecadd, translated by
//! Cascabel against a GPU platform descriptor, then (a) simulated on the
//! PDL-derived machine and (b) actually executed with real data through the
//! threaded engine to verify functional correctness.
//!
//! Run with: `cargo run --example vecadd_offload`

use cascabel::codegen::ProblemSpec;
use cascabel::driver::Cascabel;
use hetero_rt::prelude::*;
use kernels::vecadd::{block_ranges, vecadd_chunk};
use simhw::machine::SimMachine;
use std::sync::{Arc, Mutex};

/// Verbatim structure of the paper's task definition/execution listings.
const ANNOTATED_SOURCE: &str = r#"
// Task definition
#pragma cascabel task : x86 : I_vecadd : vecadd01 : (A: readwrite, B: read)
void vector_add(double *A, double *B) { for (int i = 0; i < N; i++) A[i] += B[i]; };

// Task execution
#pragma cascabel execute I_vecadd : gpus (A:BLOCK:N, B:BLOCK:N)
vector_add(A, B);
"#;

const N: usize = 1 << 22; // 4M doubles
/// What a poisoned lock on `A` means.
const POISONED: &str = "a vecadd chunk panicked while writing A";

fn main() {
    // --- Translate against the 2-GPU testbed PDL. --------------------------
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    let mut cc = Cascabel::new(platform.clone());
    let result = cc
        .compile(ANNOTATED_SOURCE, &ProblemSpec::with_size("N", N))
        .expect("translation succeeds");

    println!("=== Cascabel translation ===");
    for m in &result.output.mappings {
        println!(
            "call of {} (group {:?}) mapped to PUs {:?} using variants {:?}",
            m.interface, m.execution_group, m.target_pus, m.usable_variants
        );
    }
    println!("\n=== Generated host program (excerpt) ===");
    for line in result.output.main_source.lines().take(12) {
        println!("  {line}");
    }

    // --- Simulate on the PDL-derived machine. ------------------------------
    let machine = SimMachine::from_platform(&platform);
    let report = simulate(
        &result.output.graph,
        &machine,
        &mut HeftScheduler,
        &SimOptions::default(),
    )
    .expect("graph is runnable");
    println!(
        "\nsimulated: {} tasks in {:.3} ms on {:?}",
        result.output.graph.len(),
        report.makespan.seconds() * 1e3,
        platform.name,
    );
    println!("{}", report.gantt(60));

    // --- Execute for real on the work-stealing threaded engine. ------------
    // The execution groups Cascabel mapped become thread placement: the
    // "gpus" logic group of the PDL gets its own dedicated workers, and the
    // vecadd chunks are pinned to them.
    let placement = cascabel::mapping::thread_placement(&result.output.mappings, &platform)
        .expect("mapped groups resolve");
    println!("\nthread placement from PDL logic groups: {placement:?}");

    let a: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new((0..N).map(|i| i as f64).collect()));
    let b: Arc<Vec<f64>> = Arc::new((0..N).map(|i| (2 * i) as f64).collect());

    let group = result.output.mappings[0].execution_group.clone();
    let chunks = result.output.graph.len();
    let tasks: Vec<ThreadTask> = block_ranges(N, chunks)
        .into_iter()
        .enumerate()
        .map(|(idx, (lo, hi))| {
            let a = a.clone();
            let b = b.clone();
            ThreadTask::new(format!("vecadd[{idx}]"), move || {
                vecadd_chunk(&mut a.lock().expect(POISONED), &b, lo, hi);
            })
            .in_group(group.clone())
        })
        .collect();

    let exec = ThreadedExecutor::with_placement(placement)
        .run(tasks)
        .expect("dependency-free graph");
    println!(
        "executed {} chunk tasks for real in {:?} on {} worker thread(s)",
        exec.worker_stats.iter().map(|w| w.executed).sum::<usize>(),
        exec.wall,
        exec.workers
    );
    println!(
        "engine counters: {} steals ({} cross-group), {} failed steal scans, {:?} total busy",
        exec.total_steals(),
        exec.total_cross_group_steals(),
        exec.total_failed_steals(),
        exec.total_busy()
            .expect("per-task stats are on: the run is timed")
    );
    for w in &exec.worker_stats {
        println!(
            "  worker {} (group {}): {} tasks, {} stolen, busy {:?}",
            w.worker,
            w.group,
            w.executed,
            w.steals,
            w.busy.unwrap_or_default()
        );
    }

    // Verify: A[i] == i + 2i.
    let a = a.lock().expect(POISONED);
    for (i, v) in a.iter().enumerate().step_by(N / 13) {
        assert_eq!(*v, (3 * i) as f64, "A[{i}]");
    }
    println!("numerics verified: A[i] = 3*i for all sampled i");
}
