//! Abl. B — transfer-model ablation: GPU-offload speedup as a function of
//! `PCIe` bandwidth (the vertical data-movement sensitivity of §III-A) —
//! and Abl. I, the transfer-pipeline ablation: what each stage of the
//! interconnect-aware data pipeline (overlap, link contention, P2P
//! routing, prefetch, transfer-cost-aware scheduling) buys on the Fig. 5
//! DGEMM. Both tables are deterministic virtual-time results, printed once;
//! `bench::ablations` asserts the pipeline's acceptance ratio in its tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Problem size for the pipeline ablation: 256-float tiles of a 2048²
/// DGEMM keep per-task transfer and compute comparable, which is where
/// overlap and routing matter.
const PIPE_N: usize = 2048;
const PIPE_TILE: usize = 256;

fn print_tables() {
    // Where does offloading break even?
    println!("\nAbl. B — DGEMM 4096/1024 GPU speedup vs PCIe bandwidth:");
    for gbs in [0.05, 0.25, 1.0, 2.0, 6.0, 16.0] {
        let s = bench::ablations::speedup_vs_pcie(4096, 1024, gbs);
        println!("  {gbs:>6.2} GB/s: {s:>6.2}x");
    }

    let rows = bench::ablations::transfer_pipeline_ablation(PIPE_N, PIPE_TILE);
    let baseline = rows[0].makespan_s;
    println!("\nAbl. I — DGEMM {PIPE_N}/{PIPE_TILE} transfer-pipeline ablation (NVLink testbed):");
    println!("  config        makespan    speedup   to-dev MB   to-host MB   peer MB");
    for r in &rows {
        println!(
            "  {:<12} {:>8.4} s  {:>6.2}x  {:>9.1}  {:>10.1}  {:>8.1}",
            r.config,
            r.makespan_s,
            baseline / r.makespan_s,
            r.bytes_to_devices / 1e6,
            r.bytes_to_host / 1e6,
            r.bytes_peer / 1e6,
        );
    }
    println!();
}

fn transfer_ablation(c: &mut Criterion) {
    print_tables();

    let mut group = c.benchmark_group("transfer_ablation");
    group.sample_size(10);
    for gbs in [0.25f64, 6.0, 16.0] {
        group.bench_function(
            BenchmarkId::new("speedup_vs_pcie", format!("{gbs}GBs")),
            |b| b.iter(|| bench::ablations::speedup_vs_pcie(2048, 512, gbs)),
        );
    }
    group.finish();

    // The pipeline ablation itself, timed: pipelined simulation cost is
    // part of the scheduling overhead story.
    let mut group = c.benchmark_group("transfer_pipeline");
    group.sample_size(10);
    group.bench_function("ablation_2048_256", |b| {
        b.iter(|| bench::ablations::transfer_pipeline_ablation(PIPE_N, PIPE_TILE));
    });
    group.finish();
}

criterion_group!(benches, transfer_ablation);
criterion_main!(benches);
