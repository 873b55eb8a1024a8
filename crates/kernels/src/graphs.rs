//! Task-graph builders for the paper's workloads.
//!
//! These produce [`hetero_rt::graph::TaskGraph`]s shaped exactly like the
//! programs Cascabel generates: tiled DGEMM (the §IV-D experiment),
//! BLOCK-distributed vecadd (the §IV-A example), strip-decomposed Jacobi and
//! two-phase reduction. Each task carries its analytic FLOP cost and data
//! accesses, so the same graph runs on any PDL-described machine.

use crate::dgemm::{dgemm_flops, matrix_bytes};
use crate::reduce::reduce_flops;
use crate::stencil::{grid_bytes, stencil_flops};
use crate::vecadd::{block_ranges, vecadd_flops, vector_bytes};
use hetero_rt::data::{AccessMode, HandleId};
use hetero_rt::graph::TaskGraph;
use hetero_rt::task::{Codelet, DataAccess, Variant};

fn read(handle: HandleId) -> DataAccess {
    DataAccess {
        handle,
        mode: AccessMode::Read,
    }
}

fn rw(handle: HandleId) -> DataAccess {
    DataAccess {
        handle,
        mode: AccessMode::ReadWrite,
    }
}

fn write(handle: HandleId) -> DataAccess {
    DataAccess {
        handle,
        mode: AccessMode::Write,
    }
}

/// The DGEMM codelet with the paper's three implementations:
/// the serial input task (`GotoBLAS`, `x86`), the `CuBLAS` GPU variant and an
/// `OpenCL` variant.
pub(crate) fn dgemm_codelet() -> Codelet {
    Codelet::new("I_dgemm")
        .with_variant(Variant::new("x86"))
        .with_variant(Variant::new("gpu").requiring("Cuda"))
        .with_variant(Variant::new("gpu").requiring("OpenCL").with_speedup(0.85))
}

/// Builds the tiled DGEMM task graph: `(n/tile)³` tasks, each multiplying a
/// `tile×tile` block triple `C[i][j] += A[i][k] × B[k][j]`. Tiles of A, B
/// and C are separate data handles, so the runtime moves only what a task
/// touches — the vertical data-movement pattern of §III-A.
///
/// `execution_group` optionally pins all tasks to a logic group.
pub fn dgemm_graph(n: usize, tile: usize, execution_group: Option<String>) -> TaskGraph {
    let mut g = TaskGraph::new();
    emit_dgemm(&mut g, n, tile, execution_group);
    g
}

/// Emits the tasks, tile handles and codelet of [`dgemm_graph`] into `g`,
/// after whatever `g` already holds: how a translated program with several
/// call sites gets one graph.
pub fn emit_dgemm(g: &mut TaskGraph, n: usize, tile: usize, execution_group: Option<String>) {
    assert!(tile > 0 && tile <= n, "tile must be in 1..=n");
    let tiles = n.div_ceil(tile);
    g.reserve(tiles * tiles * tiles);
    let codelet = g.add_codelet(dgemm_codelet());
    let tile_bytes = matrix_bytes(tile.min(n));

    let mut a = Vec::with_capacity(tiles * tiles);
    let mut b = Vec::with_capacity(tiles * tiles);
    let mut c = Vec::with_capacity(tiles * tiles);
    for i in 0..tiles {
        for j in 0..tiles {
            a.push(g.register_data(format_args!("A[{i}][{j}]"), tile_bytes));
        }
    }
    for i in 0..tiles {
        for j in 0..tiles {
            b.push(g.register_data(format_args!("B[{i}][{j}]"), tile_bytes));
        }
    }
    for i in 0..tiles {
        for j in 0..tiles {
            c.push(g.register_data(format_args!("C[{i}][{j}]"), tile_bytes));
        }
    }

    let tile_flops = dgemm_flops(tile);
    for i in 0..tiles {
        for j in 0..tiles {
            for k in 0..tiles {
                g.submit(
                    codelet,
                    format_args!("dgemm[{i},{j},{k}]"),
                    tile_flops,
                    [
                        read(a[i * tiles + k]),
                        read(b[k * tiles + j]),
                        rw(c[i * tiles + j]),
                    ],
                    execution_group.as_deref(),
                );
            }
        }
    }
}

/// Builds the single-task DGEMM graph: the *serial input program* of the
/// paper's experiment — one 8192×8192 `GotoBLAS` call, CPU-only.
pub fn dgemm_serial_graph(n: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    // The serial input program has only the CPU implementation.
    let codelet = g.add_codelet(Codelet::new("I_dgemm").with_variant(Variant::new("x86")));
    let a = g.register_data("A", matrix_bytes(n));
    let b = g.register_data("B", matrix_bytes(n));
    let c = g.register_data("C", matrix_bytes(n));
    g.submit(
        codelet,
        "dgemm",
        dgemm_flops(n),
        [read(a), read(b), rw(c)],
        None,
    );
    g
}

/// The vecadd codelet (paper §IV-A): x86 fall-back plus GPU offload.
pub(crate) fn vecadd_codelet() -> Codelet {
    Codelet::new("I_vecadd")
        .with_variant(Variant::new("x86"))
        .with_variant(Variant::new("gpu").requiring("OpenCL"))
}

/// Builds the BLOCK-distributed vecadd graph of the paper's execute
/// annotation `(A:BLOCK:N, B:BLOCK:N)`: `chunks` independent tasks, each
/// adding one block of B into the matching block of A.
pub fn vecadd_graph(n: usize, chunks: usize, execution_group: Option<String>) -> TaskGraph {
    let mut g = TaskGraph::new();
    emit_vecadd(&mut g, n, chunks, execution_group);
    g
}

/// Emits the tasks, block handles and codelet of [`vecadd_graph`] into `g`,
/// after whatever `g` already holds.
pub fn emit_vecadd(g: &mut TaskGraph, n: usize, chunks: usize, execution_group: Option<String>) {
    g.reserve(chunks);
    let codelet = g.add_codelet(vecadd_codelet());
    for (idx, (lo, hi)) in block_ranges(n, chunks).into_iter().enumerate() {
        let len = hi - lo;
        let a = g.register_data(format_args!("A[{idx}]"), vector_bytes(len));
        let b = g.register_data(format_args!("B[{idx}]"), vector_bytes(len));
        g.submit(
            codelet,
            format_args!("vecadd[{idx}]"),
            vecadd_flops(len),
            [rw(a), read(b)],
            execution_group.as_deref(),
        );
    }
}

/// Builds a strip-decomposed Jacobi graph: `sweeps` iterations over
/// `strips` horizontal strips with double buffering (each sweep reads the
/// previous buffer — its own strip plus halo neighbours — and writes the
/// next buffer). Within one sweep all strips are independent; across sweeps
/// the halo reads create the classic neighbour dependencies.
pub fn stencil_graph(n: usize, strips: usize, sweeps: usize) -> TaskGraph {
    let mut g = TaskGraph::with_capacity(strips.max(1) * sweeps);
    let codelet = g.add_codelet(
        Codelet::new("I_jacobi")
            .with_variant(Variant::new("x86"))
            .with_variant(Variant::new("gpu").requiring("OpenCL")),
    );
    let strips = strips.max(1);
    let strip_bytes = grid_bytes(n) / strips as f64;
    let buf = |g: &mut TaskGraph, name: &str| -> Vec<HandleId> {
        (0..strips)
            .map(|s| g.register_data(format_args!("{name}[{s}]"), strip_bytes))
            .collect()
    };
    let buffers = [buf(&mut g, "even"), buf(&mut g, "odd")];
    let strip_flops = stencil_flops(n) / strips as f64;

    for sweep in 0..sweeps {
        let src = &buffers[sweep % 2];
        let dst = &buffers[(sweep + 1) % 2];
        for s in 0..strips {
            // Own strip, then the halo neighbours that exist.
            let halo = [s.checked_sub(1), Some(s + 1).filter(|&n| n < strips)];
            g.submit(
                codelet,
                format_args!("jacobi[{sweep},{s}]"),
                strip_flops,
                [read(src[s]), write(dst[s])]
                    .into_iter()
                    .chain(halo.into_iter().flatten().map(|n| read(src[n]))),
                None,
            );
        }
    }
    g
}

/// Builds a row-strip `SpMV` graph over a 1D Poisson matrix: `strips`
/// independent tasks with *non-uniform* costs (boundary strips have fewer
/// non-zeros), exercising load balancing in the scheduler ablations.
pub fn spmv_graph(n: usize, strips: usize) -> TaskGraph {
    let matrix = crate::spmv::CsrMatrix::poisson_1d(n);
    let mut g = TaskGraph::with_capacity(strips.max(1));
    let codelet = g.add_codelet(
        Codelet::new("I_spmv")
            .with_variant(Variant::new("x86"))
            .with_variant(Variant::new("gpu").requiring("OpenCL")),
    );
    let x = g.register_data("x", vector_bytes(n));
    for (idx, (lo, hi)) in block_ranges(n, strips.max(1)).into_iter().enumerate() {
        let y_strip = g.register_data(format_args!("y[{idx}]"), vector_bytes(hi - lo));
        g.submit(
            codelet,
            format_args!("spmv[{idx}]"),
            matrix.strip_flops(lo, hi),
            [read(x), write(y_strip)],
            None,
        );
    }
    g
}

/// Builds a two-phase reduction graph: `chunks` partial sums feeding one
/// combine task.
pub fn reduce_graph(n: usize, chunks: usize) -> TaskGraph {
    let mut g = TaskGraph::with_capacity(chunks.max(1) + 1);
    let codelet = g.add_codelet(
        Codelet::new("I_reduce")
            .with_variant(Variant::new("x86"))
            .with_variant(Variant::new("gpu").requiring("OpenCL")),
    );
    let chunks = chunks.max(1);
    let result = g.register_data("result", 8.0);
    let mut partials = Vec::with_capacity(chunks);
    for (idx, (lo, hi)) in block_ranges(n, chunks).into_iter().enumerate() {
        let len = hi - lo;
        let input = g.register_data(format_args!("in[{idx}]"), vector_bytes(len));
        let partial = g.register_data(format_args!("part[{idx}]"), 8.0);
        g.submit(
            codelet,
            format_args!("partial[{idx}]"),
            reduce_flops(len),
            [read(input), write(partial)],
            None,
        );
        partials.push(partial);
    }
    let accesses = partials.into_iter().map(read).chain([write(result)]);
    g.submit(codelet, "combine", reduce_flops(chunks), accesses, None);
    g
}

/// Builds a repeated wide fork-join graph: `stages` rounds of `width`
/// independent tasks, each round funnelled through a join task before the
/// next round forks again.
///
/// This is the scheduler stress shape — every stage dumps `width` ready
/// tasks into the engine at once and the join serialises them back — used
/// by the `engine_scaling` bench to compare the work-stealing and
/// single-queue thread engines. Per-task cost is a nominal `flops` so the
/// graph also simulates meaningfully.
///
/// `execution_group` optionally pins all tasks to a logic group.
pub fn fork_join_graph(width: usize, stages: usize, execution_group: Option<String>) -> TaskGraph {
    let width = width.max(1);
    let stages = stages.max(1);
    let mut g = TaskGraph::with_capacity(stages * (width + 1));
    let codelet = g.add_codelet(Codelet::new("I_forkjoin").with_variant(Variant::new("x86")));
    let flops = 1000.0;

    let execution_group = execution_group.as_deref();
    let mut join_prev: Option<HandleId> = None;
    // One buffer of partial handles, reused by every stage.
    let mut partials = Vec::with_capacity(width);
    for s in 0..stages {
        let join = g.register_data(format_args!("join[{s}]"), 8.0);
        partials.clear();
        for i in 0..width {
            let partial = g.register_data(format_args!("part[{s}][{i}]"), 8.0);
            g.submit(
                codelet,
                format_args!("fork[{s}][{i}]"),
                flops,
                [write(partial)].into_iter().chain(join_prev.map(read)),
                execution_group,
            );
            partials.push(partial);
        }
        g.submit(
            codelet,
            format_args!("join[{s}]"),
            flops,
            partials.iter().copied().map(read).chain([write(join)]),
            execution_group,
        );
        join_prev = Some(join);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_rt::task::TaskId;

    #[test]
    fn dgemm_graph_shape() {
        let g = dgemm_graph(8192, 2048, None);
        let tiles = 8192 / 2048; // 4
        assert_eq!(g.len(), tiles * tiles * tiles);
        assert_eq!(g.data.len(), 3 * tiles * tiles);
        // Total flops preserved by the decomposition.
        assert!((g.total_flops() - dgemm_flops(8192)).abs() < 1.0);
        // k-chain on each C tile: critical path = tiles × tile_flops.
        assert!((g.critical_path_flops() - (tiles as f64) * dgemm_flops(2048)).abs() < 1.0);
    }

    #[test]
    fn dgemm_ragged_tiles() {
        let g = dgemm_graph(100, 30, None); // 4 tiles per dim, last ragged
        assert_eq!(g.len(), 4 * 4 * 4);
    }

    #[test]
    fn dgemm_serial_is_one_task() {
        let g = dgemm_serial_graph(8192);
        assert_eq!(g.len(), 1);
        assert_eq!(g.total_flops(), dgemm_flops(8192));
        assert!(!g.codelets[0].variants.iter().any(|v| v.arch == "gpu"));
    }

    #[test]
    fn vecadd_graph_is_embarrassingly_parallel() {
        let g = vecadd_graph(1_000_000, 8, Some("gpus".into()));
        assert_eq!(g.len(), 8);
        assert_eq!(g.sources().len(), 8);
        assert!((g.total_flops() - 1_000_000.0).abs() < 1e-9);
        assert!(g.tasks().all(|t| t.execution_group == Some("gpus")));
    }

    #[test]
    fn stencil_graph_has_wavefront_deps() {
        let g = stencil_graph(1024, 4, 3);
        assert_eq!(g.len(), 12);
        // First sweep: all strips independent (double buffering).
        assert_eq!(g.sources().len(), 4);
        // Sweep 1 strip 1 depends on sweep 0 strips 0,1,2: it reads their
        // freshly written buffer entries (own strip + both halos).
        let t = TaskId(4 + 1);
        let deps = g.dependencies(t);
        assert_eq!(deps.len(), 3, "{deps:?}");
        // Edge strip of sweep 1 has only 2 upstream writers.
        let edge = TaskId(4);
        assert_eq!(g.dependencies(edge).len(), 2);
    }

    #[test]
    fn reduce_graph_fans_in() {
        let g = reduce_graph(1_000_000, 16);
        assert_eq!(g.len(), 17);
        let combine = TaskId(16);
        assert_eq!(g.dependencies(combine).len(), 16);
        assert_eq!(g.compile().dependents(combine).len(), 0);
    }

    #[test]
    fn spmv_graph_costs_are_nonuniform_but_total() {
        let g = spmv_graph(1000, 8);
        assert_eq!(g.len(), 8);
        assert_eq!(g.sources().len(), 8); // strips independent
        let m = crate::spmv::CsrMatrix::poisson_1d(1000);
        assert_eq!(g.total_flops(), m.strip_flops(0, 1000));
        // Boundary strips are lighter than interior strips.
        let costs: Vec<f64> = g.tasks().map(|t| t.flops).collect();
        assert!(costs[0] < costs[3]);
    }

    #[test]
    fn fork_join_shape() {
        let width = 6;
        let stages = 4;
        let g = fork_join_graph(width, stages, Some("cpus".into()));
        assert_eq!(g.len(), stages * (width + 1));
        for s in 0..stages {
            let join = g.task(TaskId(s * (width + 1) + width));
            assert_eq!(join.label, format!("join[{s}]"));
            // The join waits on every fork of its stage.
            assert_eq!(g.dependencies(join.id).len(), width);
            // Stage s forks wait on the previous join (and nothing else).
            for i in 0..width {
                let fork = g.task(TaskId(s * (width + 1) + i));
                let deps = g.dependencies(fork.id);
                if s == 0 {
                    assert!(deps.is_empty());
                } else {
                    assert_eq!(deps, [TaskId((s - 1) * (width + 1) + width)]);
                }
                assert_eq!(fork.execution_group, Some("cpus"));
            }
        }
    }

    #[test]
    fn all_workload_codelets_have_cpu_fallback() {
        // Paper §IV-C: "At least one sequential fall-back variant must be
        // provided by the application developer."
        for g in [
            dgemm_graph(64, 32, None),
            vecadd_graph(100, 4, None),
            stencil_graph(64, 2, 2),
            reduce_graph(100, 4),
            spmv_graph(100, 4),
            fork_join_graph(8, 3, None),
        ] {
            for c in &g.codelets {
                assert!(c.has_cpu_fallback(), "{}", c.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile must be")]
    fn zero_tile_panics() {
        dgemm_graph(64, 0, None);
    }
}
