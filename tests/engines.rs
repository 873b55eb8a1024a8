//! Cross-engine integration: the virtual-time engine and the real threaded
//! engine must agree on dependency semantics, and the threaded engine must
//! produce correct numerics for the workloads the simulator only models.

use hetero_rt::prelude::*;
use kernels::dgemm::{dgemm_naive, dgemm_tile, Matrix};
use simhw::machine::SimMachine;
use std::sync::{Arc, Mutex};

/// Runs the same logical tiled-DGEMM decomposition through both engines:
/// the simulator for timing shape, the thread pool for actual math.
#[test]
fn tiled_dgemm_same_shape_both_engines() {
    let n = 64;
    let tile = 16;
    let tiles = n / tile;

    // --- Simulated: build the cost-model graph and schedule it. -----------
    let graph = kernels::graphs::dgemm_graph(n, tile, None);
    let machine = SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());
    let sim = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default()).unwrap();
    assert_eq!(sim.assignments.len(), tiles * tiles * tiles);

    // --- Threaded: run the real math with the same dependency structure. --
    let a = Arc::new(Matrix::from_fn(n, |i, j| ((i * 3 + j) % 7) as f64 - 3.0));
    let b_mat = Arc::new(Matrix::from_fn(n, |i, j| ((i + j * 5) % 9) as f64 - 4.0));
    let c = Arc::new(Mutex::new(Matrix::zeros(n)));

    // Same submission order as kernels::graphs::dgemm_graph: (i, j, k) with
    // k innermost; each (i,j) chain serializes via the dependency on the
    // previous k-task of that C tile.
    let mut tasks: Vec<ThreadTask> = Vec::new();
    for ti in 0..tiles {
        for tj in 0..tiles {
            for tk in 0..tiles {
                let a = a.clone();
                let b_mat = b_mat.clone();
                let c = c.clone();
                let mut t = ThreadTask::new(format!("dgemm[{ti},{tj},{tk}]"), move || {
                    dgemm_tile(&a, &b_mat, &mut c.lock().unwrap(), tile, ti, tj, tk);
                });
                if tk > 0 {
                    let my_index = (ti * tiles + tj) * tiles + tk;
                    t = t.after([my_index - 1]);
                }
                tasks.push(t);
            }
        }
    }
    let exec = ThreadedExecutor::new(4).run(tasks).unwrap();
    assert_eq!(exec.tasks.len(), tiles * tiles * tiles);

    // Functional correctness.
    let mut reference = Matrix::zeros(n);
    dgemm_naive(&a, &b_mat, &mut reference);
    assert!(c.lock().unwrap().max_abs_diff(&reference) < 1e-9);
}

#[test]
fn dependency_edges_match_between_graph_and_threaded_form() {
    // The graph's derived dependencies (RAW on the C tile) must equal the
    // chain structure the threaded form encodes.
    let n = 32;
    let tile = 8;
    let tiles = n / tile;
    let graph = kernels::graphs::dgemm_graph(n, tile, None);
    for (t_index, task) in graph.tasks().enumerate() {
        let tk = t_index % tiles;
        let deps = graph.dependencies(task.id);
        if tk == 0 {
            assert!(deps.is_empty(), "{}: {deps:?}", task.label);
        } else {
            assert_eq!(deps.len(), 1, "{}", task.label);
            assert_eq!(deps[0].0, t_index - 1, "{}", task.label);
        }
    }
}

#[test]
fn simulated_and_threaded_run_the_same_task_count_for_vecadd() {
    let n = 100_000;
    let chunks = 8;
    let graph = kernels::graphs::vecadd_graph(n, chunks, None);
    let machine = SimMachine::from_platform(&pdl_discover::synthetic::xeon_x5550_host());
    let sim = simulate(
        &graph,
        &machine,
        &mut EagerScheduler,
        &SimOptions::default(),
    )
    .unwrap();
    assert_eq!(sim.assignments.len(), chunks);

    let a = Arc::new(Mutex::new(vec![1.0f64; n]));
    let b: Arc<Vec<f64>> = Arc::new(vec![2.0; n]);
    let tasks: Vec<ThreadTask> = kernels::vecadd::block_ranges(n, chunks)
        .into_iter()
        .enumerate()
        .map(|(i, (lo, hi))| {
            let a = a.clone();
            let b = b.clone();
            ThreadTask::new(format!("vecadd[{i}]"), move || {
                kernels::vecadd::vecadd_chunk(&mut a.lock().unwrap(), &b, lo, hi);
            })
        })
        .collect();
    let exec = ThreadedExecutor::new(2).run(tasks).unwrap();
    assert_eq!(exec.tasks.len(), chunks);
    assert!(a.lock().unwrap().iter().all(|&x| x == 3.0));
}

#[test]
fn energy_scheduler_trades_time_for_joules() {
    // On the 2-GPU testbed only the GPUs have TDP data; the energy policy
    // avoids them, producing a slower but (by the model) cheaper schedule
    // than HEFT for compute-heavy work.
    let graph = kernels::graphs::dgemm_graph(2048, 512, None);
    let machine = SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());

    let heft = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default()).unwrap();
    let energy = simulate(
        &graph,
        &machine,
        &mut EnergyAwareScheduler,
        &SimOptions::default(),
    )
    .unwrap();

    assert!(energy.makespan >= heft.makespan);
    assert!(
        energy.energy.active_j <= heft.energy.active_j,
        "energy policy active J {} vs heft {}",
        energy.energy.active_j,
        heft.energy.active_j
    );
    // The energy policy kept everything off the (power-tracked) GPUs.
    for (_, dev) in &energy.assignments {
        assert_eq!(machine.devices[dev.0].arch, "x86");
    }
}
