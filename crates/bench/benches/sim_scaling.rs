//! Sim-engine scaling: calendar-queue virtual time at million-event scale.
//!
//! Two groups, each runnable by name:
//!
//! 1. `hold_model_100k` — Vaucher & Duval's classic event-set benchmark:
//!    the queue is preloaded with `HOLD_POPULATION` pending events, then
//!    each operation pops the minimum and schedules a replacement a random
//!    increment into the future, keeping the population constant (100k
//!    such operations per iteration; the harness prints events/s). This is
//!    exactly the steady-state access pattern of a discrete-event
//!    simulator. The calendar [`EventQueue`] is compared against the
//!    retired [`HeapEventQueue`] (`bench::baseline`) in the regime where
//!    the heap's `O(log n)` sift cost dominates and the calendar's O(1)
//!    bucket access pays off; `tests/calendar_queue.rs` holds the two to
//!    the same dequeue order.
//!
//! 2. `dynamic_sim_1m` — a ≥1M-task fork-join graph run end to end through
//!    [`simulate_dynamic`] in virtual time (one completion event per task,
//!    the unit the calendar queue processes; the harness prints tasks/s).
//!    Every task must be assigned, and once, outside the timed loop, the
//!    bridged million-event trace must validate and come back free of
//!    A-series findings.
//!
//! Hold increments are exponentially distributed (memoryless inter-event
//! gaps, the classic event-set workload), so the calendar's bucket width
//! must track a drifting, non-uniform spacing rather than a fixed grid.

use bench::baseline::HeapEventQueue;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hetero_rt::dyn_engine::simulate_dynamic;
use hetero_rt::scheduler::EagerScheduler;
use hetero_rt::sim_engine::SimOptions;
use hetero_rt::trace_bridge::sim_report_to_trace;
use simhw::events::EventQueue;
use simhw::SimTime;
use std::hint::black_box;

/// Pending events held in the queue during the hold benchmark (the
/// ≥100k-queued-events regime).
const HOLD_POPULATION: usize = 500_000;
/// Hold operations (pop + schedule pairs) per timed iteration.
const HOLD_OPS: usize = 100_000;
/// Fork width of the million-task simulated graph.
const SIM_WIDTH: usize = 64;
/// Fork-join stages of the million-task simulated graph; total tasks are
/// `SIM_WIDTH * SIM_STAGES + SIM_STAGES` ≥ 1M.
const SIM_STAGES: usize = 15_385;

/// Deterministic splitmix64 — the repo-wide reproducible RNG idiom.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed hold increment with a 1µs mean — the
    /// classic event-set benchmark distribution (memoryless inter-event
    /// gaps, like Poisson task completions).
    fn increment(&mut self) -> f64 {
        1e-6 * -(1.0 - self.unit_f64()).ln()
    }
}

/// One hold-model benchmark: preload the population once, then time
/// `HOLD_OPS` pop-and-reschedule pairs per iteration (the population, and
/// so the regime, is the same in every iteration). The two queues share an
/// API but no trait, hence a macro.
macro_rules! hold_bench {
    ($group:expr, $name:literal, $queue:ty) => {
        $group.bench_function($name, |b| {
            let mut q: $queue = <$queue>::new();
            let mut rng = Rng(7);
            for i in 0..HOLD_POPULATION {
                q.schedule(SimTime::new(rng.increment()), i as u32);
            }
            b.iter(|| {
                for _ in 0..HOLD_OPS {
                    let (at, p) = q.pop().expect("population is constant");
                    q.schedule(at + simhw::Duration::new(rng.increment()), p);
                }
                black_box(q.len())
            });
        });
    };
}

fn sim_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("hold_model_100k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(HOLD_OPS as u64));
    hold_bench!(group, "calendar", EventQueue<u32>);
    hold_bench!(group, "binary_heap", HeapEventQueue<u32>);
    group.finish();

    // Million-task end-to-end virtual-time run on the paper's testbed.
    let tasks = SIM_WIDTH * SIM_STAGES + SIM_STAGES;
    let mut group = c.benchmark_group("dynamic_sim_1m");
    group.sample_size(3);
    group.throughput(Throughput::Elements(tasks as u64));
    group.bench_function("eager_fork_join", |b| {
        let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
        let machine = simhw::machine::SimMachine::from_platform(&platform);
        let graph = kernels::graphs::fork_join_graph(SIM_WIDTH, SIM_STAGES, None);
        assert_eq!(graph.len(), tasks);
        let options = SimOptions {
            flush_outputs: false,
            ..SimOptions::default()
        };
        let run = || {
            let report = simulate_dynamic(&graph, &machine, &mut EagerScheduler, &options)
                .expect("million-task sim runs");
            assert_eq!(report.assignments.len(), tasks, "every task simulated");
            report
        };
        let trace = sim_report_to_trace(&run(), &machine);
        trace
            .validate()
            .expect("bridged trace passes structural validation");
        let anomalies = pdl_analyze::check_trace_anomalies(&trace);
        assert!(anomalies.is_empty(), "{}", anomalies.render());
        // A million spans: not resident while the runs are timed.
        drop(trace);
        b.iter(run);
    });
    group.finish();
}

criterion_group!(benches, sim_scaling);
criterion_main!(benches);
