//! Sim-engine scaling: calendar-queue virtual time at million-event scale.
//!
//! Two measurements, both feeding `BENCH_sim_scaling.json`:
//!
//! 1. **Hold model** (Vaucher & Duval's classic event-set benchmark): the
//!    queue is preloaded with `HOLD_POPULATION` pending events, then each
//!    operation pops the minimum and schedules a replacement a random
//!    increment into the future, keeping the population constant. This is
//!    exactly the steady-state access pattern of a discrete-event
//!    simulator. The calendar [`EventQueue`] is compared against the
//!    retired [`HeapEventQueue`] (`bench::baseline`) at ≥100k queued
//!    events — the regime where the heap's `O(log n)` sift cost dominates
//!    and the calendar's O(1) bucket access pays off. The gated metric is
//!    `speedup_vs_heap`.
//!
//! 2. **Million-task dynamic simulation**: a ≥1M-task fork-join graph run
//!    end to end through [`simulate_dynamic`] in virtual time, reporting
//!    sustained `events_per_sec` (one completion event per task, the unit
//!    the calendar queue processes) as a gated throughput row.
//!
//! Hold increments are exponentially distributed (memoryless inter-event
//! gaps, the classic event-set workload), so the calendar's bucket width
//! must track a drifting, non-uniform spacing rather than a fixed grid.

use bench::baseline::HeapEventQueue;
use criterion::{criterion_group, criterion_main, Criterion};
use hetero_rt::dyn_engine::simulate_dynamic;
use hetero_rt::scheduler::EagerScheduler;
use hetero_rt::sim_engine::SimOptions;
use hetero_trace::json::Json;
use simhw::events::EventQueue;
use simhw::SimTime;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Pending events held in the queue during the hold benchmark (the
/// acceptance criterion asks for the ≥100k-queued-events regime).
const HOLD_POPULATION: usize = 500_000;
/// Hold operations (pop + schedule pairs) measured per run.
const HOLD_OPS: usize = 1_000_000;
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

/// Runs the hold model on the calendar queue, returning wall time and a
/// checksum (so the work cannot be optimized away and both queues can be
/// asserted to agree).
fn hold_calendar(seed: u64) -> (Duration, f64) {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = Rng(seed);
    for i in 0..HOLD_POPULATION {
        q.schedule(SimTime::new(rng.increment()), i as u32);
    }
    let mut checksum = 0.0f64;
    let t0 = Instant::now();
    for _ in 0..HOLD_OPS {
        let (at, payload) = q.pop().expect("population is constant");
        checksum += at.seconds();
        q.schedule(at + simhw::Duration::new(rng.increment()), payload);
    }
    (t0.elapsed(), black_box(checksum))
}

/// Same hold run on the retired `BinaryHeap` queue.
fn hold_heap(seed: u64) -> (Duration, f64) {
    let mut q: HeapEventQueue<u32> = HeapEventQueue::new();
    let mut rng = Rng(seed);
    for i in 0..HOLD_POPULATION {
        q.schedule(SimTime::new(rng.increment()), i as u32);
    }
    let mut checksum = 0.0f64;
    let t0 = Instant::now();
    for _ in 0..HOLD_OPS {
        let (at, payload) = q.pop().expect("population is constant");
        checksum += at.seconds();
        q.schedule(at + simhw::Duration::new(rng.increment()), payload);
    }
    (t0.elapsed(), black_box(checksum))
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn print_summary() {
    println!("\nsim_scaling: hold model, {HOLD_POPULATION} queued events, {HOLD_OPS} ops");
    let reps = 5;
    let cal = median((0..reps).map(|r| hold_calendar(0x5EED + r).0).collect());
    let heap = median((0..reps).map(|r| hold_heap(0x5EED + r).0).collect());
    // Same seed ⇒ same event stream ⇒ identical checksums; spot-check once.
    let (_, c0) = hold_calendar(42);
    let (_, h0) = hold_heap(42);
    assert!(
        (c0 - h0).abs() < 1e-6 * c0.abs().max(1.0),
        "calendar and heap diverged on the same stream: {c0} vs {h0}"
    );
    let cal_rate = HOLD_OPS as f64 / cal.as_secs_f64();
    let heap_rate = HOLD_OPS as f64 / heap.as_secs_f64();
    let speedup = heap.as_secs_f64() / cal.as_secs_f64();
    println!(
        "  calendar {cal:>10?} ({:.2}M ev/s)   heap {heap:>10?} ({:.2}M ev/s)   speedup {speedup:.2}x",
        cal_rate / 1e6,
        heap_rate / 1e6
    );

    // Million-task end-to-end virtual-time run on the paper's testbed.
    let platform = pdl_discover::synthetic::xeon_2gpu_testbed();
    let machine = simhw::machine::SimMachine::from_platform(&platform);
    let graph = kernels::graphs::fork_join_graph(SIM_WIDTH, SIM_STAGES, None);
    let tasks = graph.len();
    let options = SimOptions {
        flush_outputs: false,
        ..SimOptions::default()
    };
    let t0 = Instant::now();
    let report = simulate_dynamic(&graph, &machine, &mut EagerScheduler, &options)
        .expect("million-task sim runs");
    let sim_wall = t0.elapsed();
    assert_eq!(report.assignments.len(), tasks, "every task simulated");
    let events_per_sec = tasks as f64 / sim_wall.as_secs_f64();
    println!(
        "  dynamic sim: {tasks} tasks in {sim_wall:?} ({:.2}M completion events/s, makespan {:.3}s virtual)",
        events_per_sec / 1e6,
        report.makespan.seconds()
    );
    println!();

    let doc = Json::obj([
        (
            "schema",
            Json::Num(hetero_trace::summary::SCHEMA_VERSION as f64),
        ),
        ("kind", Json::str("sim-scaling")),
        (
            "hold_model",
            Json::obj([
                ("queued_events", Json::Num(HOLD_POPULATION as f64)),
                ("hold_ops", Json::Num(HOLD_OPS as f64)),
                (
                    "rows",
                    Json::Arr(vec![
                        Json::obj([
                            ("name", Json::str("calendar")),
                            ("wall_ns", Json::Num(cal.as_nanos() as f64)),
                            ("events_per_sec", Json::Num(cal_rate)),
                        ]),
                        Json::obj([
                            ("name", Json::str("binary-heap")),
                            ("wall_ns", Json::Num(heap.as_nanos() as f64)),
                            ("events_per_sec", Json::Num(heap_rate)),
                        ]),
                    ]),
                ),
                ("speedup_vs_heap", Json::Num(speedup)),
            ]),
        ),
        (
            "dynamic_sim",
            Json::obj([
                ("tasks", Json::Num(tasks as f64)),
                ("wall_ns", Json::Num(sim_wall.as_nanos() as f64)),
                ("makespan_s", Json::Num(report.makespan.seconds())),
                ("events_per_sec", Json::Num(events_per_sec)),
            ]),
        ),
    ]);
    let dir = std::path::PathBuf::from(std::env::var("BENCH_OUT_DIR").unwrap_or_default());
    if !dir.as_os_str().is_empty() {
        let _ = std::fs::create_dir_all(&dir);
    }
    let out = dir.join("BENCH_sim_scaling.json");
    match std::fs::write(&out, doc.to_pretty()) {
        Ok(()) => println!("  wrote {}\n", out.display()),
        Err(e) => println!("  could not write {}: {e}\n", out.display()),
    }
}

fn sim_scaling(c: &mut Criterion) {
    print_summary();

    // Criterion evidence at a size small enough to iterate: 100k queued
    // events, 100k hold ops per iteration.
    let mut group = c.benchmark_group("hold_model_100k");
    group.sample_size(10);
    group.bench_function("calendar", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut rng = Rng(7);
            for i in 0..HOLD_POPULATION {
                q.schedule(SimTime::new(rng.increment()), i as u32);
            }
            for _ in 0..100_000 {
                let (at, p) = q.pop().unwrap();
                q.schedule(at + simhw::Duration::new(rng.increment()), p);
            }
            black_box(q.len())
        });
    });
    group.bench_function("binary_heap", |b| {
        b.iter(|| {
            let mut q: HeapEventQueue<u32> = HeapEventQueue::new();
            let mut rng = Rng(7);
            for i in 0..HOLD_POPULATION {
                q.schedule(SimTime::new(rng.increment()), i as u32);
            }
            for _ in 0..100_000 {
                let (at, p) = q.pop().unwrap();
                q.schedule(at + simhw::Duration::new(rng.increment()), p);
            }
            black_box(q.len())
        });
    });
    group.finish();
}

criterion_group!(benches, sim_scaling);
criterion_main!(benches);
