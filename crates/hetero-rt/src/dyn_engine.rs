//! The event-driven execution engine: online scheduling in virtual time.
//!
//! The list engine ([`crate::sim_engine`]) places tasks in submission order,
//! which is how static schedules are constructed. Real runtimes like `StarPU`
//! work *online*: a task becomes schedulable the moment its last dependency
//! completes, and the scheduler chooses among all currently-ready tasks and
//! idle devices. This engine models that loop with a discrete-event queue
//! ([`simhw::events::EventQueue`]):
//!
//! 1. all dependency-free tasks enter the ready pool at t = 0. The pool is
//!    one priority queue per *eligibility class* — a distinct set of
//!    devices a task may run on, resolved once per run from its codelet's
//!    variants and its execution group;
//! 2. whenever a class has both a ready task and an idle device, the policy
//!    picks a placement among the class's idle devices for the best ready
//!    task of all such classes; transfers and compute are charged as in the
//!    list engine. A class found without an idle device is *closed* until
//!    the next event, so a ready task is looked at when it is dispatched
//!    and at no other time;
//! 3. each task completion is an event; firing it releases dependents into
//!    their classes' queues and re-triggers step 2.
//!
//! Differences from the list engine are pure *scheduling-order* effects —
//! the same graphs, machines, coherence and cost models are used — which is
//! exactly what the list-vs-online ablation isolates.

use crate::graph::TaskGraph;
use crate::scheduler::Scheduler;
use crate::sim_engine::{RtError, SimOptions, SimReport};
use crate::sim_run::SimRun;
use crate::task::TaskId;
use simhw::events::EventQueue;
use simhw::machine::{DeviceId, SimMachine};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A ready-pool entry ordered for dispatch: higher priority first, then
/// submission order (StarPU-style). `BinaryHeap` is a max-heap, hence the
/// reversed task id.
type ReadyKey = (i32, Reverse<usize>);

/// Simulates the graph with online (event-driven) scheduling.
///
/// The [`Scheduler`] policy is consulted once per dispatched task, exactly
/// as in the list engine, but at the virtual time the dispatch happens and
/// considering only tasks that are actually ready.
pub fn simulate_dynamic(
    graph: &TaskGraph,
    machine: &SimMachine,
    scheduler: &mut dyn Scheduler,
    options: &SimOptions,
) -> Result<SimReport, RtError> {
    let mut run = SimRun::new(graph, machine, options)?;

    // Readiness bookkeeping over the compiled edges: pending counts tick
    // down as completions fire, and one max-heap per eligibility class keyed
    // (priority desc, submission order asc) makes pushing a ready task and
    // popping the dispatch candidate both O(log n).
    let edges = graph.compile();
    let mut pending = edges.pending().to_vec();
    let classes = run.tables.class_count();
    let mut ready: Vec<BinaryHeap<ReadyKey>> = vec![BinaryHeap::new(); classes];
    let push = |ready: &mut [BinaryHeap<ReadyKey>], run: &SimRun<'_>, t: TaskId| {
        let task = graph.task(t);
        ready[run.tables.class_of(task)].push((task.priority, Reverse(t.0)));
    };

    // Every task must have at least one eligible device, or the run can
    // never finish: a class without devices fails on its first task.
    let empty = |class: usize| run.tables.devices(class).is_empty();
    if (0..classes).any(empty) {
        if let Some(task) = graph.tasks().find(|&t| empty(run.tables.class_of(t))) {
            return Err(run.no_eligible_device(task));
        }
    }
    for &t in edges.ready() {
        push(&mut ready, &run, t);
    }
    let mut open: Vec<usize> = Vec::with_capacity(classes);
    let mut candidates: Vec<DeviceId> = Vec::with_capacity(machine.len());
    let mut completed = 0usize;
    // Completion events carry the finished task.
    let mut events: EventQueue<TaskId> = EventQueue::new();

    // Dispatch loop: bind ready tasks to *idle* devices at the current
    // time (late binding — the defining property of online scheduling),
    // then advance to the next completion event. A round starts with every
    // class that has a ready task *open* and serves the greatest head among
    // the open classes — (priority desc, submission order) over the whole
    // pool. A class none of whose devices is idle is closed for the rest of
    // the round without a pop: dispatching only makes devices busier, so
    // none of its tasks can become dispatchable before the next event. The
    // round ends when no class is open, having touched only the tasks it
    // dispatched.
    loop {
        let now = events.now();
        open.clear();
        open.extend((0..classes).filter(|&c| !ready[c].is_empty()));
        while let Some(at) = (0..open.len()).max_by_key(|&at| ready[open[at]].peek()) {
            let class = open[at];
            // Idle devices of the class only.
            candidates.clear();
            candidates.extend(
                run.tables
                    .devices(class)
                    .iter()
                    .filter(|d| run.free_at(d.0) <= now),
            );
            if candidates.is_empty() {
                open.swap_remove(at);
                continue;
            }
            let (_, Reverse(id)) = ready[class].pop().expect("an open class has a head");
            if ready[class].is_empty() {
                open.swap_remove(at);
            }
            let task = graph.task(TaskId(id));
            let chosen = run.pick(scheduler, task, now, &candidates);
            let end = run.charge(task, chosen, now);
            events.schedule(end, task.id);
        }

        // Advance to the next completion.
        let Some((_, done)) = events.pop() else { break };
        completed += 1;
        for &dep in edges.dependents(done) {
            pending[dep.0] -= 1;
            if pending[dep.0] == 0 {
                push(&mut ready, &run, dep);
            }
        }
    }
    debug_assert_eq!(completed, graph.len(), "all tasks completed");

    Ok(run.into_report(scheduler.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{AccessMode, HandleId};
    use crate::scheduler::{EagerScheduler, HeftScheduler};
    use crate::sim_engine::SpanKind;
    use crate::task::{Codelet, DataAccess, Variant};
    use pdl_discover::synthetic;
    use simhw::time::SimTime;

    fn acc(h: HandleId, mode: AccessMode) -> DataAccess {
        DataAccess { handle: h, mode }
    }

    fn independent_graph(n: usize, flops: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        for i in 0..n {
            let h = g.register_data(format!("d{i}"), 8.0);
            g.submit(
                c,
                format!("t{i}"),
                flops,
                vec![acc(h, AccessMode::Write)],
                None,
            );
        }
        g
    }

    #[test]
    fn completes_every_task_once() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let g = independent_graph(33, 1e9);
        let r =
            simulate_dynamic(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        assert_eq!(r.assignments.len(), 33);
        let mut ids: Vec<usize> = r.assignments.iter().map(|(t, _)| t.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 33);
    }

    #[test]
    fn matches_list_engine_on_independent_work() {
        // With no dependencies and a uniform machine, both engines produce
        // the same makespan.
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let g = independent_graph(64, 9.576e9);
        let dynamic =
            simulate_dynamic(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        let list =
            crate::sim_engine::simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default())
                .unwrap();
        assert!(
            (dynamic.makespan.seconds() - list.makespan.seconds()).abs() < 1e-9,
            "dynamic {} vs list {}",
            dynamic.makespan,
            list.makespan
        );
    }

    #[test]
    fn respects_dependencies() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        let h = g.register_data("chain", 8.0);
        for i in 0..5 {
            g.submit(
                c,
                format!("t{i}"),
                9.576e9,
                vec![acc(h, AccessMode::ReadWrite)],
                None,
            );
        }
        let r =
            simulate_dynamic(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        // Pure chain: 5 seconds regardless of 8 cores.
        assert!((r.makespan.seconds() - 5.0).abs() < 1e-9);
        // Completion order in the trace respects the chain.
        let spans: Vec<_> = r
            .trace
            .spans()
            .iter()
            .filter(|s| s.kind() == SpanKind::Compute)
            .collect();
        for w in spans.windows(2) {
            assert!(w[1].start >= w[0].end);
        }
    }

    #[test]
    fn online_and_list_engines_are_comparable() {
        // Online late binding is myopic (it only uses idle devices *now*),
        // list scheduling has lookahead (it may queue behind a fast busy
        // device). Neither dominates; both must produce valid schedules in
        // the same ballpark on a mixed chain + independent workload.
        let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(
            Codelet::new("k")
                .with_variant(Variant::new("x86"))
                .with_variant(Variant::new("gpu").requiring("Cuda")),
        );
        let chain = g.register_data("chain", 8.0);
        for i in 0..4 {
            g.submit(
                c,
                format!("chain{i}"),
                50e9,
                vec![acc(chain, AccessMode::ReadWrite)],
                None,
            );
        }
        for i in 0..16 {
            let h = g.register_data(format!("free{i}"), 8.0);
            g.submit(
                c,
                format!("free{i}"),
                10e9,
                vec![acc(h, AccessMode::Write)],
                None,
            );
        }
        let dynamic =
            simulate_dynamic(&g, &machine, &mut HeftScheduler, &SimOptions::default()).unwrap();
        let list =
            crate::sim_engine::simulate(&g, &machine, &mut HeftScheduler, &SimOptions::default())
                .unwrap();
        assert_eq!(dynamic.assignments.len(), list.assignments.len());
        let ratio = dynamic.makespan.seconds() / list.makespan.seconds();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "dynamic {} vs list {} (ratio {ratio})",
            dynamic.makespan,
            list.makespan
        );
    }

    #[test]
    fn priorities_order_dispatch() {
        // One device, three ready tasks with distinct priorities: trace
        // order must follow priority, not submission order.
        let mut b = pdl_core::platform::Platform::builder("one");
        let m = b.master("host");
        let w = b.worker(m, "w0").unwrap();
        b.prop(
            w,
            pdl_core::property::Property::fixed("ARCHITECTURE", "x86"),
        );
        b.prop(
            w,
            pdl_core::property::Property::fixed("PEAK_GFLOPS_DP", "10")
                .with_unit(pdl_core::units::Unit::GigaFlopPerSec),
        );
        let machine = SimMachine::from_platform(&b.build().unwrap());

        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        let mk = |g: &mut TaskGraph, name: &str, prio: i32| {
            let h = g.register_data(name.to_string(), 8.0);
            g.submit_prioritized(
                c,
                name.to_string(),
                1e9,
                vec![acc(h, AccessMode::Write)],
                None,
                prio,
            )
        };
        mk(&mut g, "low", -1);
        mk(&mut g, "high", 5);
        mk(&mut g, "mid", 2);
        let r =
            simulate_dynamic(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        let order: Vec<String> = r
            .trace
            .spans()
            .iter()
            .filter(|s| s.kind() == SpanKind::Compute)
            .map(|s| {
                let mut label = String::new();
                r.label(s, &mut label);
                label
            })
            .collect();
        assert_eq!(order, ["high", "mid", "low"]);
    }

    /// A round costs what it dispatches. The two GPUs are idle for the
    /// whole run and useless to an x86-only codelet; an engine that looks at
    /// every ready task while some device is idle does width²/2 ≈ 2 × 10⁸
    /// look-ups per stage here and takes minutes in a debug build.
    #[test]
    fn wide_forks_beside_unusable_idle_devices_stay_linear() {
        const WIDTH: usize = 20_000;
        const STAGES: usize = 3;
        let machine = SimMachine::from_platform(&synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::with_capacity(STAGES * (WIDTH + 1));
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        let mut previous = None;
        for s in 0..STAGES {
            let join = g.register_data(format_args!("join{s}"), 8.0);
            let parts: Vec<HandleId> = (0..WIDTH)
                .map(|i| g.register_data(format_args!("p{s}.{i}"), 8.0))
                .collect();
            for &p in &parts {
                let read = previous.map(|h| acc(h, AccessMode::Read));
                g.submit(
                    c,
                    "fork",
                    1e3,
                    read.into_iter().chain([acc(p, AccessMode::Write)]),
                    None,
                );
            }
            let reads = parts.iter().map(|&p| acc(p, AccessMode::Read));
            g.submit(
                c,
                "join",
                1e3,
                reads.chain([acc(join, AccessMode::Write)]),
                None,
            );
            previous = Some(join);
        }

        let started = std::time::Instant::now();
        let online =
            simulate_dynamic(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        let took = started.elapsed();
        assert_eq!(online.assignments.len(), STAGES * (WIDTH + 1));
        let list =
            crate::sim_engine::simulate(&g, &machine, &mut EagerScheduler, &SimOptions::default())
                .unwrap();
        let (online, list) = (online.makespan.seconds(), list.makespan.seconds());
        assert!(
            (online - list).abs() <= 1e-9 * list,
            "dynamic {online} vs list {list}"
        );
        assert!(took < std::time::Duration::from_secs(5), "{took:?}");
    }

    #[test]
    fn empty_machine_and_missing_variant_errors() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("spe-only").with_variant(Variant::new("spe")));
        let h = g.register_data("d", 8.0);
        g.submit(c, "t", 1.0, vec![acc(h, AccessMode::Write)], None);
        let err = simulate_dynamic(&g, &machine, &mut EagerScheduler, &SimOptions::default())
            .unwrap_err();
        assert!(matches!(err, RtError::NoEligibleDevice { .. }));
    }

    #[test]
    fn empty_graph_is_fine() {
        let machine = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        let g = TaskGraph::new();
        let r =
            simulate_dynamic(&g, &machine, &mut EagerScheduler, &SimOptions::default()).unwrap();
        assert_eq!(r.makespan, SimTime::ZERO);
        assert!(r.assignments.is_empty());
    }
}
