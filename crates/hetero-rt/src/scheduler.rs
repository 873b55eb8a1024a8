//! Scheduling policies.
//!
//! The runtime separates *mechanism* (the simulation engine in
//! [`crate::sim_engine`]) from *policy*: a [`Scheduler`] picks the device a
//! ready task runs on, given candidate devices and a cost oracle. Policies
//! mirror `StarPU`'s families:
//!
//! * [`EagerScheduler`] — first-come-first-served onto the earliest-free
//!   device, ignoring transfer costs (`StarPU` `eager`);
//! * [`HeftScheduler`] — minimizes estimated finish time including data
//!   transfers (HEFT-style);
//! * [`DmdaScheduler`] — `StarPU`'s `dmda` (deque model data aware):
//!   minimizes begin + routed transfer cost + modeled compute, where the
//!   transfer term prices the actual transfer plan (peer-to-peer when the
//!   engine routes that way) and the compute term prefers learned
//!   [`crate::perfmodel::PerfModel`] history over the analytic estimate;
//! * [`RandomScheduler`] — seeded uniform choice (`StarPU` `random`), a lower
//!   bound for ablations;
//! * [`RoundRobinScheduler`] — cycles through candidates;
//! * [`EnergyAwareScheduler`] — greedy energy-delay policy driven by the
//!   PDL's `TDP` power properties.

use crate::task::Task;
use simhw::machine::{DeviceId, SimMachine};
use simhw::time::{Duration, SimTime};
use std::cell::OnceCell;

/// Information a scheduler sees when placing one task.
pub struct ScheduleContext<'a> {
    /// The machine being scheduled onto (device rates, power, groups).
    pub machine: &'a SimMachine,
    /// The task being placed.
    pub task: Task<'a>,
    /// Name of the task's codelet.
    pub codelet_name: &'a str,
    /// Time all dependencies have finished.
    pub ready: SimTime,
    /// Devices able to run the task (variant + execution-group filtered),
    /// in device order. Never empty.
    pub candidates: &'a [DeviceId],
    /// Earliest time each candidate becomes free.
    pub free_at: &'a dyn Fn(DeviceId) -> SimTime,
    /// Estimated finish time on each candidate: max(ready, free) +
    /// transfers + compute.
    pub est_finish: &'a dyn Fn(DeviceId) -> SimTime,
    /// Uncontended cost of the transfers the engine would actually route
    /// for this task on each candidate (peer-to-peer priced when active).
    pub transfer_cost: &'a dyn Fn(DeviceId) -> Duration,
    /// Modeled compute duration on each candidate: learned perf-model
    /// history when available, analytic `flops / rate` otherwise.
    pub est_compute: &'a dyn Fn(DeviceId) -> Duration,
}

/// A task-placement policy.
pub trait Scheduler {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Picks one of `ctx.candidates`.
    fn pick(&mut self, ctx: &ScheduleContext<'_>) -> DeviceId;
}

/// First-come-first-served onto the earliest-free device.
#[derive(Debug, Clone, Copy, Default)]
pub struct EagerScheduler;

impl Scheduler for EagerScheduler {
    fn name(&self) -> &'static str {
        "eager"
    }

    fn pick(&mut self, ctx: &ScheduleContext<'_>) -> DeviceId {
        *ctx.candidates
            .iter()
            .min_by_key(|&&d| ((ctx.free_at)(d), d))
            .expect("candidates never empty")
    }
}

/// Minimizes estimated finish time, transfer costs included
/// (HEFT-style; `StarPU`'s `dmda`).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeftScheduler;

impl Scheduler for HeftScheduler {
    fn name(&self) -> &'static str {
        "heft"
    }

    fn pick(&mut self, ctx: &ScheduleContext<'_>) -> DeviceId {
        *ctx.candidates
            .iter()
            .min_by_key(|&&d| ((ctx.est_finish)(d), d))
            .expect("candidates never empty")
    }
}

/// `StarPU`'s `dmda` (deque model data aware): minimizes
/// `max(ready, free) + transfer_cost + est_compute`, pricing transfers
/// along the route the engine will actually take (peer-to-peer links
/// included) and preferring learned perf-model history for the compute
/// term. Differs from [`HeftScheduler`] in both cost oracles: HEFT prices
/// host-staged transfers and analytic compute only.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmdaScheduler;

impl Scheduler for DmdaScheduler {
    fn name(&self) -> &'static str {
        "dmda"
    }

    fn pick(&mut self, ctx: &ScheduleContext<'_>) -> DeviceId {
        *ctx.candidates
            .iter()
            .min_by_key(|&&d| {
                let begin = ctx.ready.max((ctx.free_at)(d));
                (begin + (ctx.transfer_cost)(d) + (ctx.est_compute)(d), d)
            })
            .expect("candidates never empty")
    }
}

/// Seeded uniform-random placement. Deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    state: u64,
}

impl RandomScheduler {
    /// Creates a scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            state: seed.wrapping_mul(0x9E3779B97F4A7C15).max(1),
        }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "random"
    }

    fn pick(&mut self, ctx: &ScheduleContext<'_>) -> DeviceId {
        let i = (self.next() % ctx.candidates.len() as u64) as usize;
        ctx.candidates[i]
    }
}

/// Cycles through candidates in order.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinScheduler {
    counter: usize,
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn pick(&mut self, ctx: &ScheduleContext<'_>) -> DeviceId {
        let d = ctx.candidates[self.counter % ctx.candidates.len()];
        self.counter += 1;
        d
    }
}

/// Minimizes *active energy* (compute time × device TDP), breaking ties by
/// estimated finish time — a greedy energy-delay policy enabled by the
/// power figures the PDL carries (`TDP` property). Devices without power
/// information (TDP 0) count as free and therefore attract work.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyAwareScheduler;

impl Scheduler for EnergyAwareScheduler {
    fn name(&self) -> &'static str {
        "energy"
    }

    fn pick(&mut self, ctx: &ScheduleContext<'_>) -> DeviceId {
        let joules = |d: DeviceId| {
            let dev = &ctx.machine.devices[d.0];
            let compute_s = ctx.task.flops / dev.flops_dp;
            compute_s * dev.active_power_w
        };
        // `est_finish` is a full coherence probe per access: ask only when
        // energies tie, and at most once per candidate.
        let finish: Vec<OnceCell<SimTime>> = vec![OnceCell::new(); ctx.candidates.len()];
        let finish_of = |i: usize| *finish[i].get_or_init(|| (ctx.est_finish)(ctx.candidates[i]));
        let best = (0..ctx.candidates.len())
            .min_by(|&a, &b| {
                let (da, db) = (ctx.candidates[a], ctx.candidates[b]);
                joules(da)
                    .partial_cmp(&joules(db))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| finish_of(a).cmp(&finish_of(b)))
                    .then_with(|| da.cmp(&db))
            })
            .expect("candidates never empty");
        ctx.candidates[best]
    }
}

/// Constructs a scheduler by StarPU-style policy name
/// (`eager`, `heft`, `dmda`, `random`, `round-robin`, `energy`).
pub fn by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    match name {
        "eager" => Some(Box::new(EagerScheduler)),
        "heft" => Some(Box::new(HeftScheduler)),
        "dmda" => Some(Box::new(DmdaScheduler)),
        "random" => Some(Box::new(RandomScheduler::new(42))),
        "energy" => Some(Box::new(EnergyAwareScheduler)),
        "round-robin" | "rr" => Some(Box::new(RoundRobinScheduler::default())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn dummy_task() -> Task<'static> {
        Task {
            id: TaskId(0),
            codelet: 0,
            label: "t",
            flops: 1.0,
            accesses: &[],
            execution_group: None,
            priority: 0,
        }
    }

    fn test_machine() -> SimMachine {
        SimMachine::from_platform(&pdl_core::patterns::master_worker_pool(4))
    }

    fn zero_cost(_d: DeviceId) -> Duration {
        Duration::ZERO
    }

    fn ctx<'a>(
        machine: &'a SimMachine,
        task: Task<'a>,
        candidates: &'a [DeviceId],
        free_at: &'a dyn Fn(DeviceId) -> SimTime,
        est_finish: &'a dyn Fn(DeviceId) -> SimTime,
    ) -> ScheduleContext<'a> {
        ScheduleContext {
            machine,
            task,
            codelet_name: "k",
            ready: SimTime::ZERO,
            candidates,
            free_at,
            est_finish,
            transfer_cost: &zero_cost,
            est_compute: &zero_cost,
        }
    }

    #[test]
    fn eager_picks_earliest_free() {
        let machine = test_machine();
        let task = dummy_task();
        let candidates = [DeviceId(0), DeviceId(1), DeviceId(2)];
        let free = |d: DeviceId| SimTime::new([5.0, 1.0, 3.0][d.0]);
        let est = |_d: DeviceId| SimTime::ZERO;
        let mut s = EagerScheduler;
        assert_eq!(
            s.pick(&ctx(&machine, task, &candidates, &free, &est)),
            DeviceId(1)
        );
        assert_eq!(s.name(), "eager");
    }

    #[test]
    fn heft_picks_min_finish() {
        let machine = test_machine();
        let task = dummy_task();
        let candidates = [DeviceId(0), DeviceId(1)];
        // Device 0 free earlier but finishes later (slow / far data).
        let free = |d: DeviceId| SimTime::new([0.0, 2.0][d.0]);
        let est = |d: DeviceId| SimTime::new([10.0, 4.0][d.0]);
        let mut s = HeftScheduler;
        assert_eq!(
            s.pick(&ctx(&machine, task, &candidates, &free, &est)),
            DeviceId(1)
        );
    }

    #[test]
    fn deterministic_tie_break_by_device_id() {
        let machine = test_machine();
        let task = dummy_task();
        let candidates = [DeviceId(2), DeviceId(0), DeviceId(1)];
        let free = |_d: DeviceId| SimTime::ZERO;
        let est = |_d: DeviceId| SimTime::new(1.0);
        assert_eq!(
            EagerScheduler.pick(&ctx(&machine, task, &candidates, &free, &est)),
            DeviceId(0)
        );
        assert_eq!(
            HeftScheduler.pick(&ctx(&machine, task, &candidates, &free, &est)),
            DeviceId(0)
        );
    }

    #[test]
    fn random_is_seeded_and_in_range() {
        let machine = test_machine();
        let task = dummy_task();
        let candidates = [DeviceId(0), DeviceId(1), DeviceId(2)];
        let free = |_d: DeviceId| SimTime::ZERO;
        let est = |_d: DeviceId| SimTime::ZERO;
        let picks = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..20)
                .map(|_| s.pick(&ctx(&machine, task, &candidates, &free, &est)).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7)); // deterministic
        assert_ne!(picks(7), picks(8)); // seed-sensitive
        assert!(picks(7).iter().all(|&d| d < 3));
        // Not constant (all three devices eventually chosen).
        let p = picks(7);
        assert!(p.contains(&0) && p.contains(&1) && p.contains(&2));
    }

    #[test]
    fn round_robin_cycles() {
        let machine = test_machine();
        let task = dummy_task();
        let candidates = [DeviceId(0), DeviceId(1)];
        let free = |_d: DeviceId| SimTime::ZERO;
        let est = |_d: DeviceId| SimTime::ZERO;
        let mut s = RoundRobinScheduler::default();
        let seq: Vec<usize> = (0..4)
            .map(|_| s.pick(&ctx(&machine, task, &candidates, &free, &est)).0)
            .collect();
        assert_eq!(seq, [0, 1, 0, 1]);
    }

    #[test]
    fn energy_prefers_low_power_device() {
        // Two candidates, identical est-finish; device 1 draws less power
        // per FLOP in the testbed-like machine below.
        let machine = SimMachine::from_platform(&pdl_discover_stub());
        let mut task = dummy_task();
        task.flops = 1e9;
        let candidates = [DeviceId(0), DeviceId(1)];
        let free = |_d: DeviceId| SimTime::ZERO;
        let est = |_d: DeviceId| SimTime::new(1.0);
        let mut s = EnergyAwareScheduler;
        let picked = s.pick(&ctx(&machine, task, &candidates, &free, &est));
        // dev0: 10 GF/s @ 200 W -> 20 J/GFLOP; dev1: 10 GF/s @ 50 W -> 5 J.
        assert_eq!(picked, DeviceId(1));
        assert_eq!(s.name(), "energy");
    }

    #[test]
    fn energy_probes_each_candidate_at_most_once() {
        use std::cell::Cell;
        let mut task = dummy_task();
        task.flops = 1e9;
        let candidates = [DeviceId(3), DeviceId(0), DeviceId(2), DeviceId(1)];
        let free = |_d: DeviceId| SimTime::ZERO;
        let probes = Cell::new(0usize);
        let est = |d: DeviceId| {
            probes.set(probes.get() + 1);
            SimTime::new([2.0, 1.0, 1.0, 3.0][d.0])
        };
        // Untracked power everywhere: all energies tie, finish time decides
        // (device id breaking the 1.0 tie) — one probe per candidate, where
        // probing both sides of every comparison took six.
        let machine = test_machine();
        let picked = EnergyAwareScheduler.pick(&ctx(&machine, task, &candidates, &free, &est));
        assert_eq!(picked, DeviceId(1));
        assert!(probes.get() <= candidates.len(), "{} probes", probes.get());
        // Distinct energies decide alone: no probe at all.
        probes.set(0);
        let machine = SimMachine::from_platform(&pdl_discover_stub());
        let candidates = [DeviceId(0), DeviceId(1)];
        let picked = EnergyAwareScheduler.pick(&ctx(&machine, task, &candidates, &free, &est));
        assert_eq!(picked, DeviceId(1));
        assert_eq!(probes.get(), 0);
    }

    fn pdl_discover_stub() -> pdl_core::platform::Platform {
        use pdl_core::prelude::*;
        let mut b = Platform::builder("power");
        let m = b.master("host");
        for (i, tdp) in [(0, "200"), (1, "50")] {
            let w = b.worker(m, format!("w{i}")).unwrap();
            b.prop(w, Property::fixed(wellknown::ARCHITECTURE, "x86"));
            b.prop(
                w,
                Property::fixed(wellknown::PEAK_GFLOPS_DP, "10").with_unit(Unit::GigaFlopPerSec),
            );
            b.prop(
                w,
                Property::fixed(wellknown::TDP, tdp).with_unit(Unit::Watt),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn dmda_weighs_routed_transfers_and_learned_compute() {
        let machine = test_machine();
        let task = dummy_task();
        let candidates = [DeviceId(0), DeviceId(1)];
        let free = |_d: DeviceId| SimTime::ZERO;
        let est = |_d: DeviceId| SimTime::ZERO; // dmda ignores est_finish
                                                // Device 0 computes faster but pays a large routed transfer;
                                                // device 1 holds the data already.
        let transfer = |d: DeviceId| Duration::new([10.0, 0.0][d.0]);
        let compute = |d: DeviceId| Duration::new([1.0, 4.0][d.0]);
        let mut c = ctx(&machine, task, &candidates, &free, &est);
        c.transfer_cost = &transfer;
        c.est_compute = &compute;
        let mut s = DmdaScheduler;
        assert_eq!(s.pick(&c), DeviceId(1));
        assert_eq!(s.name(), "dmda");
        // With the transfer gap removed, the faster device wins.
        let flat = |_d: DeviceId| Duration::ZERO;
        c.transfer_cost = &flat;
        assert_eq!(s.pick(&c), DeviceId(0));
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(by_name("eager").unwrap().name(), "eager");
        assert_eq!(by_name("dmda").unwrap().name(), "dmda");
        assert_eq!(by_name("heft").unwrap().name(), "heft");
        assert_eq!(by_name("random").unwrap().name(), "random");
        assert_eq!(by_name("rr").unwrap().name(), "round-robin");
        assert_eq!(by_name("energy").unwrap().name(), "energy");
        assert!(by_name("quantum").is_none());
    }
}
