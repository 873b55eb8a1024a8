//! Dispatch tables and cost oracles shared by the two virtual-time engines.
//!
//! Which devices may run a task, and what a placement would cost, is the
//! same question in the list engine ([`crate::sim_engine`]) and the
//! event-driven engine ([`crate::dyn_engine`]); only *when* it is asked
//! differs. Both resolve the string-typed parts of the answer (variant
//! architecture / software-platform matching, execution-group membership)
//! once per run into [`DispatchTables`], and both hand the policy the same
//! four oracles through [`Oracles::pick`], which price a transfer once per
//! *route class* (equal host routes), not once per candidate.

use crate::data::{DataRegistry, Routing};
use crate::graph::TaskGraph;
use crate::perfmodel::PerfModel;
use crate::scheduler::{ScheduleContext, Scheduler};
use crate::task::Task;
use simhw::machine::{DeviceId, SimMachine};
use simhw::resource::Timeline;
use simhw::time::{Duration, SimTime};
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;

/// Per-run look-up tables replacing per-dispatch `variant_for` string
/// matching (and its software-platform `Vec` allocations) and group-name
/// comparisons with indexed loads. The only place that decides which
/// devices a task may use.
pub(crate) struct DispatchTables<'g> {
    /// The graph whose tasks are dispatched: it knows each task's group index.
    graph: &'g TaskGraph,
    /// `[codelet][device]`: speedup of the variant the device would run,
    /// `None` when it can run none.
    variants: Vec<Vec<Option<f64>>>,
    /// `[codelet × (groups + 1) + group slot]` (slot 0 = unrestricted,
    /// 1 + g = the graph's g-th execution group): the pair's class.
    class_of: Vec<usize>,
    /// Per eligibility class, the devices its tasks may run on (variant-
    /// compatible ∩ execution group) in device order. Pairs with equal
    /// lists share a class.
    classes: Vec<Vec<DeviceId>>,
    /// Per device, its route class: devices whose host routes have equal
    /// latency and bandwidth bits, or that have none, share one.
    route_class: Vec<usize>,
    route_classes: usize,
    /// Per device: the run routes peer to peer and a declared peer route
    /// ends at it (a scan of every pair, made only then).
    peer_target: Vec<bool>,
}

impl<'g> DispatchTables<'g> {
    pub(crate) fn new(graph: &'g TaskGraph, machine: &SimMachine, routing: Routing) -> Self {
        let software: Vec<Vec<&str>> = machine
            .devices
            .iter()
            .map(|d| d.software_platforms.iter().map(String::as_str).collect())
            .collect();
        let variants: Vec<Vec<Option<f64>>> = graph
            .codelets
            .iter()
            .map(|codelet| {
                machine
                    .devices
                    .iter()
                    .zip(&software)
                    .map(|(d, sw)| codelet.variant_for(&d.arch, sw).map(|v| v.speedup))
                    .collect()
            })
            .collect();
        let mut classes: Vec<Vec<DeviceId>> = Vec::new();
        let mut class_of = Vec::with_capacity(variants.len() * (graph.groups().len() + 1));
        for runs in &variants {
            for group in std::iter::once(None).chain(graph.groups().iter().map(Some)) {
                let devices: Vec<DeviceId> = (0..machine.len())
                    .filter(|&d| runs[d].is_some())
                    .filter(|&d| {
                        group.is_none_or(|g| {
                            machine.devices[d].groups.iter().any(|x| x == g.as_str())
                        })
                    })
                    .map(DeviceId)
                    .collect();
                let known = classes.iter().position(|c| *c == devices);
                class_of.push(known.unwrap_or_else(|| {
                    classes.push(devices);
                    classes.len() - 1
                }));
            }
        }
        let mut routes = HashMap::new();
        let route_class = (0..machine.len())
            .map(|d| {
                let route = machine.host_route(DeviceId(d));
                let key = route.map(|r| (r.latency_s.to_bits(), r.bandwidth_bps.to_bits()));
                let next = routes.len();
                *routes.entry(key).or_insert(next)
            })
            .collect();
        let devices = || (0..machine.len()).map(DeviceId);
        let peer_target = devices()
            .map(|d| {
                routing == Routing::PeerToPeer
                    && devices().any(|o| o != d && machine.peer_route(o, d).is_some())
            })
            .collect();
        DispatchTables {
            graph,
            variants,
            class_of,
            classes,
            route_class,
            route_classes: routes.len(),
            peer_target,
        }
    }

    /// How many eligibility classes the run has.
    pub(crate) fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The eligibility class of `task`.
    pub(crate) fn class_of(&self, task: Task<'_>) -> usize {
        let slot = self.graph.group_index(task.id).map_or(0, |g| g + 1);
        self.class_of[task.codelet * (self.graph.groups().len() + 1) + slot]
    }

    /// Devices able to run the tasks of `class`, in device order.
    pub(crate) fn devices(&self, class: usize) -> &[DeviceId] {
        &self.classes[class]
    }

    /// Analytic compute time of `task` on an eligible `device`:
    /// `flops / (device rate × variant speedup)`.
    pub(crate) fn compute_time(
        &self,
        machine: &SimMachine,
        task: Task<'_>,
        device: DeviceId,
    ) -> Duration {
        Duration::new(self.compute_seconds(machine, task, device))
    }

    /// [`compute_time`](Self::compute_time) as a bare `f64`, which may
    /// overflow to infinity.
    pub(crate) fn compute_seconds(
        &self,
        machine: &SimMachine,
        task: Task<'_>,
        device: DeviceId,
    ) -> f64 {
        let speedup = self.variants[task.codelet][device.0].expect("eligible device has a variant");
        task.flops / (machine.devices[device.0].flops_dp * speedup)
    }
}

/// A run's scratch for pricing picks: per (access, route class), the probe
/// of the first device of the class asked about, stamped with the pick that
/// made it. Picks reuse it without clearing it.
#[derive(Default)]
pub(crate) struct ProbeMemo {
    pick: u64,
    entries: Vec<Cell<(u64, Duration)>>,
}

impl ProbeMemo {
    /// Starts a pick of `task`: every entry made before is stale. Grows only.
    pub(crate) fn begin(&mut self, task: Task<'_>, tables: &DispatchTables<'_>) {
        self.pick += 1;
        let len = task.accesses.len() * tables.route_classes;
        self.entries
            .resize(len.max(self.entries.len()), Cell::default());
    }

    /// Entry `at` of this pick, made by `probe` if it has not been yet.
    fn get_or(&self, at: usize, probe: impl FnOnce() -> Duration) -> Duration {
        let entry = &self.entries[at];
        let (stamp, cost) = entry.get();
        if stamp == self.pick {
            return cost;
        }
        let cost = probe();
        entry.set((self.pick, cost));
        cost
    }
}

/// What a policy may ask about placing one ready task: the engine state
/// the four [`ScheduleContext`] oracles read.
pub(crate) struct Oracles<'a> {
    pub machine: &'a SimMachine,
    pub tables: &'a DispatchTables<'a>,
    pub data: &'a DataRegistry,
    /// Device timelines, indexed by device id.
    pub timelines: &'a [Timeline],
    /// Learned history preferred over the analytic compute estimate (an
    /// empty model always defers to the analytic one).
    pub perfmodel: &'a PerfModel,
    /// Routing the engine will charge transfers under.
    pub routing: Routing,
    pub task: Task<'a>,
    pub codelet_name: &'a str,
    /// Earliest time the task may start.
    pub ready: SimTime,
    /// Devices the policy chooses among. Never empty.
    pub candidates: &'a [DeviceId],
    pub memo: &'a ProbeMemo,
}

impl Oracles<'_> {
    /// Sum of the coherence probes of every access of the task on `d`, in
    /// access order. An access that does not read, or whose datum `d`
    /// holds, is free. Any other pays the host-staged plan, which depends
    /// on `d` only through its host route: the probe of `d`'s route class.
    /// A peer route into `d` may beat that plan, so then `d` is probed.
    fn transfers(&self, d: DeviceId, routing: Routing) -> Duration {
        let (tables, data) = (self.tables, self.data);
        let direct = routing == Routing::PeerToPeer && tables.peer_target[d.0];
        let accesses = self.task.accesses.iter().enumerate();
        accesses.fold(Duration::ZERO, |t, (i, a)| {
            let probe = || data.probe_acquire_via(self.machine, a.handle, d, a.mode, routing);
            t + if direct {
                probe()
            } else if !a.mode.reads() || data.is_valid_on(a.handle, d) {
                Duration::ZERO
            } else {
                let at = i * tables.route_classes + tables.route_class[d.0];
                self.memo.get_or(at, probe)
            }
        })
    }

    /// Asks `scheduler` for one of the candidates.
    pub(crate) fn pick(&self, scheduler: &mut dyn Scheduler) -> DeviceId {
        let analytic = |d: DeviceId| self.tables.compute_time(self.machine, self.task, d);
        let free_at = |d: DeviceId| self.timelines[d.0].free_at();
        // HEFT's estimate: host-staged transfers, analytic compute.
        let est_finish = |d: DeviceId| {
            let busy = self.transfers(d, Routing::HostStaged) + analytic(d);
            self.timelines[d.0].probe(self.ready, busy).1
        };
        let transfer_cost = |d: DeviceId| self.transfers(d, self.routing);
        // The bytes the task touches, summed on first use: only a policy
        // that asks for a compute estimate needs them.
        let size = OnceCell::new();
        let est_compute = |d: DeviceId| {
            let size = *size.get_or_init(|| {
                (self.task.accesses.iter())
                    .map(|a| self.data.size(a.handle))
                    .sum::<f64>()
            });
            self.perfmodel
                .estimate(self.codelet_name, &self.machine.devices[d.0].arch, size)
                .unwrap_or_else(|| analytic(d))
        };
        let chosen = scheduler.pick(&ScheduleContext {
            machine: self.machine,
            task: self.task,
            codelet_name: self.codelet_name,
            ready: self.ready,
            candidates: self.candidates,
            free_at: &free_at,
            est_finish: &est_finish,
            transfer_cost: &transfer_cost,
            est_compute: &est_compute,
        });
        debug_assert!(
            self.candidates.contains(&chosen),
            "policy must pick a candidate"
        );
        chosen
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use simhw::machine::{DeviceId, SimMachine};
    use simhw::time::{Duration, SimTime};
    use std::collections::BTreeSet;

    /// Group membership is resolved by interned index; the error still
    /// names the group, and names the first task that asked for it.
    #[test]
    fn a_group_the_machine_lacks_fails_on_its_first_task_by_name() {
        let machine = SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::new();
        let c = g.add_codelet(
            Codelet::new("k")
                .with_variant(Variant::new("x86"))
                .with_variant(Variant::new("gpu").requiring("Cuda")),
        );
        for group in [
            Some("gpus"),
            None,
            Some("fpgas"),
            Some("gpus"),
            Some("fpgas"),
        ] {
            g.submit(c, "t", 1e9, [], group);
        }
        let expected = RtError::NoEligibleDevice {
            task: TaskId(2),
            codelet: "k".into(),
            execution_group: Some("fpgas".into()),
        };
        let options = SimOptions::default();
        let list = simulate(&g, &machine, &mut EagerScheduler, &options);
        assert_eq!(list.unwrap_err(), expected);
        let online = simulate_dynamic(&g, &machine, &mut EagerScheduler, &options);
        assert_eq!(online.unwrap_err(), expected);
    }

    /// A rate no duration can be divided by is refused before anything is
    /// charged, by the constructor both engines share.
    #[test]
    fn a_device_without_a_usable_rate_is_an_error_in_both_engines() {
        let mut g = TaskGraph::new();
        let c = g.add_codelet(Codelet::new("k").with_variant(Variant::new("x86")));
        g.submit(c, "t", 1e9, [], None);
        let options = SimOptions::default();
        for rate in [0.0, -9.576e9, f64::INFINITY] {
            let mut machine =
                SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());
            machine.devices[3].flops_dp = rate;
            let expected = RtError::UnusableRate {
                pu_id: machine.devices[3].pu_id.to_string(),
                flops_dp: rate,
            };
            let list = simulate(&g, &machine, &mut HeftScheduler, &options);
            assert_eq!(list.unwrap_err(), expected);
            let online = simulate_dynamic(&g, &machine, &mut HeftScheduler, &options);
            assert_eq!(online.unwrap_err(), expected);
            assert!(expected
                .to_string()
                .contains(machine.devices[3].pu_id.as_str()));
        }
    }

    /// The graph's two factors of the same division — a variant's speedup
    /// and a task's FLOP count — are refused the same way, naming the
    /// codelet and variant architecture, or the task; so is a task whose
    /// usable factors divide to an infinite time, naming it and the PU.
    #[test]
    fn a_graph_without_a_usable_rate_is_an_error_in_both_engines() {
        let machine = SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());
        let options = SimOptions::default();
        let graph = |speedup: f64, flops: f64| {
            let mut g = TaskGraph::new();
            let c = g.add_codelet(
                Codelet::new("k")
                    .with_variant(Variant::new("x86"))
                    .with_variant(Variant::new("gpu").with_speedup(speedup)),
            );
            g.submit(c, "t0", 1e9, [], None);
            g.submit(c, "t1", flops, [], None);
            g
        };
        let unusable = |origin: &str, value: f64| RtError::UnusableWork {
            origin: origin.into(),
            value,
        };
        let mut cases = Vec::new();
        for speedup in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let origin = "codelet \"k\", variant \"gpu\"";
            cases.push((graph(speedup, 1e9), origin, unusable(origin, speedup)));
        }
        for flops in [-1.0, f64::NAN, f64::INFINITY] {
            cases.push((graph(1.0, flops), "task t1", unusable("task t1", flops)));
        }
        // 1e300 FLOPs at a 1e-300 speedup overflow on every GPU; the first
        // is named.
        let gpu = machine.devices.iter().find(|d| d.arch == "gpu").unwrap();
        let overflow = RtError::UnusableComputeTime {
            task: TaskId(1),
            pu_id: gpu.pu_id.to_string(),
        };
        cases.push((graph(1e-300, 1e300), "task t1", overflow));
        for (g, origin, expected) in cases {
            let list = simulate(&g, &machine, &mut HeftScheduler, &options).unwrap_err();
            let online = simulate_dynamic(&g, &machine, &mut HeftScheduler, &options).unwrap_err();
            // A NaN field is unequal to itself; its `Debug` form is not.
            assert_eq!(format!("{list:?}"), format!("{expected:?}"));
            assert_eq!(format!("{online:?}"), format!("{expected:?}"));
            assert!(list.to_string().starts_with(origin), "{list}");
        }
        // A zero-FLOP task, a huge speedup and a long finite time are fine.
        for (speedup, flops) in [(f64::MAX, 0.0), (1e-300, 1e9)] {
            let g = graph(speedup, flops);
            assert!(simulate(&g, &machine, &mut HeftScheduler, &options).is_ok());
            assert!(simulate_dynamic(&g, &machine, &mut HeftScheduler, &options).is_ok());
        }
    }

    /// The routes of `tests/sim_golden.rs`'s `route_class_machine`: `cpu0`
    /// shares host memory; `gpu0`–`gpu2` share a `PCIe` route and `gpu0` ↔
    /// `gpu1` an `NVLink`; `gpu3` and `gpu5` have `gpu0`'s latency at twice
    /// its bandwidth; `gpu4` has `gpu0`'s bandwidth at a third of its latency.
    fn route_class_machine() -> SimMachine {
        use pdl_core::prelude::{wellknown, Descriptor, Interconnect, Platform, Property, Unit};
        let link = |ty: &str, from: &str, to: &str, gbps: &str, us: &str| {
            Interconnect::new(ty, from, to).with_descriptor(
                Descriptor::new()
                    .with(
                        Property::fixed(wellknown::BANDWIDTH, gbps).with_unit(Unit::GigaBytePerSec),
                    )
                    .with(Property::fixed(wellknown::LATENCY, us).with_unit(Unit::MicroSecond)),
            )
        };
        let mut b = Platform::builder("route-classes");
        let host = b.master("host");
        let devices = [
            ("cpu0", "x86", "10.64", None),
            ("gpu0", "gpu", "168", Some(("6", "15"))),
            ("gpu1", "gpu", "168", Some(("6", "15"))),
            ("gpu2", "gpu", "168", Some(("6", "15"))),
            ("gpu3", "gpu", "168", Some(("12", "15"))),
            ("gpu4", "gpu", "168", Some(("6", "5"))),
            ("gpu5", "gpu", "168", Some(("12", "15"))),
        ];
        for (id, arch, gflops, pcie) in devices {
            let w = b.worker(host, id).expect("the master controls its workers");
            b.prop(w, Property::fixed(wellknown::ARCHITECTURE, arch));
            b.prop(
                w,
                Property::fixed(wellknown::PEAK_GFLOPS_DP, gflops).with_unit(Unit::GigaFlopPerSec),
            );
            b.interconnect(match pcie {
                Some((gbps, us)) => link("PCIe", "host", id, gbps, us),
                None => link("shared-mem", "host", id, "32", "0.1"),
            });
        }
        b.interconnect(link("NVLink", "gpu0", "gpu1", "25", "2"));
        SimMachine::from_platform(&b.build().expect("the machine is structurally valid"))
    }

    /// Reads every candidate's `transfer_cost` (last candidate first), then
    /// its `est_finish`, and places the task on the first candidate.
    struct Recorder(Vec<(DeviceId, Duration, SimTime)>);

    impl Scheduler for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }

        fn pick(&mut self, ctx: &ScheduleContext<'_>) -> DeviceId {
            let costs: Vec<Duration> = (ctx.candidates.iter().rev())
                .map(|&d| (ctx.transfer_cost)(d))
                .collect();
            let costs = costs.into_iter().rev();
            let rows = ctx.candidates.iter().zip(costs);
            self.0 = rows.map(|(&d, c)| (d, c, (ctx.est_finish)(d))).collect();
            ctx.candidates[0]
        }
    }

    /// Pricing an access once per route class gives every candidate, bit
    /// for bit, the sums of the per-device probes: for data valid on the
    /// host only, on one device only and on several, read, written and
    /// both, a handle named twice, under either routing, with a peer route
    /// into two devices of a class and classes that differ only in latency
    /// or only in bandwidth.
    #[test]
    fn route_class_pricing_equals_per_device_probes() {
        use super::{DispatchTables, Oracles, ProbeMemo};
        use simhw::resource::Timeline;
        let machine = route_class_machine();
        let dev = |pu: &str| machine.device_by_pu(pu).expect("declared").id;
        let mut g = TaskGraph::new();
        let k = g.add_codelet(
            Codelet::new("k")
                .with_variant(Variant::new("x86"))
                .with_variant(Variant::new("gpu")),
        );
        let handles: Vec<HandleId> = (0..5)
            .map(|i| g.register_data(format!("h{i}"), 1e6 * (i + 1) as f64))
            .collect();
        let [host, gpu0, multi, cpu, peer] = handles[..] else {
            unreachable!()
        };
        let acc = |handle, mode| DataAccess { handle, mode };
        let modes = [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite];
        for &h in &handles {
            for mode in modes {
                g.submit(k, "one", 1e9, [acc(h, mode)], None);
            }
        }
        g.submit(
            k,
            "twice",
            2e9,
            [
                acc(gpu0, AccessMode::Read),
                acc(gpu0, AccessMode::ReadWrite),
            ],
            None,
        );
        let all = handles.iter().zip(modes.iter().cycle());
        g.submit(k, "all", 3e9, all.map(|(&h, &m)| acc(h, m)), None);

        let mut data = g.data.clone();
        let (staged, direct) = (Routing::HostStaged, Routing::PeerToPeer);
        let mut acquire = |h, pu, mode, routing| {
            data.acquire_via(&machine, h, dev(pu), mode, routing);
        };
        acquire(gpu0, "gpu0", AccessMode::Write, staged);
        acquire(multi, "gpu3", AccessMode::Write, staged);
        acquire(multi, "gpu4", AccessMode::Read, staged);
        acquire(multi, "gpu1", AccessMode::Read, staged);
        acquire(cpu, "cpu0", AccessMode::Write, staged);
        acquire(peer, "gpu1", AccessMode::Write, staged);
        acquire(peer, "gpu0", AccessMode::Read, direct);
        let on = |pus: &[&str]| pus.iter().map(|pu| dev(pu)).collect::<BTreeSet<_>>();
        assert_eq!(data.valid_on(host), [crate::data::HOST].into());
        assert_eq!(data.valid_on(gpu0), on(&["gpu0"]));
        let mut several = on(&["gpu1", "gpu3", "gpu4"]);
        several.insert(crate::data::HOST);
        assert_eq!(data.valid_on(multi), several);
        assert_eq!(data.valid_on(cpu), on(&["cpu0"]));
        assert_eq!(data.valid_on(peer), on(&["gpu0", "gpu1"]));

        let mut timelines = vec![Timeline::new(); machine.len()];
        timelines[dev("gpu2").0].reserve(SimTime::ZERO, Duration::new(0.25));
        let perfmodel = PerfModel::new();
        for routing in [Routing::HostStaged, Routing::PeerToPeer] {
            let tables = DispatchTables::new(&g, &machine, routing);
            assert_eq!(tables.route_classes, 4);
            let mut memo = ProbeMemo::default();
            for task in g.tasks() {
                let candidates = tables.devices(tables.class_of(task));
                assert_eq!(candidates.len(), machine.len());
                memo.begin(task, &tables);
                let mut recorder = Recorder(Vec::new());
                Oracles {
                    machine: &machine,
                    tables: &tables,
                    data: &data,
                    timelines: &timelines,
                    perfmodel: &perfmodel,
                    routing,
                    task,
                    codelet_name: "k",
                    ready: SimTime::new(0.125),
                    candidates,
                    memo: &memo,
                }
                .pick(&mut recorder);
                let probes = |d: DeviceId, routing| {
                    (task.accesses.iter()).fold(Duration::ZERO, |t, a| {
                        t + data.probe_acquire_via(&machine, a.handle, d, a.mode, routing)
                    })
                };
                for (d, cost, finish) in recorder.0 {
                    let busy = probes(d, staged) + tables.compute_time(&machine, task, d);
                    let expected = timelines[d.0].probe(SimTime::new(0.125), busy).1;
                    let at = (task.id, d, routing);
                    assert_eq!(
                        cost.seconds().to_bits(),
                        probes(d, routing).seconds().to_bits(),
                        "{at:?}"
                    );
                    assert_eq!(
                        finish.seconds().to_bits(),
                        expected.seconds().to_bits(),
                        "{at:?}"
                    );
                }
            }
        }
    }

    /// Equal device lists are one class whichever (codelet, group) pair
    /// they come from; a pair nothing can run is a class without devices.
    #[test]
    fn pairs_with_equal_device_lists_share_a_class() {
        let machine = SimMachine::from_platform(&pdl_discover::synthetic::xeon_2gpu_testbed());
        let mut g = TaskGraph::new();
        let x86 = g.add_codelet(Codelet::new("x").with_variant(Variant::new("x86")));
        let both = g.add_codelet(
            Codelet::new("b")
                .with_variant(Variant::new("x86"))
                .with_variant(Variant::new("gpu").requiring("Cuda")),
        );
        let ids = [
            g.submit(x86, "t0", 1e9, [], None),
            g.submit(both, "t1", 1e9, [], Some("cpus")),
            g.submit(x86, "t2", 1e9, [], Some("cpus")),
            g.submit(both, "t3", 1e9, [], None),
            g.submit(both, "t4", 1e9, [], Some("gpus")),
        ];
        let tables = super::DispatchTables::new(&g, &machine, Routing::HostStaged);
        let class = ids.map(|t| tables.class_of(g.task(t)));
        assert_eq!(class[0], class[1]);
        assert_eq!(class[0], class[2]);
        assert_ne!(class[0], class[3]);
        assert_ne!(class[3], class[4]);
        assert_eq!(tables.devices(class[3]).len(), machine.len());
        assert!(tables
            .devices(class[4])
            .iter()
            .all(|d| machine.devices[d.0].arch == "gpu"));
        // x86 codelet × gpus group: unused here, and empty.
        assert_eq!(tables.class_count(), 4);
    }
}
