//! Simulated machines instantiated from PDL descriptors.
//!
//! The simulator never hard-codes hardware characteristics: every number it
//! uses — compute rates, link bandwidth/latency, power — is read from the
//! platform description (well-known properties), which is the paper's
//! central claim about explicit platform information. Missing properties
//! fall back to conservative defaults, and [`SimMachine::from_platform`]
//! reports which PUs needed them.

use crate::link::{LinkId, SimLink, TransferPath};
use pdl_core::interconnect::Directionality;
use pdl_core::platform::Platform;
use pdl_core::pu::PuClass;
use pdl_core::text::Text;
use pdl_core::wellknown;
use pdl_query::paths;
use std::collections::BTreeMap;
use std::fmt;

/// Interconnect type conventionally denoting a common address space: it
/// never becomes a physical [`SimLink`] and routes made entirely of it
/// collapse to "no transfer needed".
pub const SHARED_MEM_IC: &str = "shared-mem";

/// Default effective compute rate when a PU declares no `PEAK_GFLOPS_DP`:
/// one conservative GFLOP/s.
pub(crate) const DEFAULT_FLOPS_DP: f64 = 1e9;

/// Index of a simulated device within a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Link parameters between the host memory and a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Bytes per second.
    pub bandwidth_bps: f64,
    /// Seconds per message.
    pub latency_s: f64,
}

/// One schedulable execution resource of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimDevice {
    /// Stable device index.
    pub id: DeviceId,
    /// PU id from the platform description, shared with it.
    pub pu_id: Text,
    /// `ARCHITECTURE` property (`x86`, `gpu`, `spe`, …).
    pub arch: String,
    /// Effective double-precision rate: peak × efficiency (FLOP/s).
    pub flops_dp: f64,
    /// Link from host memory to this device's memory. `None` means the
    /// device shares the host address space (no transfers needed).
    pub link: Option<LinkParams>,
    /// Active power draw in watts (TDP property; defaults to 0 = untracked).
    pub active_power_w: f64,
    /// Idle power draw in watts.
    pub idle_power_w: f64,
    /// Logic groups the PU belongs to, their names shared with the
    /// platform description.
    pub groups: Vec<Text>,
    /// Software platforms available on the PU (`SOFTWARE_PLATFORM`
    /// property), e.g. `["OpenCL", "Cuda"]`.
    pub software_platforms: Vec<String>,
}

/// A simulated machine: devices extracted from a platform description.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMachine {
    /// Platform name the machine was instantiated from.
    pub name: String,
    /// Devices, indexed by [`DeviceId`].
    pub devices: Vec<SimDevice>,
    /// PU id → device index.
    index: BTreeMap<Text, DeviceId>,
    /// PUs that lacked performance properties and got defaults.
    pub defaulted_pus: Vec<String>,
    /// Physical links, indexed by [`LinkId`] — one per non-shared-mem
    /// interconnect of the expanded platform, in declaration order.
    pub links: Vec<SimLink>,
    /// Per-device route from host memory (`None` = shared address space).
    host_routes: Vec<Option<TransferPath>>,
    /// Direct device↔device routes over a declared peer interconnect,
    /// keyed by `(from, to)` device index.
    peer_routes: BTreeMap<(usize, usize), TransferPath>,
}

impl SimMachine {
    /// Instantiates a machine from a platform description.
    ///
    /// Every **Worker** PU becomes a device (after `quantity` expansion);
    /// Masters and Hybrids are control/entry points, not compute resources —
    /// except that a platform with *no* workers at all yields one device per
    /// Master so that purely sequential platforms still execute.
    ///
    /// Links are derived by routing from the first Master to the device over
    /// the explicit interconnect entities (paper §IV-C step 3); a device
    /// with no route gets `None` (shared address space assumed) when its
    /// interconnect list is empty, mirroring how shared-memory systems are
    /// typically described.
    pub fn from_platform(platform: &Platform) -> SimMachine {
        let expanded = platform.expand_quantities();
        let mut devices = Vec::new();
        let mut index = BTreeMap::new();
        let mut defaulted = Vec::new();

        // Every non-shared-mem interconnect becomes one physical link; the
        // parallel `ic_to_link` table maps interconnect index → link id so
        // route hops can be resolved onto links.
        let mut links = Vec::new();
        let mut ic_to_link: Vec<Option<LinkId>> = Vec::new();
        for ic in expanded.interconnects() {
            if ic.ic_type == SHARED_MEM_IC {
                ic_to_link.push(None);
                continue;
            }
            let id = LinkId(links.len());
            ic_to_link.push(Some(id));
            links.push(SimLink {
                id,
                name: format!("{}:{}-{}", ic.ic_type, ic.from, ic.to),
                params: LinkParams {
                    bandwidth_bps: ic.bandwidth_bps().unwrap_or(paths::DEFAULT_BANDWIDTH_BPS),
                    latency_s: ic.latency_s().unwrap_or(paths::DEFAULT_LATENCY_S),
                },
            });
        }
        let mut host_routes: Vec<Option<TransferPath>> = Vec::new();

        // Host links come from routing over the explicit interconnects:
        // one search from the first Master reaches every PU.
        let host = expanded.roots().first().copied();
        let from_host = host.map_or_else(Vec::new, |h| {
            paths::routes_from(&expanded, expanded.pu(h).id.as_str(), 1.0)
        });

        let worker_count = expanded.workers().count();
        let candidates: Vec<_> = if worker_count > 0 {
            expanded.workers().collect()
        } else {
            expanded.masters().collect()
        };

        for (idx, pu) in candidates {
            let arch = pu.architecture().unwrap_or("unknown").to_string();
            let peak = pu.peak_flops_dp();
            if peak.is_none() {
                defaulted.push(pu.id.as_str().to_string());
            }
            let flops_dp = peak.unwrap_or(DEFAULT_FLOPS_DP) * pu.efficiency();

            // A route made entirely of `shared-mem` interconnects means the
            // device lives in the host address space: no copies are ever
            // needed, so the link collapses to `None`.
            let route = match pu.class {
                PuClass::Worker | PuClass::Hybrid if Some(idx) != host => from_host
                    .get(idx.index())
                    .and_then(Option::as_ref)
                    .and_then(|r| {
                        let hop_links: Vec<LinkId> = r
                            .hops
                            .iter()
                            .filter_map(|hop| ic_to_link[hop.ic_index])
                            .collect();
                        (!hop_links.is_empty()).then_some(TransferPath {
                            links: hop_links,
                            bandwidth_bps: r.bottleneck_bps,
                            latency_s: r.latency_s,
                        })
                    }),
                _ => None,
            };
            let link = route.as_ref().map(|r| LinkParams {
                bandwidth_bps: r.bandwidth_bps,
                latency_s: r.latency_s,
            });
            host_routes.push(route);

            let active_power_w = pu.descriptor.value_base(wellknown::TDP).unwrap_or(0.0);
            let idle_power_w = pu
                .descriptor
                .value_base(wellknown::IDLE_POWER)
                .unwrap_or(active_power_w * 0.3);

            let id = DeviceId(devices.len());
            index.insert(pu.id.text().clone(), id);
            devices.push(SimDevice {
                id,
                pu_id: pu.id.text().clone(),
                arch,
                flops_dp,
                link,
                active_power_w,
                idle_power_w,
                groups: pu.groups.iter().map(|g| g.text().clone()).collect(),
                software_platforms: pu
                    .software_platforms()
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect(),
            });
        }

        // Direct device↔device routes: a single declared interconnect whose
        // endpoints are both devices (e.g. NVLink between two GPUs). When
        // several connect the same pair, the cheapest for a nominal 1 MB
        // transfer wins; ties resolve to the first declared.
        let mut peer_routes: BTreeMap<(usize, usize), TransferPath> = BTreeMap::new();
        for (ic, link) in expanded.interconnects().iter().zip(&ic_to_link) {
            let (Some(link), Some(a), Some(b)) =
                (link, index.get(ic.from.as_str()), index.get(ic.to.as_str()))
            else {
                continue;
            };
            if a == b {
                continue;
            }
            let params = links[link.0].params;
            let cand = TransferPath {
                links: vec![*link],
                bandwidth_bps: params.bandwidth_bps,
                latency_s: params.latency_s,
            };
            let mut offer = |pair: (usize, usize)| {
                let better = peer_routes
                    .get(&pair)
                    .is_none_or(|cur| cand.transfer_time(1e6) < cur.transfer_time(1e6));
                if better {
                    peer_routes.insert(pair, cand.clone());
                }
            };
            offer((a.0, b.0));
            if ic.directionality == Directionality::Bidirectional {
                offer((b.0, a.0));
            }
        }

        SimMachine {
            name: expanded.name.clone(),
            devices,
            index,
            defaulted_pus: defaulted,
            links,
            host_routes,
            peer_routes,
        }
    }

    /// Route between host memory and a device's memory, or `None` when the
    /// device shares the host address space (no copy needed). The sentinel
    /// host "device" and out-of-range ids also yield `None`.
    pub fn host_route(&self, device: DeviceId) -> Option<&TransferPath> {
        self.host_routes.get(device.0).and_then(|r| r.as_ref())
    }

    /// Direct peer route between two devices over a declared interconnect
    /// (e.g. `NVLink`), or `None` when transfers must stage through the host.
    pub fn peer_route(&self, from: DeviceId, to: DeviceId) -> Option<&TransferPath> {
        self.peer_routes.get(&(from.0, to.0))
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the machine has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device by PU id.
    pub fn device_by_pu(&self, pu_id: &str) -> Option<&SimDevice> {
        self.index.get(pu_id).map(|&i| &self.devices[i.0])
    }

    /// Devices of the given architecture.
    pub fn devices_with_arch<'a>(&'a self, arch: &'a str) -> impl Iterator<Item = &'a SimDevice> {
        self.devices.iter().filter(move |d| d.arch == arch)
    }

    /// Aggregate effective DP rate of all devices (FLOP/s).
    pub fn total_flops_dp(&self) -> f64 {
        self.devices.iter().map(|d| d.flops_dp).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_discover::synthetic;

    #[test]
    fn testbed_instantiation() {
        let p = synthetic::xeon_2gpu_testbed();
        let m = SimMachine::from_platform(&p);
        // 6 CPU + 2 GPU workers.
        assert_eq!(m.len(), 8);
        assert!(m.defaulted_pus.is_empty(), "{:?}", m.defaulted_pus);
        let gpu0 = m.device_by_pu("gpu0").unwrap();
        assert_eq!(gpu0.arch, "gpu");
        // GTX480: 168 GF/s × 0.60 ≈ 100.8 GF/s effective.
        assert!((gpu0.flops_dp - 100.8e9).abs() < 1e9, "{}", gpu0.flops_dp);
        let link = gpu0.link.expect("PCIe link derived from interconnect");
        assert_eq!(link.bandwidth_bps, 6e9);
        let cpu = m.device_by_pu("cpu0").unwrap();
        // Xeon core: 10.64 × 0.9 ≈ 9.58 GF/s.
        assert!((cpu.flops_dp - 9.576e9).abs() < 0.05e9, "{}", cpu.flops_dp);
        assert_eq!(m.devices_with_arch("x86").count(), 6);
    }

    #[test]
    fn quantity_expansion_applies() {
        let p = pdl_core::patterns::master_worker_pool(8);
        let m = SimMachine::from_platform(&p);
        assert_eq!(m.len(), 8);
        // All defaulted (pattern has no perf properties).
        assert_eq!(m.defaulted_pus.len(), 8);
        assert_eq!(m.devices[0].flops_dp, DEFAULT_FLOPS_DP);
    }

    #[test]
    fn masters_only_platform_gets_master_device() {
        let mut b = pdl_core::platform::Platform::builder("solo");
        let m = b.master("cpu");
        b.prop(
            m,
            pdl_core::property::Property::fixed(wellknown::PEAK_GFLOPS_DP, "10")
                .with_unit(pdl_core::units::Unit::GigaFlopPerSec),
        );
        let p = b.build().unwrap();
        let machine = SimMachine::from_platform(&p);
        assert_eq!(machine.len(), 1);
        assert_eq!(machine.devices[0].pu_id, "cpu");
        assert_eq!(machine.devices[0].flops_dp, 10e9);
    }

    #[test]
    fn cell_be_machine() {
        let m = SimMachine::from_platform(&synthetic::cell_be());
        assert_eq!(m.len(), 8);
        assert_eq!(m.devices_with_arch("spe").count(), 8);
        // EIB link derived.
        let spe = m.device_by_pu("spe0").unwrap();
        assert_eq!(spe.link.unwrap().bandwidth_bps, 25.6e9);
        // Effective rate: 1.8 × 0.85.
        assert!((spe.flops_dp - 1.53e9).abs() < 1e7);
    }

    #[test]
    fn total_rate_aggregates() {
        let m = SimMachine::from_platform(&synthetic::xeon_x5550_host());
        // 8 × 9.576 GF/s.
        assert!((m.total_flops_dp() - 8.0 * 9.576e9).abs() < 1e8);
    }

    #[test]
    fn links_and_host_routes_derived() {
        let p = synthetic::xeon_2gpu_testbed();
        let m = SimMachine::from_platform(&p);
        // Only the two PCIe interconnects become physical links; shared-mem
        // edges model the common address space.
        assert_eq!(m.links.len(), 2);
        assert!(m.links.iter().all(|l| l.name.starts_with("PCIe:")));
        let gpu0 = m.device_by_pu("gpu0").unwrap().id;
        let gpu1 = m.device_by_pu("gpu1").unwrap().id;
        let cpu0 = m.device_by_pu("cpu0").unwrap().id;
        let r0 = m.host_route(gpu0).expect("gpu0 routed over PCIe");
        assert_eq!(r0.links.len(), 1);
        assert_eq!(r0.bandwidth_bps, 6e9);
        let r1 = m.host_route(gpu1).expect("gpu1 routed over PCIe");
        // The two GPUs sit on distinct PCIe links.
        assert_ne!(r0.links[0], r1.links[0]);
        // CPUs share the host address space: no route, no links occupied.
        assert!(m.host_route(cpu0).is_none());
        // Out-of-range (e.g. a HOST sentinel id) is not routed.
        assert!(m.host_route(DeviceId(usize::MAX)).is_none());
        // No direct GPU↔GPU interconnect is declared on the plain testbed.
        assert!(m.peer_route(gpu0, gpu1).is_none());
    }

    #[test]
    fn peer_routes_from_direct_interconnects() {
        use pdl_core::interconnect::Interconnect;
        // Two workers joined by a direct link, plus asymmetric declaration.
        let mut b = pdl_core::platform::Platform::builder("peers");
        let host = b.master("host");
        b.prop(
            host,
            pdl_core::property::Property::fixed(wellknown::PEAK_GFLOPS_DP, "10")
                .with_unit(pdl_core::units::Unit::GigaFlopPerSec),
        );
        for id in ["acc0", "acc1"] {
            let w = b.worker(host, id.to_string()).expect("master controls");
            b.prop(
                w,
                pdl_core::property::Property::fixed(wellknown::PEAK_GFLOPS_DP, "100")
                    .with_unit(pdl_core::units::Unit::GigaFlopPerSec),
            );
            b.interconnect(Interconnect::new("PCIe", "host", id));
        }
        b.interconnect(Interconnect::new("NVLink", "acc0", "acc1"));
        let p = b.build().unwrap();
        let m = SimMachine::from_platform(&p);
        let a0 = m.device_by_pu("acc0").unwrap().id;
        let a1 = m.device_by_pu("acc1").unwrap().id;
        let fwd = m.peer_route(a0, a1).expect("direct NVLink route");
        assert_eq!(fwd.links.len(), 1);
        assert_eq!(m.links[fwd.links[0].0].name, "NVLink:acc0-acc1");
        // Bidirectional by default: reverse direction routes too.
        let rev = m.peer_route(a1, a0).expect("reverse NVLink route");
        assert_eq!(rev.links, fwd.links);
        // Peer link is disjoint from both host routes.
        let h0 = m.host_route(a0).unwrap();
        assert!(!h0.links.contains(&fwd.links[0]));
    }

    #[test]
    fn peer_routes_respect_direction_and_pick_cheapest_parallel_link() {
        use pdl_core::interconnect::Interconnect;
        use pdl_core::prelude::{Descriptor, Property, Unit};
        let link = |ty: &str, from: &str, to: &str, gbps: &str, us: &str| {
            Interconnect::new(ty, from, to).with_descriptor(
                Descriptor::new()
                    .with(
                        Property::fixed(wellknown::BANDWIDTH, gbps).with_unit(Unit::GigaBytePerSec),
                    )
                    .with(Property::fixed(wellknown::LATENCY, us).with_unit(Unit::MicroSecond)),
            )
        };
        let mut b = pdl_core::platform::Platform::builder("peers");
        let host = b.master("host");
        for id in ["acc0", "acc1", "acc2"] {
            b.worker(host, id).expect("master controls");
            b.interconnect(Interconnect::new("PCIe", "host", id));
        }
        // Asymmetric declaration: acc0 may push to acc1, not the reverse.
        b.interconnect(link("dma", "acc0", "acc1", "10", "1").unidirectional());
        // Parallel links acc1↔acc2, declared in both orientations: at 1 MB
        // `fast` (40 µs + 2 µs) beats `slow` (1 ms); its twin ties with it
        // and, declared later, must lose.
        b.interconnect(link("slow", "acc1", "acc2", "1", "1"));
        b.interconnect(link("fast", "acc2", "acc1", "25", "2"));
        b.interconnect(link("fast-twin", "acc1", "acc2", "25", "2"));
        let m = SimMachine::from_platform(&b.build().unwrap());
        let [a0, a1, a2] = ["acc0", "acc1", "acc2"].map(|id| m.device_by_pu(id).unwrap().id);

        let push = m.peer_route(a0, a1).expect("declared direction routes");
        assert_eq!(m.links[push.links[0].0].name, "dma:acc0-acc1");
        assert!(m.peer_route(a1, a0).is_none(), "unidirectional link");
        assert!(m.peer_route(a0, a2).is_none(), "no link declared");

        for (from, to) in [(a1, a2), (a2, a1)] {
            let r = m.peer_route(from, to).expect("parallel links route");
            assert_eq!(m.links[r.links[0].0].name, "fast:acc2-acc1");
            assert_eq!(r.bandwidth_bps, 25e9);
        }
    }

    #[test]
    fn power_defaults() {
        let p = synthetic::xeon_2gpu_testbed();
        let m = SimMachine::from_platform(&p);
        let gpu = m.device_by_pu("gpu0").unwrap();
        assert_eq!(gpu.active_power_w, 250.0);
        assert_eq!(gpu.idle_power_w, 75.0); // 30% default
        let cpu = m.device_by_pu("cpu0").unwrap();
        assert_eq!(cpu.active_power_w, 0.0); // untracked
    }
}
