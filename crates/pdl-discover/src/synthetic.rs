//! Synthetic platform generators.
//!
//! Concrete, fully-annotated PDL descriptors for the machines the paper
//! discusses: the evaluation testbed (dual Xeon X5550 + GTX480 + GTX285,
//! §IV-D), a Cell B.E. (the IBM example of the introduction), a GPGPU
//! cluster (hierarchical pattern) and a NUMA host. All performance figures
//! are stored *in the PDL* as well-known properties — downstream tools
//! (simulator, schedulers, code generator) are parameterized exclusively by
//! these descriptors, which is precisely the paper's thesis.

use crate::opencl_sim::{query_device, DeviceSpec};
use pdl_core::prelude::*;

/// Per-core peak DP GFLOP/s of a 2.66 GHz Nehalem core
/// (4 DP FLOP/cycle × 2.66 GHz).
pub(crate) const XEON_X5550_CORE_GFLOPS_DP: f64 = 10.64;

/// Sustained fraction of peak for `GotoBLAS2` DGEMM on Nehalem.
pub(crate) const GOTOBLAS_EFFICIENCY: f64 = 0.90;

/// Effective `PCIe` 2.0 ×16 bandwidth (GB/s) — ~6 of the theoretical 8.
pub(crate) const PCIE2_X16_EFFECTIVE_GBS: f64 = 6.0;

/// Options controlling the testbed descriptor generation.
#[derive(Debug, Clone)]
pub struct TestbedOptions {
    /// Number of CPU cores exposed as workers (the machine has 8).
    pub cpu_cores: u32,
    /// GPU device names to attach (resolved via the simulated `OpenCL`
    /// database).
    pub gpus: Vec<&'static str>,
    /// Whether each attached GPU consumes one CPU core as its driver
    /// thread, as `StarPU` does by default.
    pub dedicate_driver_cores: bool,
    /// Whether to declare a direct NVLink-style interconnect between every
    /// pair of attached GPUs, enabling peer-to-peer transfers that bypass
    /// host staging.
    pub nvlink_gpus: bool,
}

impl Default for TestbedOptions {
    fn default() -> Self {
        TestbedOptions {
            cpu_cores: 8,
            gpus: vec![],
            dedicate_driver_cores: true,
            nvlink_gpus: false,
        }
    }
}

/// Paper §IV-D testbed, CPU-only view ("starpu" configuration):
/// dual-socket 2.66 GHz Xeon X5550, 8 cores, no GPUs.
pub fn xeon_x5550_host() -> Platform {
    build_testbed("xeon-x5550-8core", &TestbedOptions::default())
}

/// Paper §IV-D testbed, full view ("starpu+2gpu" configuration):
/// the Xeon host plus GTX 480 and GTX 285.
pub fn xeon_2gpu_testbed() -> Platform {
    build_testbed(
        "xeon-x5550-gtx480-gtx285",
        &TestbedOptions {
            gpus: vec!["GeForce GTX 480", "GeForce GTX 285"],
            ..TestbedOptions::default()
        },
    )
}

/// Effective NVLink-style peer bandwidth between the two GPUs (GB/s).
pub(crate) const NVLINK_EFFECTIVE_GBS: f64 = 25.0;

/// `NVLink` peer latency (µs).
pub(crate) const NVLINK_LATENCY_US: f64 = 2.0;

/// The 2-GPU testbed with a direct NVLink-style GPU↔GPU interconnect
/// declared in addition to the per-GPU `PCIe` links — a what-if variant for
/// studying peer-to-peer routing and host-staging avoidance.
pub fn xeon_2gpu_nvlink_testbed() -> Platform {
    build_testbed(
        "xeon-x5550-gtx480-gtx285-nvlink",
        &TestbedOptions {
            gpus: vec!["GeForce GTX 480", "GeForce GTX 285"],
            nvlink_gpus: true,
            ..TestbedOptions::default()
        },
    )
}

/// Generic testbed builder.
pub fn build_testbed(name: &str, opts: &TestbedOptions) -> Platform {
    let mut b = Platform::builder(name);
    let host = b.master("host");
    b.prop(host, Property::fixed(wellknown::ARCHITECTURE, "x86"));
    b.prop(
        host,
        Property::fixed(wellknown::DEVICE_NAME, "Intel Xeon X5550"),
    );
    b.prop(host, Property::fixed(wellknown::VENDOR, "Intel"));
    b.prop(
        host,
        Property::fixed(wellknown::FREQUENCY, "2.66").with_unit(Unit::GigaHertz),
    );
    b.prop(
        host,
        Property::fixed(wellknown::CORES, opts.cpu_cores.to_string()),
    );
    b.prop(host, Property::fixed(wellknown::SOFTWARE_PLATFORM, "x86"));
    b.prop(host, Property::fixed(wellknown::COMPILER, "gcc"));
    b.prop(host, Property::fixed(wellknown::RUNTIME_SYSTEM, "StarPU"));
    b.memory(
        host,
        MemoryRegion::new("ram").with_descriptor(
            Descriptor::new()
                .with(Property::fixed(wellknown::SIZE, "24").with_unit(Unit::GibiByte))
                .with(Property::fixed(wellknown::BANDWIDTH, "32").with_unit(Unit::GigaBytePerSec))
                .with(Property::fixed(wellknown::MEMORY_KIND, "ram")),
        ),
    );

    // One worker per CPU core StarPU can schedule on: attached GPUs each
    // consume one core as a driver thread (StarPU default behaviour).
    let driver_cores = if opts.dedicate_driver_cores {
        opts.gpus.len() as u32
    } else {
        0
    };
    let sched_cores = opts.cpu_cores.saturating_sub(driver_cores);
    for c in 0..sched_cores {
        let id = format!("cpu{c}");
        let w = b.worker(host, id.clone()).expect("master controls");
        b.prop(w, Property::fixed(wellknown::ARCHITECTURE, "x86"));
        b.prop(
            w,
            Property::fixed(
                wellknown::PEAK_GFLOPS_DP,
                XEON_X5550_CORE_GFLOPS_DP.to_string(),
            )
            .with_unit(Unit::GigaFlopPerSec),
        );
        b.prop(
            w,
            Property::fixed(wellknown::EFFICIENCY, GOTOBLAS_EFFICIENCY.to_string()),
        );
        b.prop(w, Property::fixed(wellknown::SOFTWARE_PLATFORM, "x86"));
        b.group(w, "cpus");
        // Shared-memory "interconnect": effectively free transfers.
        b.interconnect(
            Interconnect::new("shared-mem", "host", id).with_descriptor(
                Descriptor::new()
                    .with(
                        Property::fixed(wellknown::BANDWIDTH, "32").with_unit(Unit::GigaBytePerSec),
                    )
                    .with(Property::fixed(wellknown::LATENCY, "0.1").with_unit(Unit::MicroSecond)),
            ),
        );
    }

    for (i, gpu_name) in opts.gpus.iter().enumerate() {
        let spec: DeviceSpec =
            query_device(gpu_name).unwrap_or_else(|| panic!("unknown GPU {gpu_name:?}"));
        let id = format!("gpu{i}");
        let w = b.worker(host, id.clone()).expect("master controls");
        for p in spec.wellknown_properties() {
            b.prop(w, p);
        }
        for p in spec.ocl_properties() {
            b.prop(w, p);
        }
        b.memory(w, spec.memory_region());
        b.group(w, "gpus");
        b.interconnect(
            Interconnect::new("PCIe", "host", id)
                .with_scheme("rDMA")
                .with_descriptor(
                    Descriptor::new()
                        .with(
                            Property::fixed(
                                wellknown::BANDWIDTH,
                                PCIE2_X16_EFFECTIVE_GBS.to_string(),
                            )
                            .with_unit(Unit::GigaBytePerSec),
                        )
                        .with(
                            Property::fixed(wellknown::LATENCY, "15").with_unit(Unit::MicroSecond),
                        ),
                ),
        );
    }

    if opts.nvlink_gpus {
        for i in 0..opts.gpus.len() {
            for j in (i + 1)..opts.gpus.len() {
                b.interconnect(
                    Interconnect::new("NVLink", format!("gpu{i}"), format!("gpu{j}"))
                        .with_scheme("p2p")
                        .with_descriptor(
                            Descriptor::new()
                                .with(
                                    Property::fixed(
                                        wellknown::BANDWIDTH,
                                        NVLINK_EFFECTIVE_GBS.to_string(),
                                    )
                                    .with_unit(Unit::GigaBytePerSec),
                                )
                                .with(
                                    Property::fixed(
                                        wellknown::LATENCY,
                                        NVLINK_LATENCY_US.to_string(),
                                    )
                                    .with_unit(Unit::MicroSecond),
                                ),
                        ),
                );
            }
        }
    }

    b.build().expect("synthetic testbed is structurally valid")
}

/// IBM Cell B.E.: one PPE Master controlling 8 SPE Workers over the EIB.
pub fn cell_be() -> Platform {
    let mut b = Platform::builder("cell-be");
    let ppe = b.master("ppe");
    b.prop(ppe, Property::fixed(wellknown::ARCHITECTURE, "ppe"));
    b.prop(
        ppe,
        Property::fixed(wellknown::DEVICE_NAME, "Cell B.E. PPE"),
    );
    b.prop(ppe, Property::fixed(wellknown::VENDOR, "IBM"));
    b.prop(
        ppe,
        Property::fixed(wellknown::FREQUENCY, "3.2").with_unit(Unit::GigaHertz),
    );
    b.prop(
        ppe,
        Property::fixed(wellknown::PEAK_GFLOPS_DP, "6.4").with_unit(Unit::GigaFlopPerSec),
    );
    b.prop(ppe, Property::fixed(wellknown::EFFICIENCY, "0.8"));
    b.prop(
        ppe,
        Property::fixed(wellknown::SOFTWARE_PLATFORM, "CellSDK"),
    );
    b.prop(ppe, Property::fixed(wellknown::COMPILER, "xlc"));
    b.memory(
        ppe,
        MemoryRegion::new("xdr").with_descriptor(
            Descriptor::new()
                .with(Property::fixed(wellknown::SIZE, "256").with_unit(Unit::MebiByte))
                .with(
                    Property::fixed(wellknown::BANDWIDTH, "25.6").with_unit(Unit::GigaBytePerSec),
                ),
        ),
    );
    for i in 0..8 {
        let id = format!("spe{i}");
        let w = b.worker(ppe, id.clone()).expect("master controls");
        b.prop(w, Property::fixed(wellknown::ARCHITECTURE, "spe"));
        b.prop(
            w,
            Property::fixed(wellknown::PEAK_GFLOPS_DP, "1.8").with_unit(Unit::GigaFlopPerSec),
        );
        b.prop(w, Property::fixed(wellknown::EFFICIENCY, "0.85"));
        b.prop(w, Property::fixed(wellknown::SOFTWARE_PLATFORM, "CellSDK"));
        b.prop(w, Property::fixed(wellknown::COMPILER, "gcc-spu"));
        b.group(w, "spes");
        // 256 kB local store — the defining Cell constraint.
        b.memory(
            w,
            MemoryRegion::new("ls").with_descriptor(
                Descriptor::new()
                    .with(Property::fixed(wellknown::SIZE, "256").with_unit(Unit::KibiByte))
                    .with(Property::fixed(wellknown::MEMORY_KIND, "local-store")),
            ),
        );
        b.interconnect(
            Interconnect::new("EIB", "ppe", id)
                .with_scheme("dma")
                .with_descriptor(
                    Descriptor::new()
                        .with(
                            Property::fixed(wellknown::BANDWIDTH, "25.6")
                                .with_unit(Unit::GigaBytePerSec),
                        )
                        .with(
                            Property::fixed(wellknown::LATENCY, "0.5").with_unit(Unit::MicroSecond),
                        ),
                ),
        );
    }
    b.build().expect("cell descriptor is structurally valid")
}

/// A GPGPU cluster: front-end Master, `nodes` Hybrid compute nodes, each
/// with `gpus_per_node` GPU Workers (GTX 480s) — the Figure 2 hierarchical
/// shape, concretely instantiated.
pub fn gpgpu_cluster(nodes: u32, gpus_per_node: u32) -> Platform {
    let mut b = Platform::builder(format!("gpgpu-cluster-{nodes}x{gpus_per_node}"));
    let fe = b.master("frontend");
    b.prop(fe, Property::fixed(wellknown::ARCHITECTURE, "x86"));
    b.prop(fe, Property::fixed(wellknown::SOFTWARE_PLATFORM, "x86"));
    let gpu_spec = query_device("GeForce GTX 480").expect("db entry");
    for n in 0..nodes {
        let nid = format!("node{n}");
        let h = b.hybrid(fe, nid.clone()).expect("master controls");
        b.prop(h, Property::fixed(wellknown::ARCHITECTURE, "x86"));
        b.prop(
            h,
            Property::fixed(wellknown::PEAK_GFLOPS_DP, "85.1").with_unit(Unit::GigaFlopPerSec),
        );
        b.prop(h, Property::fixed(wellknown::EFFICIENCY, "0.9"));
        b.prop(h, Property::fixed(wellknown::SOFTWARE_PLATFORM, "x86"));
        b.group(h, "nodes");
        b.interconnect(
            Interconnect::new("Infiniband", "frontend", nid.clone()).with_descriptor(
                Descriptor::new()
                    .with(
                        Property::fixed(wellknown::BANDWIDTH, "3.2")
                            .with_unit(Unit::GigaBytePerSec),
                    )
                    .with(Property::fixed(wellknown::LATENCY, "2").with_unit(Unit::MicroSecond)),
            ),
        );
        for g in 0..gpus_per_node {
            let gid = format!("node{n}gpu{g}");
            let w = b.worker(h, gid.clone()).expect("hybrid controls");
            for p in gpu_spec.wellknown_properties() {
                b.prop(w, p);
            }
            b.memory(w, gpu_spec.memory_region());
            b.group(w, "gpus");
            b.interconnect(
                Interconnect::new("PCIe", nid.clone(), gid).with_descriptor(
                    Descriptor::new()
                        .with(
                            Property::fixed(
                                wellknown::BANDWIDTH,
                                PCIE2_X16_EFFECTIVE_GBS.to_string(),
                            )
                            .with_unit(Unit::GigaBytePerSec),
                        )
                        .with(
                            Property::fixed(wellknown::LATENCY, "15").with_unit(Unit::MicroSecond),
                        ),
                ),
            );
        }
    }
    b.build().expect("cluster descriptor is structurally valid")
}

/// A large homogeneous NUMA host: `sockets` Masters, each controlling a
/// pool of `cores_per_socket` workers via `quantity` — exercises the
/// multi-master pattern and quantity expansion at scale.
pub fn numa_host(sockets: u32, cores_per_socket: u32) -> Platform {
    let mut b = Platform::builder(format!("numa-{sockets}x{cores_per_socket}"));
    let mut socket_ids = Vec::new();
    for s in 0..sockets {
        let sid = format!("socket{s}");
        let m = b.master(sid.clone());
        b.prop(m, Property::fixed(wellknown::ARCHITECTURE, "x86"));
        let pool = b
            .worker(m, format!("socket{s}core"))
            .expect("master controls");
        b.quantity(pool, cores_per_socket);
        b.prop(pool, Property::fixed(wellknown::ARCHITECTURE, "x86"));
        b.prop(
            pool,
            Property::fixed(
                wellknown::PEAK_GFLOPS_DP,
                XEON_X5550_CORE_GFLOPS_DP.to_string(),
            )
            .with_unit(Unit::GigaFlopPerSec),
        );
        b.memory(
            m,
            MemoryRegion::new(format!("numa{s}")).with_descriptor(
                Descriptor::new()
                    .with(Property::fixed(wellknown::SIZE, "12").with_unit(Unit::GibiByte)),
            ),
        );
        socket_ids.push(sid);
    }
    // QPI mesh between sockets.
    for i in 0..socket_ids.len() {
        for j in (i + 1)..socket_ids.len() {
            b.interconnect(
                Interconnect::new("QPI", socket_ids[i].clone(), socket_ids[j].clone())
                    .with_descriptor(
                        Descriptor::new()
                            .with(
                                Property::fixed(wellknown::BANDWIDTH, "12.8")
                                    .with_unit(Unit::GigaBytePerSec),
                            )
                            .with(
                                Property::fixed(wellknown::LATENCY, "0.3")
                                    .with_unit(Unit::MicroSecond),
                            ),
                    ),
            );
        }
    }
    b.build().expect("numa descriptor is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_query::capability::matches_pattern;

    #[test]
    fn cpu_testbed_shape() {
        let p = xeon_x5550_host();
        assert_eq!(p.masters().count(), 1);
        assert_eq!(p.workers().count(), 8);
        assert_eq!(p.group_members("cpus").len(), 8);
        assert!(p.group_members("gpus").is_empty());
        p.validate().unwrap();
    }

    #[test]
    fn gpu_testbed_shape() {
        let p = xeon_2gpu_testbed();
        // 2 GPUs consume 2 driver cores → 6 CPU workers + 2 GPU workers.
        assert_eq!(p.workers().count(), 8);
        assert_eq!(p.group_members("cpus").len(), 6);
        assert_eq!(p.group_members("gpus").len(), 2);
        let (_, g0) = p.pu_by_id("gpu0").unwrap();
        assert_eq!(
            g0.descriptor.value(wellknown::DEVICE_NAME),
            Some("GeForce GTX 480")
        );
        let (_, g1) = p.pu_by_id("gpu1").unwrap();
        assert_eq!(
            g1.descriptor.value(wellknown::DEVICE_NAME),
            Some("GeForce GTX 285")
        );
        p.validate().unwrap();
    }

    #[test]
    fn testbed_interconnects_annotated() {
        let p = xeon_2gpu_testbed();
        let pcie: Vec<_> = p
            .interconnects()
            .iter()
            .filter(|ic| ic.ic_type == "PCIe")
            .collect();
        assert_eq!(pcie.len(), 2);
        for ic in pcie {
            assert_eq!(ic.bandwidth_bps(), Some(6e9));
            assert_eq!(ic.scheme, "rDMA");
        }
    }

    #[test]
    fn no_driver_core_dedication_option() {
        let p = build_testbed(
            "t",
            &TestbedOptions {
                cpu_cores: 8,
                gpus: vec!["GeForce GTX 480"],
                dedicate_driver_cores: false,
                nvlink_gpus: false,
            },
        );
        assert_eq!(p.group_members("cpus").len(), 8);
        assert_eq!(p.group_members("gpus").len(), 1);
    }

    #[test]
    fn cell_be_shape() {
        let p = cell_be();
        assert_eq!(p.masters().count(), 1);
        assert_eq!(p.workers().count(), 8);
        let (_, spe) = p.pu_by_id("spe3").unwrap();
        assert_eq!(spe.architecture(), Some("spe"));
        // Local store constraint present.
        assert_eq!(spe.memory_regions[0].size_bytes(), Some(256.0 * 1024.0));
        assert_eq!(
            p.interconnects()
                .iter()
                .filter(|i| i.ic_type == "EIB")
                .count(),
            8
        );
        assert!(matches_pattern(
            &p,
            pdl_core::patterns::PatternKind::MasterWorkerPool
        ));
        p.validate().unwrap();
    }

    #[test]
    fn cluster_is_hierarchical() {
        let p = gpgpu_cluster(3, 2);
        assert_eq!(p.hybrids().count(), 3);
        assert_eq!(p.workers().count(), 6);
        assert!(matches_pattern(
            &p,
            pdl_core::patterns::PatternKind::Hierarchical
        ));
        assert_eq!(p.height(), 2);
        p.validate().unwrap();
    }

    #[test]
    fn numa_host_multimaster() {
        let p = numa_host(4, 6);
        assert_eq!(p.masters().count(), 4);
        assert_eq!(p.total_units(), 4 + 4 * 6);
        assert!(matches_pattern(
            &p,
            pdl_core::patterns::PatternKind::MultiMaster
        ));
        // QPI mesh: C(4,2) = 6 links.
        assert_eq!(p.interconnects().len(), 6);
        let e = p.expand_quantities();
        assert_eq!(e.workers().count(), 24);
        e.validate().unwrap();
    }

    #[test]
    fn nvlink_testbed_declares_peer_interconnect() {
        let p = xeon_2gpu_nvlink_testbed();
        let nv: Vec<_> = p
            .interconnects()
            .iter()
            .filter(|ic| ic.ic_type == "NVLink")
            .collect();
        assert_eq!(nv.len(), 1);
        assert_eq!(nv[0].bandwidth_bps(), Some(25e9));
        assert_eq!(nv[0].scheme, "p2p");
        // PCIe host links unchanged.
        assert_eq!(
            p.interconnects()
                .iter()
                .filter(|ic| ic.ic_type == "PCIe")
                .count(),
            2
        );
        p.validate().unwrap();
    }

    #[test]
    fn testbeds_round_trip_through_xml() {
        for p in [
            xeon_x5550_host(),
            xeon_2gpu_testbed(),
            xeon_2gpu_nvlink_testbed(),
            cell_be(),
        ] {
            let xml = pdl_xml::to_xml(&p);
            let back = pdl_xml::from_xml(&xml).unwrap();
            assert_eq!(p, back);
        }
    }
}
