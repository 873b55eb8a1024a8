//! Simulated `OpenCL` platform query.
//!
//! Listing 2 of the paper shows concrete GPU properties "generated from
//! `OpenCL` run-time libraries". Without GPUs we substitute a device database
//! covering the paper's hardware (GTX 480, GTX 285) and a few contemporaries,
//! producing the same `ocl:`-typed property lists an `OpenCL` query would.
//! The database also carries the performance figures (peak DP rate, memory
//! bandwidth, sustained efficiency) that the simulator reads from the PDL.

use pdl_core::prelude::*;

/// Static description of one OpenCL-visible device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, as `CL_DEVICE_NAME` would report.
    pub device_name: &'static str,
    /// Vendor string.
    pub vendor: &'static str,
    /// Number of compute units (SMs).
    pub max_compute_units: u32,
    /// `CL_DEVICE_MAX_WORK_ITEM_DIMENSIONS`.
    pub max_work_item_dimensions: u32,
    /// Global memory in kB (decimal, as in Listing 2).
    pub global_mem_kb: u64,
    /// Local memory per work-group in kB.
    pub local_mem_kb: u64,
    /// Core clock in MHz.
    pub clock_mhz: u32,
    /// Peak double-precision GFLOP/s.
    pub peak_gflops_dp: f64,
    /// Sustained fraction of peak for tuned BLAS3 kernels.
    pub dgemm_efficiency: f64,
    /// Device memory bandwidth, GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Board TDP in watts.
    pub tdp_w: f64,
}

/// The simulated device database.
///
/// Figures are the published specs for each board; `dgemm_efficiency`
/// reflects vendor-BLAS DGEMM results reported in the literature of the
/// paper's era (`CuBLAS` 3.x).
pub fn device_database() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec {
            device_name: "GeForce GTX 480",
            vendor: "NVIDIA Corporation",
            max_compute_units: 15,
            max_work_item_dimensions: 3,
            global_mem_kb: 1_572_864,
            local_mem_kb: 48,
            clock_mhz: 1401,
            peak_gflops_dp: 168.0,
            dgemm_efficiency: 0.60,
            mem_bandwidth_gbs: 177.4,
            tdp_w: 250.0,
        },
        DeviceSpec {
            device_name: "GeForce GTX 285",
            vendor: "NVIDIA Corporation",
            max_compute_units: 30,
            max_work_item_dimensions: 3,
            global_mem_kb: 1_048_576,
            local_mem_kb: 16,
            clock_mhz: 1476,
            peak_gflops_dp: 88.5,
            dgemm_efficiency: 0.85,
            mem_bandwidth_gbs: 159.0,
            tdp_w: 204.0,
        },
        DeviceSpec {
            device_name: "Tesla C2050",
            vendor: "NVIDIA Corporation",
            max_compute_units: 14,
            max_work_item_dimensions: 3,
            global_mem_kb: 3_145_728,
            local_mem_kb: 48,
            clock_mhz: 1150,
            peak_gflops_dp: 515.0,
            dgemm_efficiency: 0.58,
            mem_bandwidth_gbs: 144.0,
            tdp_w: 238.0,
        },
        DeviceSpec {
            device_name: "Radeon HD 5870",
            vendor: "Advanced Micro Devices, Inc.",
            max_compute_units: 20,
            max_work_item_dimensions: 3,
            global_mem_kb: 1_048_576,
            local_mem_kb: 32,
            clock_mhz: 850,
            peak_gflops_dp: 544.0,
            dgemm_efficiency: 0.45,
            mem_bandwidth_gbs: 153.6,
            tdp_w: 188.0,
        },
    ]
}

/// Looks up a device by (case-insensitive) name.
pub fn query_device(name: &str) -> Option<DeviceSpec> {
    device_database()
        .into_iter()
        .find(|d| d.device_name.eq_ignore_ascii_case(name))
}

/// The `ocl:` subschema reference used for all generated properties.
fn ocl_type() -> SubschemaRef {
    SubschemaRef::new("ocl", "oclDevicePropertyType")
}

impl DeviceSpec {
    /// Generates the Listing-2 style `ocl:` property list for this device.
    ///
    /// Properties are *unfixed* (`fixed="false"`), exactly as in the paper:
    /// they were instantiated by a runtime query mechanism, not authored as
    /// immutable platform facts.
    pub fn ocl_properties(&self) -> Vec<Property> {
        vec![
            Property::typed(
                "DEVICE_NAME",
                PropertyValue::text(self.device_name),
                ocl_type(),
            ),
            Property::typed(
                "MAX_COMPUTE_UNITS",
                PropertyValue::text(self.max_compute_units.to_string()),
                ocl_type(),
            ),
            Property::typed(
                "MAX_WORK_ITEM_DIMENSIONS",
                PropertyValue::text(self.max_work_item_dimensions.to_string()),
                ocl_type(),
            ),
            Property::typed(
                "GLOBAL_MEM_SIZE",
                PropertyValue::with_unit(self.global_mem_kb, Unit::KiloByte),
                ocl_type(),
            ),
            Property::typed(
                "LOCAL_MEM_SIZE",
                PropertyValue::with_unit(self.local_mem_kb, Unit::KiloByte),
                ocl_type(),
            ),
        ]
    }

    /// Generates the well-known (base schema) performance properties the
    /// simulator and schedulers consume.
    pub(crate) fn wellknown_properties(&self) -> Vec<Property> {
        vec![
            Property::fixed(wellknown::ARCHITECTURE, "gpu"),
            Property::fixed(wellknown::DEVICE_NAME, self.device_name),
            Property::fixed(wellknown::VENDOR, self.vendor),
            Property::fixed(wellknown::CORES, self.max_compute_units.to_string()),
            Property::fixed(wellknown::FREQUENCY, self.clock_mhz.to_string())
                .with_unit(Unit::MegaHertz),
            Property::fixed(wellknown::PEAK_GFLOPS_DP, self.peak_gflops_dp.to_string())
                .with_unit(Unit::GigaFlopPerSec),
            Property::fixed(wellknown::EFFICIENCY, self.dgemm_efficiency.to_string()),
            Property::fixed(wellknown::TDP, self.tdp_w.to_string()).with_unit(Unit::Watt),
            Property::fixed(
                wellknown::SOFTWARE_PLATFORM,
                if self.vendor.starts_with("NVIDIA") {
                    "OpenCL, Cuda"
                } else {
                    "OpenCL"
                },
            ),
            Property::fixed(wellknown::COMPILER, "nvcc"),
        ]
    }

    /// The device-global memory region (`vram`), with size and bandwidth.
    pub(crate) fn memory_region(&self) -> MemoryRegion {
        MemoryRegion::new("vram").with_descriptor(
            Descriptor::new()
                .with(
                    Property::fixed(wellknown::SIZE, self.global_mem_kb.to_string())
                        .with_unit(Unit::KiloByte),
                )
                .with(
                    Property::fixed(wellknown::BANDWIDTH, self.mem_bandwidth_gbs.to_string())
                        .with_unit(Unit::GigaBytePerSec),
                )
                .with(Property::fixed(wellknown::MEMORY_KIND, "vram")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_contains_paper_gpus() {
        assert!(query_device("GeForce GTX 480").is_some());
        assert!(query_device("GeForce GTX 285").is_some());
        assert!(query_device("geforce gtx 480").is_some()); // case-insensitive
        assert!(query_device("GeForce RTX 4090").is_none()); // anachronism
    }

    #[test]
    fn gtx480_matches_listing2() {
        // Listing 2 of the paper, field by field.
        let d = query_device("GeForce GTX 480").unwrap();
        let props = d.ocl_properties();
        let get = |n: &str| props.iter().find(|p| p.name == n).unwrap();
        assert_eq!(get("DEVICE_NAME").value.text, "GeForce GTX 480");
        assert_eq!(get("MAX_COMPUTE_UNITS").value.as_i64(), Some(15));
        assert_eq!(get("MAX_WORK_ITEM_DIMENSIONS").value.as_i64(), Some(3));
        let gm = get("GLOBAL_MEM_SIZE");
        assert_eq!(gm.value.as_i64(), Some(1_572_864));
        assert_eq!(gm.value.unit, Some(Unit::KiloByte));
        let lm = get("LOCAL_MEM_SIZE");
        assert_eq!(lm.value.as_i64(), Some(48));
        assert_eq!(lm.value.unit, Some(Unit::KiloByte));
        // All unfixed, all ocl-typed — as generated by a runtime query.
        for p in &props {
            assert!(!p.fixed, "{}", p.name);
            assert_eq!(
                p.subschema.as_ref().unwrap().qualified(),
                "ocl:oclDevicePropertyType"
            );
        }
    }

    #[test]
    fn wellknown_properties_expose_performance_model() {
        let d = query_device("GeForce GTX 285").unwrap();
        let props = d.wellknown_properties();
        let desc = Descriptor::from_properties(props);
        assert_eq!(desc.value(wellknown::ARCHITECTURE), Some("gpu"));
        assert_eq!(desc.value_base(wellknown::PEAK_GFLOPS_DP), Some(88.5e9));
        assert_eq!(desc.value_f64(wellknown::EFFICIENCY), Some(0.85));
        assert!(desc
            .value(wellknown::SOFTWARE_PLATFORM)
            .unwrap()
            .contains("Cuda"));
    }

    #[test]
    fn memory_region_sizes() {
        let d = query_device("GeForce GTX 480").unwrap();
        let mr = d.memory_region();
        assert_eq!(mr.size_bytes(), Some(1_572_864_000.0));
        assert_eq!(mr.bandwidth_bps(), Some(177.4e9));
    }

    #[test]
    fn database_entries_have_sane_figures() {
        for d in device_database() {
            assert!(d.peak_gflops_dp > 0.0, "{}", d.device_name);
            assert!(
                (0.0..=1.0).contains(&d.dgemm_efficiency),
                "{}",
                d.device_name
            );
            assert!(d.mem_bandwidth_gbs > 0.0);
            assert!(d.global_mem_kb > 0);
            assert!(d.max_compute_units > 0);
        }
    }
}
