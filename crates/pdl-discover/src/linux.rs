//! hwloc-analogue host discovery from Linux `/proc`.
//!
//! Paper §V: "APIs like hwloc used for exploration of hardware parameters
//! can facilitate the automatic generation of PDL descriptors." This module
//! is that facility for the host we run on: it parses `/proc/cpuinfo` and
//! `/proc/meminfo` into a concrete PDL descriptor. Parsers take the file
//! contents as input (testable, hermetic); [`discover_host`] wires them to
//! the live files.

use pdl_core::prelude::*;
use std::fs;

/// Information extracted from `/proc/cpuinfo`.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct CpuInfo {
    /// Model name of the first processor entry.
    pub model_name: String,
    /// Vendor string of the first processor entry.
    pub vendor: String,
    /// Number of logical processors (count of `processor` entries).
    pub logical_cpus: u32,
    /// Clock in MHz (first `cpu MHz` entry), if reported.
    pub mhz: Option<f64>,
}

/// Parses `/proc/cpuinfo` content.
pub(crate) fn parse_cpuinfo(content: &str) -> CpuInfo {
    let mut info = CpuInfo::default();
    for line in content.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "processor" => info.logical_cpus += 1,
            "model name" if info.model_name.is_empty() => info.model_name = value.to_string(),
            "vendor_id" if info.vendor.is_empty() => info.vendor = value.to_string(),
            "cpu MHz" if info.mhz.is_none() => info.mhz = value.parse().ok(),
            _ => {}
        }
    }
    info
}

/// Parses `MemTotal` out of `/proc/meminfo`, returning bytes.
pub(crate) fn parse_meminfo_total_bytes(content: &str) -> Option<f64> {
    for line in content.lines() {
        if let Some(rest) = line.strip_prefix("MemTotal:") {
            let mut parts = rest.split_whitespace();
            let value: f64 = parts.next()?.parse().ok()?;
            let unit = parts.next().unwrap_or("kB");
            let factor = match unit {
                // /proc "kB" is actually KiB.
                "kB" | "KB" => 1024.0,
                "MB" => 1024.0 * 1024.0,
                _ => 1.0,
            };
            return Some(value * factor);
        }
    }
    None
}

/// Builds a PDL descriptor for a host from parsed information: one Master
/// PU per host with one Worker per logical CPU, a `ram` memory region and
/// shared-memory interconnects.
pub(crate) fn platform_from_cpuinfo(
    name: &str,
    cpu: &CpuInfo,
    mem_total_bytes: Option<f64>,
) -> Platform {
    let mut b = Platform::builder(name);
    let host = b.master("host");
    b.prop(host, Property::fixed(wellknown::ARCHITECTURE, "x86"));
    if !cpu.model_name.is_empty() {
        b.prop(
            host,
            Property::fixed(wellknown::DEVICE_NAME, cpu.model_name.clone()),
        );
    }
    if !cpu.vendor.is_empty() {
        b.prop(host, Property::fixed(wellknown::VENDOR, cpu.vendor.clone()));
    }
    b.prop(
        host,
        Property::fixed(wellknown::CORES, cpu.logical_cpus.max(1).to_string()),
    );
    if let Some(mhz) = cpu.mhz {
        b.prop(
            host,
            Property::fixed(wellknown::FREQUENCY, format!("{mhz:.0}")).with_unit(Unit::MegaHertz),
        );
    }
    b.prop(host, Property::fixed(wellknown::SOFTWARE_PLATFORM, "x86"));
    if let Some(bytes) = mem_total_bytes {
        b.memory(
            host,
            MemoryRegion::new("ram").with_descriptor(
                Descriptor::new()
                    .with(
                        Property::fixed(wellknown::SIZE, format!("{bytes:.0}"))
                            .with_unit(Unit::Byte),
                    )
                    .with(Property::fixed(wellknown::MEMORY_KIND, "ram")),
            ),
        );
    }
    for c in 0..cpu.logical_cpus.max(1) {
        let id = format!("cpu{c}");
        let w = b.worker(host, id.clone()).expect("master controls");
        b.prop(w, Property::fixed(wellknown::ARCHITECTURE, "x86"));
        if let Some(mhz) = cpu.mhz {
            // Rough per-core DP peak: 4 FLOP/cycle.
            let gflops = 4.0 * mhz / 1000.0;
            b.prop(
                w,
                Property::fixed(wellknown::PEAK_GFLOPS_DP, format!("{gflops:.2}"))
                    .with_unit(Unit::GigaFlopPerSec),
            );
        }
        b.group(w, "cpus");
        b.interconnect(Interconnect::new("shared-mem", "host", id));
    }
    b.build().expect("host descriptor is structurally valid")
}

/// Discovers the machine this process runs on by reading `/proc`.
/// Returns `None` when `/proc/cpuinfo` is unreadable (non-Linux host).
pub fn discover_host() -> Option<Platform> {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").ok()?;
    let cpu = parse_cpuinfo(&cpuinfo);
    let mem = fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| parse_meminfo_total_bytes(&m));
    Some(platform_from_cpuinfo("discovered-host", &cpu, mem))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_CPUINFO: &str = "\
processor\t: 0
vendor_id\t: GenuineIntel
model name\t: Intel(R) Xeon(R) CPU           X5550  @ 2.67GHz
cpu MHz\t\t: 2660.000

processor\t: 1
vendor_id\t: GenuineIntel
model name\t: Intel(R) Xeon(R) CPU           X5550  @ 2.67GHz
cpu MHz\t\t: 2660.000
";

    #[test]
    fn cpuinfo_parsing() {
        let info = parse_cpuinfo(SAMPLE_CPUINFO);
        assert_eq!(info.logical_cpus, 2);
        assert!(info.model_name.contains("X5550"));
        assert_eq!(info.vendor, "GenuineIntel");
        assert_eq!(info.mhz, Some(2660.0));
    }

    #[test]
    fn cpuinfo_empty_and_garbage() {
        let info = parse_cpuinfo("");
        assert_eq!(info.logical_cpus, 0);
        let info = parse_cpuinfo("no colons here\njust noise\n");
        assert_eq!(info.logical_cpus, 0);
        assert!(info.model_name.is_empty());
    }

    #[test]
    fn meminfo_parsing() {
        assert_eq!(
            parse_meminfo_total_bytes("MemTotal:       16384 kB\nMemFree: 1 kB\n"),
            Some(16384.0 * 1024.0)
        );
        assert_eq!(parse_meminfo_total_bytes("MemFree: 1 kB\n"), None);
        assert_eq!(parse_meminfo_total_bytes(""), None);
    }

    #[test]
    fn platform_generation() {
        let info = parse_cpuinfo(SAMPLE_CPUINFO);
        let p = platform_from_cpuinfo("test-host", &info, Some(16.0 * 1024.0 * 1024.0 * 1024.0));
        assert_eq!(p.masters().count(), 1);
        assert_eq!(p.workers().count(), 2);
        let (_, host) = p.pu_by_id("host").unwrap();
        assert_eq!(host.cores(), Some(2));
        assert_eq!(host.memory_regions.len(), 1);
        let (_, w) = p.pu_by_id("cpu0").unwrap();
        // 4 FLOP/cycle × 2.66 GHz ≈ 10.64 GF/s
        let gf = w.peak_flops_dp().unwrap();
        assert!((gf - 10.64e9).abs() < 0.1e9, "{gf}");
        p.validate().unwrap();
    }

    #[test]
    fn zero_cpu_fallback() {
        let p = platform_from_cpuinfo("empty", &CpuInfo::default(), None);
        assert_eq!(p.workers().count(), 1); // at least one worker
    }

    #[test]
    fn live_discovery_on_linux() {
        // We run on Linux in CI; this exercises the real /proc path.
        if std::path::Path::new("/proc/cpuinfo").exists() {
            let p = discover_host().expect("living on Linux");
            assert!(p.workers().count() >= 1);
            p.validate().unwrap();
            // Round-trips through XML like any other descriptor.
            let xml = pdl_xml::to_xml(&p);
            assert_eq!(pdl_xml::from_xml(&xml).unwrap(), p);
        }
    }
}
