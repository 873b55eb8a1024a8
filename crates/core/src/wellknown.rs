//! Well-known property names.
//!
//! Paper §II: the PDL *"provides a name-space for reference to architectural
//! properties and platform information"*. This module pins down the base
//! vocabulary used by the rest of the toolchain (discovery, simulator,
//! runtime, compiler). Subschemas (e.g. `ocl:`) add their own names on top.

use crate::units::Unit;

/// PU instruction-set / device architecture: `x86`, `gpu`, `spe`, `ppe`,
/// `fpga`, … (Listing 1 uses `ARCHITECTURE`.)
pub const ARCHITECTURE: &str = "ARCHITECTURE";

/// Human-readable device/PU name (`GeForce GTX 480`, `Xeon X5550`).
pub const DEVICE_NAME: &str = "DEVICE_NAME";

/// Vendor string (`Intel`, `Nvidia`, `IBM`).
pub const VENDOR: &str = "VENDOR";

/// Number of hardware cores / compute units within the PU.
pub const CORES: &str = "CORES";

/// Clock frequency (unit-annotated, canonical Hz).
pub const FREQUENCY: &str = "FREQUENCY";

/// Peak double-precision compute rate (unit-annotated, canonical FLOP/s).
pub const PEAK_GFLOPS_DP: &str = "PEAK_GFLOPS_DP";

/// Sustained fraction of peak achievable by tuned kernels (0.0–1.0).
/// Used by the simulator to derate peak numbers.
pub const EFFICIENCY: &str = "EFFICIENCY";

/// Memory/interconnect capacity (unit-annotated, canonical bytes).
pub const SIZE: &str = "SIZE";

/// Bandwidth (unit-annotated, canonical bytes/second).
pub const BANDWIDTH: &str = "BANDWIDTH";

/// Latency (unit-annotated, canonical seconds).
pub const LATENCY: &str = "LATENCY";

/// Thermal design power (unit-annotated, canonical watts).
pub const TDP: &str = "TDP";

/// Idle power draw (unit-annotated, canonical watts).
pub const IDLE_POWER: &str = "IDLE_POWER";

/// Software platform/toolchain available on the PU: `OpenCL`, `Cuda`,
/// `CellSDK`, `x86`… Matches the `targetplatformlist` vocabulary of the
/// Cascabel task annotations (§IV-A).
pub const SOFTWARE_PLATFORM: &str = "SOFTWARE_PLATFORM";

/// Compiler executable responsible for code targeting this PU
/// (`gcc`, `nvcc`, `gcc-spu`, `xlc`) — feeds the compilation-plan
/// derivation of §IV-C step 4.
pub const COMPILER: &str = "COMPILER";

/// Linker flags / libraries required for this PU's code.
pub const LINK_LIBS: &str = "LINK_LIBS";

/// Runtime system available on the platform (e.g. `StarPU`).
pub const RUNTIME_SYSTEM: &str = "RUNTIME_SYSTEM";

/// Memory-region kind: `ram`, `vram`, `local-store`, `cache`, `scratchpad`.
pub const MEMORY_KIND: &str = "MEMORY_KIND";

/// The well-known properties that measure a dimension, each with the base
/// unit a value without a `unit=` annotation is read in: `PEAK_GFLOPS_DP`
/// 85.3 with no unit is 85.3 FLOP/s, not 85.3 GFLOP/s.
pub const DIMENSIONED: [(&str, Unit); 7] = [
    (PEAK_GFLOPS_DP, Unit::FlopPerSec),
    (FREQUENCY, Unit::Hertz),
    (SIZE, Unit::Byte),
    (BANDWIDTH, Unit::BytePerSec),
    (LATENCY, Unit::Second),
    (TDP, Unit::Watt),
    (IDLE_POWER, Unit::Watt),
];
