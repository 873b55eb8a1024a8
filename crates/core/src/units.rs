//! Units of measure for property values.
//!
//! Listing 2 of the paper attaches units to property values
//! (`<ocl:value unit="kB">1572864</ocl:value>`). Concrete descriptors need a
//! common vocabulary so tools can compare values produced by different
//! discovery mechanisms; this module defines that vocabulary together with
//! conversion to canonical base units.
//!
//! Canonical base units:
//! * capacities → bytes
//! * frequencies → hertz
//! * compute rates → FLOP/s
//! * bandwidths → bytes/second
//! * durations → seconds
//! * power → watts

use std::fmt;
use std::str::FromStr;

/// A unit annotation on a property value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    // Capacity (decimal prefixes, as used by the paper's OpenCL dump).
    /// Bytes.
    Byte,
    /// Kilobytes (10^3 B).
    KiloByte,
    /// Megabytes (10^6 B).
    MegaByte,
    /// Gigabytes (10^9 B).
    GigaByte,
    /// Terabytes (10^12 B).
    TeraByte,
    // Capacity (binary prefixes, as reported by e.g. /proc).
    /// Kibibytes (2^10 B).
    KibiByte,
    /// Mebibytes (2^20 B).
    MebiByte,
    /// Gibibytes (2^30 B).
    GibiByte,
    // Frequency.
    /// Hertz.
    Hertz,
    /// Megahertz (10^6 Hz).
    MegaHertz,
    /// Gigahertz (10^9 Hz).
    GigaHertz,
    // Compute rate (double/single precision is a property-name concern).
    /// Floating-point operations per second.
    FlopPerSec,
    /// GFLOP/s (10^9 FLOP/s).
    GigaFlopPerSec,
    /// TFLOP/s (10^12 FLOP/s).
    TeraFlopPerSec,
    // Bandwidth.
    /// Bytes per second.
    BytePerSec,
    /// MB/s (10^6 B/s).
    MegaBytePerSec,
    /// GB/s (10^9 B/s).
    GigaBytePerSec,
    // Duration.
    /// Nanoseconds.
    NanoSecond,
    /// Microseconds.
    MicroSecond,
    /// Milliseconds.
    MilliSecond,
    /// Seconds.
    Second,
    // Power.
    /// Watts.
    Watt,
    /// Kilowatts (10^3 W).
    KiloWatt,
}

impl Unit {
    /// The multiplier that converts a value in this unit to the canonical
    /// base unit of its dimension.
    pub(crate) fn to_base_factor(self) -> f64 {
        use Unit::*;
        match self {
            Byte => 1.0,
            KiloByte => 1e3,
            MegaByte => 1e6,
            GigaByte => 1e9,
            TeraByte => 1e12,
            KibiByte => 1024.0,
            MebiByte => 1024.0 * 1024.0,
            GibiByte => 1024.0 * 1024.0 * 1024.0,
            Hertz => 1.0,
            MegaHertz => 1e6,
            GigaHertz => 1e9,
            FlopPerSec => 1.0,
            GigaFlopPerSec => 1e9,
            TeraFlopPerSec => 1e12,
            BytePerSec => 1.0,
            MegaBytePerSec => 1e6,
            GigaBytePerSec => 1e9,
            NanoSecond => 1e-9,
            MicroSecond => 1e-6,
            MilliSecond => 1e-3,
            Second => 1.0,
            Watt => 1.0,
            KiloWatt => 1e3,
        }
    }

    /// Canonical spelling used when serializing to XML.
    pub fn as_str(self) -> &'static str {
        use Unit::*;
        match self {
            Byte => "B",
            KiloByte => "kB",
            MegaByte => "MB",
            GigaByte => "GB",
            TeraByte => "TB",
            KibiByte => "KiB",
            MebiByte => "MiB",
            GibiByte => "GiB",
            Hertz => "Hz",
            MegaHertz => "MHz",
            GigaHertz => "GHz",
            FlopPerSec => "FLOPS",
            GigaFlopPerSec => "GFLOPS",
            TeraFlopPerSec => "TFLOPS",
            BytePerSec => "B/s",
            MegaBytePerSec => "MB/s",
            GigaBytePerSec => "GB/s",
            NanoSecond => "ns",
            MicroSecond => "us",
            MilliSecond => "ms",
            Second => "s",
            Watt => "W",
            KiloWatt => "kW",
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when a unit string is not part of the vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownUnit(pub String);

impl fmt::Display for UnknownUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown unit {:?}", self.0)
    }
}

impl std::error::Error for UnknownUnit {}

impl FromStr for Unit {
    type Err = UnknownUnit;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        use Unit::*;
        // Case-insensitive on the alphabetic part; the paper's listings use
        // "kB", OpenCL dumps often use "KB".
        Ok(match s {
            "B" | "b" | "byte" | "bytes" => Byte,
            "kB" | "KB" | "kb" => KiloByte,
            "MB" | "mb" => MegaByte,
            "GB" | "gb" => GigaByte,
            "TB" | "tb" => TeraByte,
            "KiB" | "kib" => KibiByte,
            "MiB" | "mib" => MebiByte,
            "GiB" | "gib" => GibiByte,
            "Hz" | "hz" => Hertz,
            "MHz" | "mhz" => MegaHertz,
            "GHz" | "ghz" => GigaHertz,
            "FLOPS" | "flops" | "FLOP/s" => FlopPerSec,
            "GFLOPS" | "gflops" | "GFLOP/s" => GigaFlopPerSec,
            "TFLOPS" | "tflops" | "TFLOP/s" => TeraFlopPerSec,
            "B/s" | "b/s" => BytePerSec,
            "MB/s" | "mb/s" => MegaBytePerSec,
            "GB/s" | "gb/s" => GigaBytePerSec,
            "ns" => NanoSecond,
            "us" | "µs" => MicroSecond,
            "ms" => MilliSecond,
            "s" | "sec" => Second,
            "W" | "w" => Watt,
            "kW" | "kw" => KiloWatt,
            other => return Err(UnknownUnit(other.to_string())),
        })
    }
}

/// Converts `value` expressed in `unit` to the canonical base unit of the
/// unit's dimension (e.g. `kB` → bytes).
pub(crate) fn to_base(value: f64, unit: Unit) -> f64 {
    value * unit.to_base_factor()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_spelling() {
        // Listing 2 uses unit="kB".
        assert_eq!("kB".parse::<Unit>().unwrap(), Unit::KiloByte);
    }

    #[test]
    fn parse_round_trips_canonical_spelling() {
        let all = [
            Unit::Byte,
            Unit::KiloByte,
            Unit::MegaByte,
            Unit::GigaByte,
            Unit::TeraByte,
            Unit::KibiByte,
            Unit::MebiByte,
            Unit::GibiByte,
            Unit::Hertz,
            Unit::MegaHertz,
            Unit::GigaHertz,
            Unit::FlopPerSec,
            Unit::GigaFlopPerSec,
            Unit::TeraFlopPerSec,
            Unit::BytePerSec,
            Unit::MegaBytePerSec,
            Unit::GigaBytePerSec,
            Unit::NanoSecond,
            Unit::MicroSecond,
            Unit::MilliSecond,
            Unit::Second,
            Unit::Watt,
            Unit::KiloWatt,
        ];
        for u in all {
            assert_eq!(u.as_str().parse::<Unit>().unwrap(), u, "unit {u}");
        }
    }

    #[test]
    fn unknown_unit_is_error() {
        let err = "parsecs".parse::<Unit>().unwrap_err();
        assert_eq!(err.0, "parsecs");
        assert!(err.to_string().contains("parsecs"));
    }

    #[test]
    fn capacity_conversion() {
        // The GTX480 global memory from Listing 2: 1572864 kB.
        let bytes = to_base(1_572_864.0, Unit::KiloByte);
        assert_eq!(bytes, 1_572_864_000.0);
    }

    #[test]
    fn binary_prefixes() {
        assert_eq!(to_base(1.0, Unit::GibiByte), 1024.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn duration_to_seconds() {
        assert!((to_base(250.0, Unit::NanoSecond) - 2.5e-7).abs() < 1e-20);
        assert_eq!(to_base(3.0, Unit::MilliSecond), 0.003);
    }
}
