//! Codelets, implementation variants and tasks.
//!
//! Mirrors `StarPU`'s model, which the paper's generated code targets: a
//! **codelet** names an operation and bundles **implementation variants**
//! for different architectures ("A task can have multiple task
//! implementations for different heterogeneous platforms but offers same
//! functionality and function signature", §IV-A). A **task** is one
//! invocation of a codelet on concrete data handles.
//!
//! Codelets are owned values; a task is not. A
//! [`TaskGraph`](crate::graph::TaskGraph) stores its tasks as columns, and
//! [`Task`] is the borrowed, `Copy` view of one row that
//! [`TaskGraph::task`](crate::graph::TaskGraph::task) and
//! [`TaskGraph::tasks`](crate::graph::TaskGraph::tasks) hand out: its label,
//! accesses and group are slices of the graph's shared buffers.

use crate::data::{AccessMode, HandleId};
use std::fmt;

/// Identifier of a submitted task within a [`crate::graph::TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One architecture-specific implementation of a codelet.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Architecture the implementation targets (`x86`, `gpu`, `spe`), the
    /// PDL `ARCHITECTURE` vocabulary.
    pub arch: String,
    /// Software platform required (`x86`, `OpenCL`, `Cuda`, `CellSDK`),
    /// matching the annotation `targetplatformlist` and the PDL
    /// `SOFTWARE_PLATFORM` property. `None` = no requirement.
    pub software_platform: Option<String>,
    /// Throughput multiplier relative to the device's nominal effective
    /// rate (1.0 = the device's PDL-declared rate; a hand-tuned variant may
    /// exceed a generic one).
    pub speedup: f64,
}

impl Variant {
    /// A variant for the given architecture with nominal throughput.
    pub fn new(arch: impl Into<String>) -> Self {
        Variant {
            arch: arch.into(),
            software_platform: None,
            speedup: 1.0,
        }
    }

    /// Requires a software platform, builder style.
    pub fn requiring(mut self, software_platform: impl Into<String>) -> Self {
        self.software_platform = Some(software_platform.into());
        self
    }

    /// Sets the relative speedup, builder style.
    pub fn with_speedup(mut self, speedup: f64) -> Self {
        self.speedup = speedup;
        self
    }

    /// Whether this variant can run on a device with the given architecture
    /// and software platforms.
    pub(crate) fn runs_on(&self, arch: &str, software_platforms: &[&str]) -> bool {
        if self.arch != arch {
            return false;
        }
        match &self.software_platform {
            None => true,
            Some(req) => software_platforms
                .iter()
                .any(|p| p.eq_ignore_ascii_case(req)),
        }
    }
}

/// A named operation with per-architecture implementation variants.
#[derive(Debug, Clone, PartialEq)]
pub struct Codelet {
    /// Operation name (the paper's *taskidentifier*, e.g. `I_vecadd`).
    pub name: String,
    /// Available implementations.
    pub variants: Vec<Variant>,
}

impl Codelet {
    /// A codelet with no variants yet.
    pub fn new(name: impl Into<String>) -> Self {
        Codelet {
            name: name.into(),
            variants: Vec::new(),
        }
    }

    /// Adds a variant, builder style.
    pub fn with_variant(mut self, v: Variant) -> Self {
        self.variants.push(v);
        self
    }

    /// The variant usable on the given device characteristics, if any.
    /// When several match, the fastest (highest speedup) wins.
    pub(crate) fn variant_for(&self, arch: &str, software_platforms: &[&str]) -> Option<&Variant> {
        self.variants
            .iter()
            .filter(|v| v.runs_on(arch, software_platforms))
            .max_by(|a, b| {
                a.speedup
                    .partial_cmp(&b.speedup)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Whether a sequential CPU fall-back exists (paper §IV-C: "At least one
    /// sequential fall-back variant must be provided").
    pub fn has_cpu_fallback(&self) -> bool {
        self.variants.iter().any(|v| v.arch == "x86")
    }
}

/// One access of a task to a data handle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataAccess {
    /// The handle.
    pub handle: HandleId,
    /// Access mode.
    pub mode: AccessMode,
}

/// One invocation of a codelet, as a view into the graph that holds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task<'g> {
    /// Task id within its graph.
    pub id: TaskId,
    /// Index of the codelet in the graph's codelet table.
    pub codelet: usize,
    /// Display label (`dgemm[2,3]`).
    pub label: &'g str,
    /// Work in double-precision FLOPs (drives the simulated compute time).
    pub flops: f64,
    /// Data accesses in parameter order.
    pub accesses: &'g [DataAccess],
    /// Optional device restriction: the task must run on a device whose PU
    /// belongs to this logic group (the paper's *executiongroup*).
    pub execution_group: Option<&'g str>,
    /// Scheduling priority (higher = dispatched earlier by the online
    /// engine; StarPU-style). Defaults to 0.
    pub priority: i32,
}

/// A `Copy` view cannot grow a `String` or `Vec` field back.
const _: fn() = || {
    fn is_copy<T: Copy>() {}
    is_copy::<Task<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn dgemm_codelet() -> Codelet {
        Codelet::new("I_dgemm")
            .with_variant(Variant::new("x86"))
            .with_variant(Variant::new("gpu").requiring("Cuda").with_speedup(1.0))
            .with_variant(Variant::new("gpu").requiring("OpenCL").with_speedup(0.8))
    }

    #[test]
    fn variant_matching() {
        let c = dgemm_codelet();
        assert!(c.variant_for("x86", &[]).is_some());
        assert!(c.variant_for("gpu", &["OpenCL", "Cuda"]).is_some());
        assert!(c.variant_for("gpu", &[]).is_none()); // needs a SW platform
        assert!(c.variant_for("spe", &["CellSDK"]).is_none());
    }

    #[test]
    fn fastest_matching_variant_wins() {
        let c = dgemm_codelet();
        let v = c.variant_for("gpu", &["OpenCL", "Cuda"]).unwrap();
        assert_eq!(v.software_platform.as_deref(), Some("Cuda"));
        // Only OpenCL available → the slower OpenCL variant is picked.
        let v = c.variant_for("gpu", &["OpenCL"]).unwrap();
        assert_eq!(v.software_platform.as_deref(), Some("OpenCL"));
        assert_eq!(v.speedup, 0.8);
    }

    #[test]
    fn software_platform_case_insensitive() {
        let v = Variant::new("gpu").requiring("Cuda");
        assert!(v.runs_on("gpu", &["cuda"]));
        assert!(!v.runs_on("x86", &["cuda"]));
    }

    #[test]
    fn cpu_fallback_needs_a_cpu_variant() {
        assert!(dgemm_codelet().has_cpu_fallback());
        let gpu_only = Codelet::new("k").with_variant(Variant::new("gpu"));
        assert!(!gpu_only.has_cpu_fallback());
    }
}
