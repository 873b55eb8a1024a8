//! Capability matching and platform-pattern detection.
//!
//! Two tool-facing facilities from the paper:
//!
//! * **Requirements matching** (§II): "highly optimized and platform specific
//!   code written by expert programmers can now be equipped with additional
//!   platform requirements expressed in our PDL" — a [`RequirementSet`]
//!   expresses what a task-implementation variant needs; matching it against
//!   a concrete platform yields the PUs able to run it (or nothing, pruning
//!   the variant).
//! * **Pattern detection**: checking whether a concrete platform exhibits an
//!   abstract control pattern ([`PatternKind`]), enabling "mapping of
//!   abstract architectural (control-view) patterns to concrete physical
//!   platform configurations".

use pdl_core::id::PuIdx;
use pdl_core::patterns::PatternKind;
use pdl_core::platform::Platform;
use pdl_core::pu::{ProcessingUnit, PuClass};

use std::fmt;

/// A single requirement on a processing unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Requirement {
    /// `ARCHITECTURE` must equal the given value (`x86`, `gpu`, `spe`, …).
    Architecture(String),
    /// The PU's `SOFTWARE_PLATFORM` list must contain the given entry
    /// (`OpenCL`, `Cuda`, `CellSDK`, …) — the paper's `targetplatformlist`
    /// vocabulary.
    SoftwarePlatform(String),
    /// PU class must match.
    Class(PuClass),
    /// A descriptor property must exist with a non-empty value.
    HasProperty(String),
    /// A numeric property must be at least the given value, compared in
    /// base units when the property carries a unit.
    MinProperty {
        /// The property name.
        name: String,
        /// Minimum accepted value in base units.
        min: f64,
    },
    /// Some attached memory region must have at least this many bytes.
    MinMemoryBytes(f64),
    /// PU must belong to the given logic group.
    InGroup(String),
}

impl Requirement {
    /// Whether the PU satisfies this requirement.
    pub(crate) fn satisfied_by(&self, pu: &ProcessingUnit) -> bool {
        match self {
            Requirement::Architecture(a) => pu.architecture() == Some(a.as_str()),
            Requirement::SoftwarePlatform(sp) => pu
                .software_platforms()
                .iter()
                .any(|p| p.eq_ignore_ascii_case(sp)),
            Requirement::Class(c) => pu.class == *c,
            Requirement::HasProperty(name) => pu
                .descriptor
                .value(name)
                .is_some_and(|v| !v.trim().is_empty()),
            Requirement::MinProperty { name, min } => {
                pu.descriptor.value_base(name).is_some_and(|v| v >= *min)
            }
            Requirement::MinMemoryBytes(min) => pu
                .memory_regions
                .iter()
                .filter_map(pdl_core::memory::MemoryRegion::size_bytes)
                .any(|s| s >= *min),
            Requirement::InGroup(g) => pu.in_group(g),
        }
    }
}

impl fmt::Display for Requirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Requirement::Architecture(a) => write!(f, "arch={a}"),
            Requirement::SoftwarePlatform(s) => write!(f, "swplatform~{s}"),
            Requirement::Class(c) => write!(f, "class={c}"),
            Requirement::HasProperty(p) => write!(f, "has({p})"),
            Requirement::MinProperty { name, min } => write!(f, "{name}>={min}"),
            Requirement::MinMemoryBytes(m) => write!(f, "mem>={m}B"),
            Requirement::InGroup(g) => write!(f, "group={g}"),
        }
    }
}

/// A conjunction of requirements, as attached to a task-implementation
/// variant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequirementSet {
    /// All requirements must hold.
    pub requirements: Vec<Requirement>,
}

impl RequirementSet {
    /// The empty set (matches every PU).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style push.
    pub fn with(mut self, r: Requirement) -> Self {
        self.requirements.push(r);
        self
    }

    /// Whether the PU satisfies every requirement.
    pub(crate) fn satisfied_by(&self, pu: &ProcessingUnit) -> bool {
        self.requirements.iter().all(|r| r.satisfied_by(pu))
    }

    /// All PUs of the platform satisfying the set, in document order.
    pub fn matches<'p>(&self, platform: &'p Platform) -> Vec<(PuIdx, &'p ProcessingUnit)> {
        platform
            .dfs()
            .filter(|(_, pu)| self.satisfied_by(pu))
            .collect()
    }

    /// Whether at least one PU satisfies the set — used for variant
    /// pre-pruning (§IV-C step 2).
    pub fn supported_by(&self, platform: &Platform) -> bool {
        platform.dfs().any(|(_, pu)| self.satisfied_by(pu))
    }
}

/// Detects whether the platform exhibits the given abstract pattern.
///
/// Detection is structural (class/shape based):
/// * `HostDevice` — exactly one Master whose children are all Workers, ≥1.
/// * `MasterWorkerPool` — `HostDevice` where all workers are mutually
///   homogeneous (same `ARCHITECTURE`, or multiplicity on a single node).
/// * `Hierarchical` — at least one Hybrid PU present.
/// * `MultiMaster` — more than one top-level Master.
pub fn matches_pattern(platform: &Platform, kind: PatternKind) -> bool {
    match kind {
        PatternKind::MultiMaster => platform.roots().len() > 1,
        PatternKind::Hierarchical => platform.hybrids().next().is_some(),
        PatternKind::HostDevice => {
            platform.roots().len() == 1 && {
                let root = platform.pu(platform.roots()[0]);
                !root.children().is_empty()
                    && root
                        .children()
                        .iter()
                        .all(|&c| platform.pu(c).class == PuClass::Worker)
            }
        }
        PatternKind::MasterWorkerPool => {
            if !matches_pattern(platform, PatternKind::HostDevice) {
                return false;
            }
            let root = platform.pu(platform.roots()[0]);
            let archs: Vec<Option<&str>> = root
                .children()
                .iter()
                .map(|&c| platform.pu(c).architecture())
                .collect();
            root.children().len() == 1 || archs.windows(2).all(|w| w[0] == w[1])
        }
    }
}

/// All abstract patterns the platform exhibits.
pub fn detected_patterns(platform: &Platform) -> Vec<PatternKind> {
    [
        PatternKind::HostDevice,
        PatternKind::MasterWorkerPool,
        PatternKind::Hierarchical,
        PatternKind::MultiMaster,
    ]
    .into_iter()
    .filter(|&k| matches_pattern(platform, k))
    .collect()
}

/// Convenience: requirement set for "a GPU worker programmable via `OpenCL`
/// with at least `min_mem` bytes of device memory" — the shape Cascabel's
/// GPU variants use.
pub fn opencl_gpu_requirements(min_mem_bytes: f64) -> RequirementSet {
    RequirementSet::new()
        .with(Requirement::Architecture("gpu".into()))
        .with(Requirement::SoftwarePlatform("OpenCL".into()))
        .with(Requirement::MinMemoryBytes(min_mem_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdl_core::prelude::*;

    fn gpgpu() -> Platform {
        let mut b = Platform::builder("gpgpu");
        let m = b.master("cpu");
        b.prop(m, Property::fixed(wellknown::ARCHITECTURE, "x86"));
        b.prop(
            m,
            Property::fixed(wellknown::SOFTWARE_PLATFORM, "x86, OpenCL"),
        );
        let g = b.worker(m, "gpu0").unwrap();
        b.prop(g, Property::fixed(wellknown::ARCHITECTURE, "gpu"));
        b.prop(
            g,
            Property::fixed(wellknown::SOFTWARE_PLATFORM, "OpenCL, Cuda"),
        );
        b.memory(
            g,
            MemoryRegion::new("vram").with_descriptor(
                Descriptor::new()
                    .with(Property::fixed(wellknown::SIZE, "1536").with_unit(Unit::MegaByte)),
            ),
        );
        b.group(g, "gpus");
        b.build().unwrap()
    }

    #[test]
    fn architecture_and_software_platform() {
        let p = gpgpu();
        let (_, gpu) = p.pu_by_id("gpu0").unwrap();
        assert!(Requirement::Architecture("gpu".into()).satisfied_by(gpu));
        assert!(!Requirement::Architecture("x86".into()).satisfied_by(gpu));
        assert!(Requirement::SoftwarePlatform("cuda".into()).satisfied_by(gpu)); // case-insensitive
        assert!(!Requirement::SoftwarePlatform("CellSDK".into()).satisfied_by(gpu));
    }

    #[test]
    fn memory_requirement() {
        let p = gpgpu();
        let (_, gpu) = p.pu_by_id("gpu0").unwrap();
        assert!(Requirement::MinMemoryBytes(1e9).satisfied_by(gpu));
        assert!(!Requirement::MinMemoryBytes(2e9).satisfied_by(gpu));
        let (_, cpu) = p.pu_by_id("cpu").unwrap();
        assert!(!Requirement::MinMemoryBytes(1.0).satisfied_by(cpu)); // no MR at all
    }

    #[test]
    fn requirement_set_matching() {
        let p = gpgpu();
        let set = opencl_gpu_requirements(1e9);
        let matches = set.matches(&p);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].1.id, PuId::new("gpu0"));
        assert!(set.supported_by(&p));
        let impossible = opencl_gpu_requirements(1e12);
        assert!(!impossible.supported_by(&p));
    }

    #[test]
    fn empty_set_matches_all() {
        let p = gpgpu();
        assert_eq!(RequirementSet::new().matches(&p).len(), p.len());
    }

    #[test]
    fn group_and_class_requirements() {
        let p = gpgpu();
        let set = RequirementSet::new()
            .with(Requirement::InGroup("gpus".into()))
            .with(Requirement::Class(PuClass::Worker));
        assert_eq!(set.matches(&p).len(), 1);
    }

    #[test]
    fn min_property_in_base_units() {
        let p = gpgpu();
        let (_, gpu) = p.pu_by_id("gpu0").unwrap();
        // No PEAK_GFLOPS_DP on this PU:
        assert!(!Requirement::MinProperty {
            name: wellknown::PEAK_GFLOPS_DP.into(),
            min: 1.0
        }
        .satisfied_by(gpu));
    }

    #[test]
    fn pattern_detection_host_device() {
        let p = gpgpu();
        assert!(matches_pattern(&p, PatternKind::HostDevice));
        assert!(matches_pattern(&p, PatternKind::MasterWorkerPool)); // single worker
        assert!(!matches_pattern(&p, PatternKind::Hierarchical));
        assert!(!matches_pattern(&p, PatternKind::MultiMaster));
    }

    #[test]
    fn pattern_detection_hierarchical() {
        let p = pdl_core::patterns::hierarchical(2, 2);
        assert!(matches_pattern(&p, PatternKind::Hierarchical));
        assert!(!matches_pattern(&p, PatternKind::HostDevice)); // children are hybrids
    }

    #[test]
    fn pattern_detection_multi_master() {
        let p = pdl_core::patterns::multi_master(2);
        assert!(matches_pattern(&p, PatternKind::MultiMaster));
    }

    #[test]
    fn pool_requires_homogeneous_workers() {
        let mut b = Platform::builder("het");
        let m = b.master("m");
        let w1 = b.worker(m, "w1").unwrap();
        b.prop(w1, Property::fixed(wellknown::ARCHITECTURE, "gpu"));
        let w2 = b.worker(m, "w2").unwrap();
        b.prop(w2, Property::fixed(wellknown::ARCHITECTURE, "fpga"));
        let p = b.build().unwrap();
        assert!(matches_pattern(&p, PatternKind::HostDevice));
        assert!(!matches_pattern(&p, PatternKind::MasterWorkerPool));
    }

    #[test]
    fn detected_patterns_lists_all() {
        let p = gpgpu();
        let pats = detected_patterns(&p);
        assert!(pats.contains(&PatternKind::HostDevice));
        assert!(pats.contains(&PatternKind::MasterWorkerPool));
        assert_eq!(pats.len(), 2);
    }

    #[test]
    fn multiple_logic_views_coexist() {
        // Paper §II: "Multiple logic platform patterns can co-exist for a
        // single target system." Model the same hardware once as
        // host-device, once as pool — both validate, and group views are
        // independent.
        let hd = pdl_core::patterns::host_device(4);
        let pool = pdl_core::patterns::master_worker_pool(4);
        assert!(matches_pattern(&hd, PatternKind::HostDevice));
        assert!(matches_pattern(&pool, PatternKind::MasterWorkerPool));
        assert_eq!(hd.total_units(), 5);
        assert_eq!(pool.total_units(), 5);
    }
}
