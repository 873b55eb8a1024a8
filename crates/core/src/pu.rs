//! Processing units (PU) and the three PU classes of the machine model.
//!
//! Paper §III-A divides processing units into three classes (Figure 2):
//!
//! * **Master** — "a feature rich, general-purpose processing-unit that marks
//!   a possible starting point for execution of a program. Master entities
//!   can only be defined on the highest hierarchical level but may co-exist
//!   with other Masters within the same system."
//! * **Worker** — "a specialized compute resource which is present at lower
//!   hierarchy-levels (leaf nodes) and carries out a specific task. Workers
//!   must be controlled by Master or Hybrid PUs."
//! * **Hybrid** — "can act as Master and Worker PU at the same time. Hybrid
//!   PUs are present at inner nodes of the PU hierarchy and must always be
//!   controlled either by other Hybrid or Master units."
//!
//! These structural rules are enforced by
//! [`Platform::issues`](crate::platform::Platform::issues).

use crate::descriptor::Descriptor;
use crate::id::{GroupId, PuId, PuIdx};
use crate::memory::MemoryRegion;
use crate::wellknown;
use std::fmt;

/// The class of a processing unit within the control hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PuClass {
    /// General-purpose root PU; program entry point.
    Master,
    /// Inner-node PU that is controlled and controls others.
    Hybrid,
    /// Leaf PU carrying out delegated tasks.
    Worker,
}

impl PuClass {
    /// XML element name (`Master`, `Hybrid`, `Worker`).
    pub fn element_name(self) -> &'static str {
        match self {
            PuClass::Master => "Master",
            PuClass::Hybrid => "Hybrid",
            PuClass::Worker => "Worker",
        }
    }

    /// Whether this class may *control* other PUs, i.e. delegate tasks to
    /// children (the paper's logical control-relationship).
    pub(crate) fn may_control(self) -> bool {
        matches!(self, PuClass::Master | PuClass::Hybrid)
    }

    /// Parses an XML element name into a class.
    pub fn from_element_name(name: &str) -> Option<Self> {
        match name {
            "Master" => Some(PuClass::Master),
            "Hybrid" => Some(PuClass::Hybrid),
            "Worker" => Some(PuClass::Worker),
            _ => None,
        }
    }
}

impl fmt::Display for PuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.element_name())
    }
}

/// A processing unit node of the platform tree.
///
/// Tree links (`parent`/`children`) are arena indices owned by the
/// [`Platform`](crate::platform::Platform); the PU itself carries the PDL
/// payload: identity, class, multiplicity, descriptor, memory regions and
/// logic-group memberships.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingUnit {
    /// Platform-unique identifier.
    pub id: PuId,
    /// Master / Hybrid / Worker.
    pub class: PuClass,
    /// Multiplicity (`quantity="8"` describes eight identical units).
    pub quantity: u32,
    /// The `<PUDescriptor>` property list.
    pub descriptor: Descriptor,
    /// Memory regions directly attached to this PU.
    pub memory_regions: Vec<MemoryRegion>,
    /// Logic-group memberships (`LogicGroupAttribute`).
    pub groups: Vec<GroupId>,
    pub(crate) parent: Option<PuIdx>,
    pub(crate) children: Vec<PuIdx>,
}

impl ProcessingUnit {
    /// Creates a PU with quantity 1 and empty payload.
    pub(crate) fn new(id: impl Into<PuId>, class: PuClass) -> Self {
        Self {
            id: id.into(),
            class,
            quantity: 1,
            descriptor: Descriptor::new(),
            memory_regions: Vec::new(),
            groups: Vec::new(),
            parent: None,
            children: Vec::new(),
        }
    }

    /// Arena index of the controlling PU, if any.
    pub fn parent(&self) -> Option<PuIdx> {
        self.parent
    }

    /// Arena indices of controlled PUs, in declaration order.
    pub fn children(&self) -> &[PuIdx] {
        &self.children
    }

    /// Whether the PU belongs to the named logic group.
    pub fn in_group(&self, group: &str) -> bool {
        self.groups.iter().any(|g| g.as_str() == group)
    }

    /// Convenience: the well-known `ARCHITECTURE` property value.
    pub fn architecture(&self) -> Option<&str> {
        self.descriptor.value(wellknown::ARCHITECTURE)
    }

    /// Convenience: the well-known `CORES` property value.
    pub fn cores(&self) -> Option<i64> {
        self.descriptor.value_i64(wellknown::CORES)
    }

    /// Convenience: peak double-precision FLOP/s in base units.
    pub fn peak_flops_dp(&self) -> Option<f64> {
        self.descriptor.value_base(wellknown::PEAK_GFLOPS_DP)
    }

    /// Convenience: sustained-efficiency fraction (defaults to 1.0).
    pub fn efficiency(&self) -> f64 {
        self.descriptor
            .value_f64(wellknown::EFFICIENCY)
            .unwrap_or(1.0)
    }

    /// Convenience: software platforms (comma-separated
    /// `SOFTWARE_PLATFORM` property) this PU supports, e.g.
    /// `["OpenCL", "Cuda"]`.
    pub fn software_platforms(&self) -> Vec<&str> {
        self.descriptor
            .value(wellknown::SOFTWARE_PLATFORM)
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl fmt::Display for ProcessingUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(id={}", self.class, self.id)?;
        if self.quantity != 1 {
            write!(f, ", quantity={}", self.quantity)?;
        }
        if let Some(arch) = self.architecture() {
            write!(f, ", arch={arch}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::Property;

    #[test]
    fn class_rules() {
        assert!(PuClass::Master.may_control());
        assert!(PuClass::Hybrid.may_control());
        assert!(!PuClass::Worker.may_control());
    }

    #[test]
    fn element_name_round_trip() {
        for c in [PuClass::Master, PuClass::Hybrid, PuClass::Worker] {
            assert_eq!(PuClass::from_element_name(c.element_name()), Some(c));
        }
        assert_eq!(PuClass::from_element_name("Device"), None);
    }

    #[test]
    fn wellknown_accessors() {
        let mut pu = ProcessingUnit::new("1", PuClass::Worker);
        pu.descriptor.push(Property::fixed("ARCHITECTURE", "gpu"));
        pu.descriptor.push(Property::fixed("CORES", "15"));
        pu.descriptor
            .push(Property::fixed("SOFTWARE_PLATFORM", "OpenCL, Cuda"));
        assert_eq!(pu.architecture(), Some("gpu"));
        assert_eq!(pu.cores(), Some(15));
        assert_eq!(pu.software_platforms(), ["OpenCL", "Cuda"]);
        assert_eq!(pu.efficiency(), 1.0);
    }

    #[test]
    fn group_membership() {
        let mut pu = ProcessingUnit::new("1", PuClass::Worker);
        pu.groups.push(GroupId::new("gpus"));
        assert!(pu.in_group("gpus"));
        assert!(!pu.in_group("cpus"));
    }

    #[test]
    fn display_forms() {
        let mut pu = ProcessingUnit::new("0", PuClass::Master);
        assert_eq!(pu.to_string(), "Master(id=0)");
        pu.quantity = 4;
        pu.descriptor.push(Property::fixed("ARCHITECTURE", "x86"));
        assert_eq!(pu.to_string(), "Master(id=0, quantity=4, arch=x86)");
    }

    #[test]
    fn empty_software_platforms() {
        let pu = ProcessingUnit::new("0", PuClass::Master);
        assert!(pu.software_platforms().is_empty());
    }
}
