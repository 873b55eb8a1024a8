//! Memory regions (MR): directly addressable memory attached to PUs.
//!
//! Paper §III-A: *"Memory regions can be present for all processing units
//! within the abstract machine. While the abstract model only supports the
//! definition of directly addressable MRs, concrete instantiations could
//! express qualitative properties […] affinities, relative speeds to PUs,
//! sizes or other descriptors which are highly system dependent."*

use crate::descriptor::Descriptor;
use crate::id::MrId;
use crate::wellknown;

/// A memory region owned by a processing unit.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRegion {
    /// Identifier, unique within the owning PU.
    pub id: MrId,
    /// Concrete qualitative properties (size, bandwidth, latency, kind…).
    pub descriptor: Descriptor,
}

impl MemoryRegion {
    /// Creates a memory region with an empty descriptor.
    pub fn new(id: impl Into<MrId>) -> Self {
        Self {
            id: id.into(),
            descriptor: Descriptor::new(),
        }
    }

    /// Builder-style descriptor population.
    pub fn with_descriptor(mut self, descriptor: Descriptor) -> Self {
        self.descriptor = descriptor;
        self
    }

    /// Capacity in bytes, read from the well-known `SIZE` property
    /// (unit-converted). `None` when the descriptor does not state a size.
    pub fn size_bytes(&self) -> Option<f64> {
        self.descriptor.value_base(wellknown::SIZE)
    }

    /// Bandwidth to the owning PU in bytes/second, from the well-known
    /// `BANDWIDTH` property.
    pub fn bandwidth_bps(&self) -> Option<f64> {
        self.descriptor.value_base(wellknown::BANDWIDTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{Property, PropertyValue};
    use crate::units::Unit;

    #[test]
    fn qualitative_properties() {
        let mr = MemoryRegion::new("gmem0").with_descriptor(
            Descriptor::new()
                .with(Property {
                    name: wellknown::SIZE.into(),
                    value: PropertyValue::with_unit(1_572_864u64, Unit::KiloByte),
                    fixed: true,
                    subschema: None,
                })
                .with(Property {
                    name: wellknown::BANDWIDTH.into(),
                    value: PropertyValue::with_unit(177.4, Unit::GigaBytePerSec),
                    fixed: true,
                    subschema: None,
                }),
        );
        assert_eq!(mr.size_bytes(), Some(1_572_864_000.0));
        assert_eq!(mr.bandwidth_bps(), Some(177.4e9));
    }

    #[test]
    fn empty_region() {
        let mr = MemoryRegion::new("m");
        assert!(mr.descriptor.is_empty());
        assert_eq!(mr.size_bytes(), None);
        assert_eq!(mr.id, MrId::new("m"));
    }
}
