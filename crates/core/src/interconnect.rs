//! Interconnect (IC) entities: explicit communication facilities between PUs.
//!
//! Paper §III-A: *"Interconnect entities describe communication facilities
//! between processing elements. The main purpose of this entity is the
//! definition of PU connectivity on the abstract machine level. Concrete
//! instances collect detailed information about communication schemes,
//! underlying bus infrastructure or other communication performance
//! descriptors."*
//!
//! Listing 1 uses `<Interconnect type="rDMA" from="0" to="1" scheme=""/>`.

use crate::descriptor::Descriptor;
use crate::id::PuId;
use crate::wellknown;
use std::fmt;

/// Directionality of an interconnect edge.
///
/// The paper's listings use directed `from`/`to` attributes; most physical
/// links are symmetric, so descriptors default to bidirectional and tools
/// treating the graph as directed can query [`Interconnect::connects`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Directionality {
    /// Transfers possible both ways (typical bus/PCIe behaviour).
    #[default]
    Bidirectional,
    /// Transfers only from `from` to `to`.
    Unidirectional,
}

/// An interconnect edge between two processing units.
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    /// Interconnect type label, e.g. `rDMA`, `PCIe`, `QPI`, `EIB`, `shared-mem`.
    pub ic_type: String,
    /// Source PU id.
    pub from: PuId,
    /// Destination PU id.
    pub to: PuId,
    /// Communication scheme annotation (free-form; empty in Listing 1).
    pub scheme: String,
    /// Directionality; `Bidirectional` unless stated otherwise.
    pub directionality: Directionality,
    /// Concrete performance descriptors (bandwidth, latency, …).
    pub descriptor: Descriptor,
}

impl Interconnect {
    /// A bidirectional interconnect of the given type between two PUs.
    pub fn new(ic_type: impl Into<String>, from: impl Into<PuId>, to: impl Into<PuId>) -> Self {
        Self {
            ic_type: ic_type.into(),
            from: from.into(),
            to: to.into(),
            scheme: String::new(),
            directionality: Directionality::Bidirectional,
            descriptor: Descriptor::new(),
        }
    }

    /// Sets the scheme annotation, builder style.
    pub fn with_scheme(mut self, scheme: impl Into<String>) -> Self {
        self.scheme = scheme.into();
        self
    }

    /// Marks the edge unidirectional, builder style.
    pub fn unidirectional(mut self) -> Self {
        self.directionality = Directionality::Unidirectional;
        self
    }

    /// Sets the concrete descriptor, builder style.
    pub fn with_descriptor(mut self, descriptor: Descriptor) -> Self {
        self.descriptor = descriptor;
        self
    }

    /// Whether a transfer from `a` to `b` may use this edge.
    pub fn connects(&self, a: &PuId, b: &PuId) -> bool {
        if self.from == *a && self.to == *b {
            return true;
        }
        self.directionality == Directionality::Bidirectional && self.from == *b && self.to == *a
    }

    /// Given one endpoint, returns the other; `None` if `pu` is not an
    /// endpoint, or if the edge is unidirectional *into* `pu` (no outgoing
    /// traversal possible).
    pub fn other_endpoint(&self, pu: &PuId) -> Option<&PuId> {
        if self.from == *pu {
            Some(&self.to)
        } else if self.to == *pu && self.directionality == Directionality::Bidirectional {
            Some(&self.from)
        } else {
            None
        }
    }

    /// Bandwidth in bytes/second from the well-known `BANDWIDTH` property.
    pub fn bandwidth_bps(&self) -> Option<f64> {
        self.descriptor.value_base(wellknown::BANDWIDTH)
    }

    /// Latency in seconds from the well-known `LATENCY` property.
    pub fn latency_s(&self) -> Option<f64> {
        self.descriptor.value_base(wellknown::LATENCY)
    }
}

impl fmt::Display for Interconnect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrow = match self.directionality {
            Directionality::Bidirectional => "<->",
            Directionality::Unidirectional => "-->",
        };
        write!(f, "{} {} {} [{}]", self.from, arrow, self.to, self.ic_type)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{Property, PropertyValue};
    use crate::units::Unit;

    #[test]
    fn listing1_edge() {
        let ic = Interconnect::new("rDMA", "0", "1").with_scheme("");
        assert_eq!(ic.ic_type, "rDMA");
        assert!(ic.connects(&PuId::new("0"), &PuId::new("1")));
        assert!(ic.connects(&PuId::new("1"), &PuId::new("0"))); // default bidi
        assert!(!ic.connects(&PuId::new("0"), &PuId::new("2")));
    }

    #[test]
    fn unidirectional_edge() {
        let ic = Interconnect::new("dma", "a", "b").unidirectional();
        assert!(ic.connects(&PuId::new("a"), &PuId::new("b")));
        assert!(!ic.connects(&PuId::new("b"), &PuId::new("a")));
        assert_eq!(ic.other_endpoint(&PuId::new("a")), Some(&PuId::new("b")));
        assert_eq!(ic.other_endpoint(&PuId::new("b")), None);
        assert_eq!(ic.other_endpoint(&PuId::new("c")), None);
    }

    #[test]
    fn performance_descriptors() {
        let ic = Interconnect::new("PCIe", "0", "1").with_descriptor(
            Descriptor::new()
                .with(Property {
                    name: wellknown::BANDWIDTH.into(),
                    value: PropertyValue::with_unit(8.0, Unit::GigaBytePerSec),
                    fixed: true,
                    subschema: None,
                })
                .with(Property {
                    name: wellknown::LATENCY.into(),
                    value: PropertyValue::with_unit(10.0, Unit::MicroSecond),
                    fixed: true,
                    subschema: None,
                }),
        );
        assert_eq!(ic.bandwidth_bps(), Some(8e9));
        assert!((ic.latency_s().unwrap() - 1e-5).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(
            Interconnect::new("rDMA", "0", "1").to_string(),
            "0 <-> 1 [rDMA]"
        );
        assert_eq!(
            Interconnect::new("dma", "0", "1")
                .unidirectional()
                .to_string(),
            "0 --> 1 [dma]"
        );
    }
}
