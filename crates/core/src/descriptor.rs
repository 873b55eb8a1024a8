//! Descriptors: ordered, queryable collections of [`Property`] entries.
//!
//! The paper's Figure 3 defines `PUDescriptor`, `MRDescriptor` and
//! `ICDescriptor`, all specializations of an abstract `Descriptor` holding
//! `Property` children. The specialization is positional (which entity owns
//! the descriptor), so a single [`Descriptor`] type suffices; the
//! [`DescriptorKind`] tag records the XML element name for round-tripping.

use crate::property::Property;
use std::fmt;

/// Which entity a descriptor belongs to; determines the XML element name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DescriptorKind {
    /// `<PUDescriptor>` on Master/Hybrid/Worker elements.
    Pu,
    /// `<MRDescriptor>` on `MemoryRegion` elements.
    Mr,
    /// `<ICDescriptor>` on Interconnect elements.
    Ic,
}

/// An ordered property list attached to a PU, memory region or interconnect.
///
/// Order is preserved for faithful XML round-trips; lookup by name returns
/// the first match (duplicate names are legal in the PDL — later subschema
/// entries may shadow base entries — and all matches are reachable via
/// [`Descriptor::iter`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Descriptor {
    properties: Vec<Property>,
}

impl Descriptor {
    /// An empty descriptor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a descriptor from an iterator of properties.
    pub fn from_properties(props: impl IntoIterator<Item = Property>) -> Self {
        Self {
            properties: props.into_iter().collect(),
        }
    }

    /// Appends a property, preserving insertion order.
    pub fn push(&mut self, prop: Property) {
        self.properties.push(prop);
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, prop: Property) -> Self {
        self.push(prop);
        self
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.properties.len()
    }

    /// Whether the descriptor has no properties.
    pub fn is_empty(&self) -> bool {
        self.properties.is_empty()
    }

    /// First property with the given name.
    pub fn get(&self, name: &str) -> Option<&Property> {
        self.properties.iter().find(|p| p.name == name)
    }

    /// Textual value of the first property with the given name.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.get(name).map(|p| p.value.text.as_str())
    }

    /// Integer value of the first property with the given name.
    pub fn value_i64(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(|p| p.value.as_i64())
    }

    /// Float value of the first property with the given name.
    pub fn value_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(|p| p.value.as_f64())
    }

    /// Value of the first property with the given name, converted to base
    /// units of its dimension (bytes, Hz, FLOP/s, …).
    pub fn value_base(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(|p| p.value.in_base_units())
    }

    /// Inserts or replaces the first property with the same name.
    /// Returns the previous property if one was replaced.
    pub fn set(&mut self, prop: Property) -> Option<Property> {
        if let Some(existing) = self.properties.iter_mut().find(|p| p.name == prop.name) {
            Some(std::mem::replace(existing, prop))
        } else {
            self.properties.push(prop);
            None
        }
    }

    /// Iterates over all properties in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Property> {
        self.properties.iter()
    }
}

impl IntoIterator for Descriptor {
    type Item = Property;
    type IntoIter = std::vec::IntoIter<Property>;

    fn into_iter(self) -> Self::IntoIter {
        self.properties.into_iter()
    }
}

impl<'a> IntoIterator for &'a Descriptor {
    type Item = &'a Property;
    type IntoIter = std::slice::Iter<'a, Property>;

    fn into_iter(self) -> Self::IntoIter {
        self.properties.iter()
    }
}

impl FromIterator<Property> for Descriptor {
    fn from_iter<T: IntoIterator<Item = Property>>(iter: T) -> Self {
        Self::from_properties(iter)
    }
}

impl fmt::Display for Descriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.properties.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Descriptor {
        Descriptor::new()
            .with(Property::fixed("ARCHITECTURE", "gpu"))
            .with(Property::unfixed("DEVICE_NAME", ""))
            .with(Property::fixed("CORES", "15"))
    }

    #[test]
    fn lookup_and_typed_values() {
        let d = sample();
        assert_eq!(d.value("ARCHITECTURE"), Some("gpu"));
        assert_eq!(d.value_i64("CORES"), Some(15));
        assert_eq!(d.value_f64("CORES"), Some(15.0));
        assert_eq!(d.value("MISSING"), None);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn set_replaces_first_match() {
        let mut d = sample();
        let old = d.set(Property::fixed("CORES", "16"));
        assert_eq!(old.unwrap().value.text, "15");
        assert_eq!(d.value_i64("CORES"), Some(16));
        assert_eq!(d.len(), 3);
        assert!(d.set(Property::fixed("NEW", "x")).is_none());
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn value_returns_the_first_duplicate() {
        let mut d = Descriptor::new();
        d.push(Property::fixed("X", "1"));
        d.push(Property::fixed("X", "2"));
        assert_eq!(d.value("X"), Some("1"));
    }

    #[test]
    fn order_preserved_in_iteration() {
        let d = sample();
        let names: Vec<_> = d.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["ARCHITECTURE", "DEVICE_NAME", "CORES"]);
    }

    #[test]
    fn from_iterator() {
        let d: Descriptor = vec![Property::fixed("A", "1")].into_iter().collect();
        assert_eq!(d.len(), 1);
        let props: Vec<Property> = d.into_iter().collect();
        assert_eq!(props[0].name, "A");
    }
}
