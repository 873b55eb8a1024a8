//! Properties: the extensible key/value mechanism of the PDL.
//!
//! Section III-B of the paper: *"we introduce extensible Descriptor and
//! Property types"*. A property is a named value with three orthogonal
//! extension facilities:
//!
//! * **fixed / unfixed** — unfixed values are "marked to be editable by other
//!   tools or users", enabling definition of required descriptors at program
//!   composition time with later instantiation by a runtime (paper §III-B).
//! * **typed subschemas** — concrete toolchains register specialized property
//!   types via XML schema inheritance (`xsi:type="ocl:oclDevicePropertyType"`,
//!   Listing 2). We record the subschema reference on the property.
//! * **units** — values may carry a [`Unit`] annotation.
//!
//! Names, values and subschema names are shared [`Text`]: a platform parsed
//! from XML stores each distinct string once, however many properties
//! carry it.

use crate::text::Text;
use crate::units::{to_base, Unit};
use std::fmt;

/// Reference to a registered property subschema, e.g. the `OpenCL` device
/// property type of Listing 2. The `namespace` is the XML prefix ("ocl"),
/// `type_name` the local type name ("oclDevicePropertyType").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubschemaRef {
    /// Namespace prefix, e.g. `ocl`.
    pub namespace: Text,
    /// Local type name, e.g. `oclDevicePropertyType`.
    pub type_name: Text,
}

impl SubschemaRef {
    /// Creates a subschema reference from prefix and local type name.
    pub fn new(namespace: impl Into<Text>, type_name: impl Into<Text>) -> Self {
        Self {
            namespace: namespace.into(),
            type_name: type_name.into(),
        }
    }

    /// Parses the `xsi:type` attribute form `prefix:TypeName`.
    pub fn parse(qualified: &str) -> Option<Self> {
        Self::parse_with(qualified, |s| Text::from(s))
    }

    /// [`Self::parse`], taking each name's text from `text` (a parser's
    /// interner, say).
    pub fn parse_with(qualified: &str, mut text: impl FnMut(&str) -> Text) -> Option<Self> {
        let (ns, ty) = qualified.split_once(':')?;
        if ns.is_empty() || ty.is_empty() {
            return None;
        }
        Some(Self::new(text(ns), text(ty)))
    }

    /// The qualified `prefix:TypeName` form used in XML.
    pub fn qualified(&self) -> String {
        format!("{}:{}", self.namespace, self.type_name)
    }
}

impl fmt::Display for SubschemaRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.namespace, self.type_name)
    }
}

/// The value of a [`Property`].
///
/// The canonical representation is textual (as in the XML), optionally
/// annotated with a unit; typed accessors perform parsing on demand.
/// Unfixed properties may have an empty value that a later toolchain stage
/// fills in.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyValue {
    /// Raw textual value exactly as it appears in the XML.
    pub text: Text,
    /// Optional unit annotation (`<value unit="kB">…`).
    pub unit: Option<Unit>,
}

impl PropertyValue {
    /// A plain textual value without unit.
    pub fn text(s: impl Into<Text>) -> Self {
        Self {
            text: s.into(),
            unit: None,
        }
    }

    /// A numeric value with a unit annotation.
    pub fn with_unit(value: impl fmt::Display, unit: Unit) -> Self {
        Self {
            text: value.to_string().into(),
            unit: Some(unit),
        }
    }

    /// Whether the value is empty (whitespace counts as empty).
    pub(crate) fn is_empty(&self) -> bool {
        self.text.trim().is_empty()
    }

    /// Parses the value as an integer, ignoring surrounding whitespace.
    pub fn as_i64(&self) -> Option<i64> {
        self.text.trim().parse().ok()
    }

    /// Parses the value as a float, ignoring surrounding whitespace.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        self.text.trim().parse().ok()
    }

    /// Numeric value converted to the base unit of its dimension
    /// (bytes, hertz, FLOP/s, …). Returns the raw number when no unit is
    /// attached.
    pub fn in_base_units(&self) -> Option<f64> {
        let v = self.as_f64()?;
        Some(match self.unit {
            Some(u) => to_base(v, u),
            None => v,
        })
    }
}

impl fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.unit {
            Some(u) => write!(f, "{} {}", self.text, u),
            None => f.write_str(&self.text),
        }
    }
}

/// A single `<Property>` entry of a descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct Property {
    /// Property name (`ARCHITECTURE`, `MAX_COMPUTE_UNITS`, …).
    pub name: Text,
    /// Property value with optional unit.
    pub value: PropertyValue,
    /// `fixed="true"` values are immutable platform facts; `fixed="false"`
    /// values may be edited/instantiated by later tools (paper §III-B).
    pub fixed: bool,
    /// Optional subschema type (`xsi:type`), e.g. the `ocl:` properties of
    /// Listing 2. `None` for base-schema properties.
    pub subschema: Option<SubschemaRef>,
}

impl Property {
    /// A fixed base-schema property (Listing 1 style).
    pub fn fixed(name: impl Into<Text>, value: impl Into<Text>) -> Self {
        Self {
            name: name.into(),
            value: PropertyValue::text(value),
            fixed: true,
            subschema: None,
        }
    }

    /// An unfixed base-schema property (editable by later tools).
    pub fn unfixed(name: impl Into<Text>, value: impl Into<Text>) -> Self {
        Self {
            name: name.into(),
            value: PropertyValue::text(value),
            fixed: false,
            subschema: None,
        }
    }

    /// An unfixed property carrying a typed subschema reference
    /// (Listing 2 style).
    pub fn typed(name: impl Into<Text>, value: PropertyValue, subschema: SubschemaRef) -> Self {
        Self {
            name: name.into(),
            value,
            fixed: false,
            subschema: Some(subschema),
        }
    }

    /// Sets the unit annotation, builder style.
    pub fn with_unit(mut self, unit: Unit) -> Self {
        self.value.unit = Some(unit);
        self
    }

    /// Marks the property fixed/unfixed, builder style.
    pub fn with_fixed(mut self, fixed: bool) -> Self {
        self.fixed = fixed;
        self
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)?;
        if !self.fixed {
            f.write_str(" (unfixed)")?;
        }
        if let Some(s) = &self.subschema {
            write!(f, " [{s}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_property() {
        let p = Property::fixed("ARCHITECTURE", "x86");
        assert!(p.fixed);
        assert_eq!(p.name, "ARCHITECTURE");
        assert_eq!(p.value.text, "x86");
        assert!(p.subschema.is_none());
    }

    #[test]
    fn listing2_property() {
        let p = Property::typed(
            "GLOBAL_MEM_SIZE",
            PropertyValue::with_unit(1_572_864u64, Unit::KiloByte),
            SubschemaRef::new("ocl", "oclDevicePropertyType"),
        );
        assert!(!p.fixed);
        assert_eq!(p.value.as_i64(), Some(1_572_864));
        assert_eq!(p.value.in_base_units(), Some(1_572_864_000.0));
        assert_eq!(
            p.subschema.as_ref().unwrap().qualified(),
            "ocl:oclDevicePropertyType"
        );
    }

    #[test]
    fn subschema_parse() {
        let s = SubschemaRef::parse("ocl:oclDevicePropertyType").unwrap();
        assert_eq!(s.namespace, "ocl");
        assert_eq!(s.type_name, "oclDevicePropertyType");
        assert!(SubschemaRef::parse("noprefix").is_none());
        assert!(SubschemaRef::parse(":x").is_none());
        assert!(SubschemaRef::parse("x:").is_none());
    }

    #[test]
    fn typed_accessors() {
        let v = PropertyValue::text(" 42 ");
        assert_eq!(v.as_i64(), Some(42));
        assert_eq!(v.as_f64(), Some(42.0));
        assert_eq!(PropertyValue::text("x").as_i64(), None);
    }

    #[test]
    fn display_forms() {
        let p = Property::fixed("A", "1").with_unit(Unit::GigaHertz);
        assert_eq!(p.to_string(), "A=1 GHz");
        let q = Property::unfixed("B", "2");
        assert!(q.to_string().contains("(unfixed)"));
    }

    #[test]
    fn base_units_without_unit_annotation() {
        assert_eq!(PropertyValue::text("5").in_base_units(), Some(5.0));
        assert_eq!(PropertyValue::text("abc").in_base_units(), None);
    }
}
