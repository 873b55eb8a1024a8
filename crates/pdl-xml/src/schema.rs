//! XSD-lite: the base PDL schema plus registered, versioned subschemas.
//!
//! The paper derives "an XML Schema Definition (XSD) capable of being
//! extended with entity descriptors for current and future heterogeneous
//! architectures" (§III-B) using schema inheritance and XML entity
//! polymorphism (`xsi:type`). This module implements the subset of that
//! machinery the PDL needs:
//!
//! * a hard-coded **base schema** describing which elements may nest where
//!   and which attributes are required (Figure 3 of the paper);
//! * a **subschema registry**: new property types for novel platforms can be
//!   "provided by application programmer, tool-developer or even hardware
//!   vendors" — registered at runtime with unique identification (prefix +
//!   URI) and versioning;
//! * validation of a parsed document against base schema + registry.

use crate::dom::{Document, Element};
use crate::error::{Pos, SchemaError};
use pdl_core::version::Version;
use std::collections::BTreeMap;

/// Declaration of a property type inside a subschema
/// (e.g. `oclDevicePropertyType`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyTypeDecl {
    /// Local type name referenced by `xsi:type="prefix:TypeName"`.
    pub type_name: String,
    /// Property names this type declares. Ignored when `open`.
    pub known_properties: Vec<String>,
    /// Open types accept any property name (pure tagging); closed types
    /// reject undeclared names.
    pub open: bool,
    /// Base type this one extends, within the same subschema — the paper's
    /// "schema inheritance": the derived type accepts its own vocabulary
    /// plus everything the base chain accepts.
    pub extends: Option<String>,
}

impl PropertyTypeDecl {
    /// A closed type declaring an explicit property-name vocabulary.
    pub(crate) fn closed(type_name: impl Into<String>, props: &[&str]) -> Self {
        PropertyTypeDecl {
            type_name: type_name.into(),
            known_properties: props.iter().map(std::string::ToString::to_string).collect(),
            open: false,
            extends: None,
        }
    }

    /// An open type accepting any property name.
    pub(crate) fn open(type_name: impl Into<String>) -> Self {
        PropertyTypeDecl {
            type_name: type_name.into(),
            known_properties: Vec::new(),
            open: true,
            extends: None,
        }
    }

    /// Whether this type *directly* accepts the given property name
    /// (inheritance is resolved by [`Subschema::type_accepts`]).
    pub(crate) fn accepts(&self, name: &str) -> bool {
        self.open || self.known_properties.iter().any(|p| p == name)
    }
}

/// A registered subschema: unique prefix + URI, version, declared types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subschema {
    /// Namespace prefix used in documents (`ocl`).
    pub prefix: String,
    /// Namespace URI (unique identification, paper §III-B).
    pub uri: String,
    /// Subschema version.
    pub version: Version,
    /// Declared property types.
    pub property_types: Vec<PropertyTypeDecl>,
}

impl Subschema {
    /// Finds a declared property type by local name.
    pub fn property_type(&self, type_name: &str) -> Option<&PropertyTypeDecl> {
        self.property_types
            .iter()
            .find(|t| t.type_name == type_name)
    }

    /// Whether `type_name` accepts `prop_name`, walking the `extends`
    /// inheritance chain (cycles terminate after visiting each type once).
    pub fn type_accepts(&self, type_name: &str, prop_name: &str) -> bool {
        let mut visited = Vec::new();
        let mut current = Some(type_name);
        while let Some(name) = current {
            if visited.contains(&name) {
                return false; // inheritance cycle
            }
            visited.push(name);
            let Some(decl) = self.property_type(name) else {
                return false;
            };
            if decl.accepts(prop_name) {
                return true;
            }
            current = decl.extends.as_deref();
        }
        false
    }
}

/// The `OpenCL` device-property subschema of Listing 2, shipped as a built-in.
pub(crate) fn ocl_subschema() -> Subschema {
    Subschema {
        prefix: "ocl".to_string(),
        uri: "http://pdl.example.org/subschema/opencl".to_string(),
        version: Version::new(1, 0),
        property_types: vec![PropertyTypeDecl::closed(
            "oclDevicePropertyType",
            &[
                "DEVICE_NAME",
                "DEVICE_VENDOR",
                "DEVICE_VERSION",
                "DRIVER_VERSION",
                "MAX_COMPUTE_UNITS",
                "MAX_WORK_ITEM_DIMENSIONS",
                "MAX_WORK_GROUP_SIZE",
                "MAX_CLOCK_FREQUENCY",
                "GLOBAL_MEM_SIZE",
                "LOCAL_MEM_SIZE",
                "MAX_MEM_ALLOC_SIZE",
                "DOUBLE_FP_CONFIG",
            ],
        )],
    }
}

/// A CUDA device subschema (open type — tooling may add arbitrary
/// `cuda:`-properties), shipped as a built-in to demonstrate multiple
/// coexisting subschemas.
pub(crate) fn cuda_subschema() -> Subschema {
    Subschema {
        prefix: "cuda".to_string(),
        uri: "http://pdl.example.org/subschema/cuda".to_string(),
        version: Version::new(1, 0),
        property_types: vec![PropertyTypeDecl::open("cudaDevicePropertyType")],
    }
}

/// Registry of subschemas keyed by prefix, plus the base-schema version the
/// tool implements.
#[derive(Debug, Clone)]
pub struct SchemaRegistry {
    subschemas: BTreeMap<String, Subschema>,
    /// Version of the base PDL schema implemented by this tool.
    pub tool_version: Version,
}

impl Default for SchemaRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl SchemaRegistry {
    /// An empty registry (base schema only).
    pub(crate) fn empty() -> Self {
        SchemaRegistry {
            subschemas: BTreeMap::new(),
            tool_version: Version::CURRENT,
        }
    }

    /// A registry with the built-in `ocl` and `cuda` subschemas.
    pub fn with_builtins() -> Self {
        let mut r = Self::empty();
        r.register(ocl_subschema());
        r.register(cuda_subschema());
        r
    }

    /// Registers (or replaces) a subschema under its prefix.
    pub(crate) fn register(&mut self, s: Subschema) {
        self.subschemas.insert(s.prefix.clone(), s);
    }

    /// Looks up a subschema by prefix.
    pub fn subschema(&self, prefix: &str) -> Option<&Subschema> {
        self.subschemas.get(prefix)
    }

    /// Validates a document against the base schema and this registry.
    /// Returns all conformance errors (empty = valid).
    pub fn validate(&self, doc: &Document) -> Vec<SchemaError> {
        self.validate_at(doc).into_iter().map(|(e, _)| e).collect()
    }

    /// Like [`SchemaRegistry::validate`], but pairs every conformance error
    /// with the line/column of the XML element it was detected on, so
    /// diagnostics can point at the offending source.
    pub fn validate_at(&self, doc: &Document) -> Vec<(SchemaError, Pos)> {
        let mut errs = Vec::new();
        let root = doc.root();
        match root.local_name() {
            "Platform" => {
                if let Some(v) = root.attribute("schemaVersion") {
                    match v.parse::<Version>() {
                        Ok(doc_version) => {
                            if !self.tool_version.can_read(doc_version) {
                                errs.push((
                                    SchemaError::IncompatibleVersion {
                                        document: v.to_string(),
                                        tool: self.tool_version.to_string(),
                                    },
                                    root.pos(),
                                ));
                            }
                        }
                        Err(_) => errs.push((
                            SchemaError::BadAttributeValue {
                                element: "Platform".into(),
                                attribute: "schemaVersion".into(),
                                value: v.to_string(),
                            },
                            root.pos(),
                        )),
                    }
                }
                for child in root.elements() {
                    match child.local_name() {
                        "Master" => self.validate_pu(child, &mut errs),
                        "Interconnect" => self.validate_interconnect(child, &mut errs),
                        other => errs.push((
                            SchemaError::UnexpectedElement {
                                element: other.to_string(),
                                parent: "Platform".to_string(),
                            },
                            child.pos(),
                        )),
                    }
                }
            }
            "Master" => self.validate_pu(root, &mut errs),
            other => errs.push((
                SchemaError::UnexpectedElement {
                    element: other.to_string(),
                    parent: String::new(),
                },
                root.pos(),
            )),
        }
        errs
    }

    fn validate_pu(&self, e: Element<'_, '_>, errs: &mut Vec<(SchemaError, Pos)>) {
        if e.attribute("id").is_none() {
            errs.push((
                SchemaError::MissingAttribute {
                    element: e.local_name().to_string(),
                    attribute: "id",
                },
                e.pos(),
            ));
        }
        if let Some(q) = e.attribute("quantity") {
            if q.parse::<u32>().is_err() {
                errs.push((
                    SchemaError::BadAttributeValue {
                        element: e.local_name().to_string(),
                        attribute: "quantity".into(),
                        value: q.to_string(),
                    },
                    e.pos(),
                ));
            }
        }
        for child in e.elements() {
            match child.local_name() {
                "PUDescriptor" => self.validate_descriptor(child, errs),
                "MemoryRegion" => {
                    if child.attribute("id").is_none() {
                        errs.push((
                            SchemaError::MissingAttribute {
                                element: "MemoryRegion".to_string(),
                                attribute: "id",
                            },
                            child.pos(),
                        ));
                    }
                    for d in child.elements() {
                        match d.local_name() {
                            "MRDescriptor" => self.validate_descriptor(d, errs),
                            other => errs.push((
                                SchemaError::UnexpectedElement {
                                    element: other.to_string(),
                                    parent: "MemoryRegion".to_string(),
                                },
                                d.pos(),
                            )),
                        }
                    }
                }
                "Interconnect" => self.validate_interconnect(child, errs),
                "LogicGroupAttribute" => {
                    if child.attribute("name").is_none() {
                        errs.push((
                            SchemaError::MissingAttribute {
                                element: "LogicGroupAttribute".to_string(),
                                attribute: "name",
                            },
                            child.pos(),
                        ));
                    }
                }
                "Worker" | "Hybrid" => self.validate_pu(child, errs),
                "Master" => {
                    // Structural nesting of Master is a model-level rule
                    // (validate.rs); the schema rejects it outright since the
                    // XSD forbids Master as PU child.
                    errs.push((
                        SchemaError::UnexpectedElement {
                            element: "Master".to_string(),
                            parent: e.local_name().to_string(),
                        },
                        child.pos(),
                    ));
                }
                other => errs.push((
                    SchemaError::UnexpectedElement {
                        element: other.to_string(),
                        parent: e.local_name().to_string(),
                    },
                    child.pos(),
                )),
            }
        }
    }

    fn validate_interconnect(&self, e: Element<'_, '_>, errs: &mut Vec<(SchemaError, Pos)>) {
        for required in ["type", "from", "to"] {
            if e.attribute(required).is_none() {
                errs.push((
                    SchemaError::MissingAttribute {
                        element: "Interconnect".to_string(),
                        attribute: match required {
                            "type" => "type",
                            "from" => "from",
                            _ => "to",
                        },
                    },
                    e.pos(),
                ));
            }
        }
        for child in e.elements() {
            match child.local_name() {
                "ICDescriptor" => self.validate_descriptor(child, errs),
                other => errs.push((
                    SchemaError::UnexpectedElement {
                        element: other.to_string(),
                        parent: "Interconnect".to_string(),
                    },
                    child.pos(),
                )),
            }
        }
    }

    fn validate_descriptor(&self, e: Element<'_, '_>, errs: &mut Vec<(SchemaError, Pos)>) {
        for child in e.elements() {
            match child.local_name() {
                "Property" => self.validate_property(child, errs),
                other => errs.push((
                    SchemaError::UnexpectedElement {
                        element: other.to_string(),
                        parent: e.local_name().to_string(),
                    },
                    child.pos(),
                )),
            }
        }
    }

    fn validate_property(&self, e: Element<'_, '_>, errs: &mut Vec<(SchemaError, Pos)>) {
        // xsi:type → subschema reference check.
        if let Some(t) = e.attribute("xsi:type") {
            match t.split_once(':') {
                Some((prefix, type_name)) => match self.subschema(prefix) {
                    None => errs.push((SchemaError::UnknownSubschema(t.to_string()), e.pos())),
                    Some(sub) => match sub.property_type(type_name) {
                        None => errs.push((SchemaError::UnknownSubschema(t.to_string()), e.pos())),
                        Some(_) => {
                            if let Some(name_el) = e.first_named("name") {
                                let prop_name = name_el.text_content();
                                if !sub.type_accepts(type_name, &prop_name) {
                                    errs.push((
                                        SchemaError::UnknownSubschemaProperty {
                                            subschema: prefix.to_string(),
                                            property: prop_name.into_owned(),
                                        },
                                        name_el.pos(),
                                    ));
                                }
                            }
                        }
                    },
                },
                None => errs.push((SchemaError::UnknownSubschema(t.to_string()), e.pos())),
            }
        }
        // `fixed` must be boolean when present.
        if let Some(fixed) = e.attribute("fixed") {
            if !matches!(fixed, "true" | "false") {
                errs.push((
                    SchemaError::BadAttributeValue {
                        element: "Property".into(),
                        attribute: "fixed".into(),
                        value: fixed.to_string(),
                    },
                    e.pos(),
                ));
            }
        }
        // Children must be name/value (any prefix).
        for child in e.elements() {
            match child.local_name() {
                "name" | "value" => {}
                other => errs.push((
                    SchemaError::UnexpectedElement {
                        element: other.to_string(),
                        parent: "Property".to_string(),
                    },
                    child.pos(),
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn validate(src: &str) -> Vec<SchemaError> {
        let doc = parse_document(src).unwrap();
        SchemaRegistry::with_builtins().validate(&doc)
    }

    #[test]
    fn listing1_validates() {
        let errs = validate(
            r#"<Master id="0" quantity="1">
                 <PUDescriptor>
                   <Property fixed="true"><name>ARCHITECTURE</name><value>x86</value></Property>
                 </PUDescriptor>
                 <Worker quantity="1" id="1">
                   <PUDescriptor>
                     <Property fixed="true"><name>ARCHITECTURE</name><value>gpu</value></Property>
                   </PUDescriptor>
                 </Worker>
                 <Interconnect type="rDMA" from="0" to="1" scheme=""/>
               </Master>"#,
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn listing2_ocl_properties_validate() {
        let errs = validate(
            r#"<Master id="0"><Worker id="1"><PUDescriptor>
                 <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
                   <ocl:name>DEVICE_NAME</ocl:name><ocl:value>GeForce GTX 480</ocl:value>
                 </Property>
                 <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
                   <ocl:name>GLOBAL_MEM_SIZE</ocl:name><ocl:value unit="kB">1572864</ocl:value>
                 </Property>
               </PUDescriptor></Worker></Master>"#,
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn unknown_subschema_rejected() {
        let errs = validate(
            r#"<Master id="0"><PUDescriptor>
                 <Property xsi:type="zzz:unknownType"><name>A</name><value>1</value></Property>
               </PUDescriptor></Master>"#,
        );
        assert!(matches!(errs[0], SchemaError::UnknownSubschema(_)));
    }

    #[test]
    fn unknown_ocl_property_rejected() {
        let errs = validate(
            r#"<Master id="0"><PUDescriptor>
                 <Property xsi:type="ocl:oclDevicePropertyType">
                   <ocl:name>NOT_A_REAL_CL_PROPERTY</ocl:name><ocl:value>1</ocl:value>
                 </Property>
               </PUDescriptor></Master>"#,
        );
        assert!(matches!(
            errs[0],
            SchemaError::UnknownSubschemaProperty { .. }
        ));
    }

    #[test]
    fn cuda_open_type_accepts_anything() {
        let errs = validate(
            r#"<Master id="0"><PUDescriptor>
                 <Property xsi:type="cuda:cudaDevicePropertyType">
                   <cuda:name>WARP_SIZE</cuda:name><cuda:value>32</cuda:value>
                 </Property>
               </PUDescriptor></Master>"#,
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn missing_id_rejected() {
        let errs = validate("<Master><Worker id=\"1\"/></Master>");
        assert!(errs.iter().any(|e| matches!(
            e,
            SchemaError::MissingAttribute {
                attribute: "id",
                ..
            }
        )));
    }

    #[test]
    fn missing_interconnect_endpoints_rejected() {
        let errs = validate("<Master id=\"0\"><Interconnect type=\"x\"/></Master>");
        assert_eq!(
            errs.iter()
                .filter(|e| matches!(e, SchemaError::MissingAttribute { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn unexpected_elements_rejected() {
        let errs = validate("<Master id=\"0\"><Device id=\"1\"/></Master>");
        assert!(matches!(errs[0], SchemaError::UnexpectedElement { .. }));
        let errs = validate("<NotAPlatform/>");
        assert!(matches!(errs[0], SchemaError::UnexpectedElement { .. }));
    }

    #[test]
    fn master_not_allowed_under_pu() {
        let errs = validate("<Master id=\"0\"><Master id=\"1\"/></Master>");
        assert!(errs.iter().any(
            |e| matches!(e, SchemaError::UnexpectedElement { element, .. } if element == "Master")
        ));
    }

    #[test]
    fn platform_wrapper_with_version() {
        let errs =
            validate(r#"<Platform name="p" schemaVersion="1.0"><Master id="0"/></Platform>"#);
        assert!(errs.is_empty(), "{errs:?}");
        let errs =
            validate(r#"<Platform name="p" schemaVersion="9.9"><Master id="0"/></Platform>"#);
        assert!(matches!(errs[0], SchemaError::IncompatibleVersion { .. }));
        let errs = validate(r#"<Platform schemaVersion="abc"><Master id="0"/></Platform>"#);
        assert!(matches!(errs[0], SchemaError::BadAttributeValue { .. }));
    }

    #[test]
    fn bad_quantity_and_fixed_values() {
        let errs = validate(r#"<Master id="0" quantity="-3"/>"#);
        assert!(matches!(errs[0], SchemaError::BadAttributeValue { .. }));
        let errs = validate(
            r#"<Master id="0"><PUDescriptor><Property fixed="maybe"><name>A</name><value>1</value></Property></PUDescriptor></Master>"#,
        );
        assert!(matches!(errs[0], SchemaError::BadAttributeValue { .. }));
    }

    #[test]
    fn registry_registration_and_lookup() {
        let mut r = SchemaRegistry::empty();
        assert!(r.subschema("ocl").is_none());
        r.register(ocl_subschema());
        assert!(r.subschema("ocl").is_some());
        // Vendor registers a new subschema for a novel platform.
        r.register(Subschema {
            prefix: "npu".into(),
            uri: "http://vendor.example/npu".into(),
            version: Version::new(0, 1),
            property_types: vec![PropertyTypeDecl::closed("npuPropertyType", &["TOPS"])],
        });
        assert!(r
            .subschema("npu")
            .unwrap()
            .property_type("npuPropertyType")
            .is_some());
    }

    #[test]
    fn schema_inheritance_chain() {
        // A vendor derives an extended OpenCL property type: base names
        // remain accepted, new names are added (paper §III-B: "extension of
        // existing descriptors can be provided by … hardware vendors").
        let mut reg = SchemaRegistry::empty();
        let mut ocl = ocl_subschema();
        ocl.property_types.push(PropertyTypeDecl {
            extends: Some("oclDevicePropertyType".into()),
            ..PropertyTypeDecl::closed("oclFermiPropertyType", &["ECC_ENABLED", "L2_CACHE_SIZE"])
        });
        reg.register(ocl);
        let doc = parse_document(
            r#"<Master id="0"><PUDescriptor>
                 <Property xsi:type="ocl:oclFermiPropertyType">
                   <ocl:name>ECC_ENABLED</ocl:name><ocl:value>1</ocl:value>
                 </Property>
                 <Property xsi:type="ocl:oclFermiPropertyType">
                   <ocl:name>DEVICE_NAME</ocl:name><ocl:value>Tesla</ocl:value>
                 </Property>
               </PUDescriptor></Master>"#,
        )
        .unwrap();
        assert!(reg.validate(&doc).is_empty());
        // A name neither level declares is still rejected.
        let bad = parse_document(
            r#"<Master id="0"><PUDescriptor>
                 <Property xsi:type="ocl:oclFermiPropertyType">
                   <ocl:name>FLUX_CAPACITANCE</ocl:name><ocl:value>1</ocl:value>
                 </Property>
               </PUDescriptor></Master>"#,
        )
        .unwrap();
        assert!(matches!(
            reg.validate(&bad)[0],
            SchemaError::UnknownSubschemaProperty { .. }
        ));
    }

    #[test]
    fn inheritance_cycles_terminate() {
        let sub = Subschema {
            prefix: "x".into(),
            uri: "u".into(),
            version: Version::new(1, 0),
            property_types: vec![
                PropertyTypeDecl {
                    extends: Some("B".into()),
                    ..PropertyTypeDecl::closed("A", &["P"])
                },
                PropertyTypeDecl {
                    extends: Some("A".into()),
                    ..PropertyTypeDecl::closed("B", &["Q"])
                },
            ],
        };
        assert!(sub.type_accepts("A", "P"));
        assert!(sub.type_accepts("A", "Q")); // via B
        assert!(!sub.type_accepts("A", "Z")); // cycle terminates
        assert!(!sub.type_accepts("missing", "P"));
    }

    #[test]
    fn validate_at_reports_positions() {
        let doc = parse_document(
            "<Master id=\"0\">\n  <Worker id=\"1\">\n    <Gadget/>\n  </Worker>\n</Master>",
        )
        .unwrap();
        let errs = SchemaRegistry::with_builtins().validate_at(&doc);
        assert_eq!(errs.len(), 1);
        let (err, pos) = &errs[0];
        assert!(
            matches!(err, SchemaError::UnexpectedElement { element, .. } if element == "Gadget")
        );
        assert_eq!(pos.line, 3);
        assert!(pos.col > 1);
        // The span-less API sees the same errors.
        assert_eq!(SchemaRegistry::with_builtins().validate(&doc).len(), 1);
    }

    #[test]
    fn logic_group_requires_name() {
        let errs = validate(r#"<Master id="0"><LogicGroupAttribute/></Master>"#);
        assert!(matches!(
            errs[0],
            SchemaError::MissingAttribute {
                attribute: "name",
                ..
            }
        ));
    }
}
