//! DOM → [`Platform`] decoding.
//!
//! Accepts both document shapes used in the paper:
//! * a bare `<Master …>` root (Listing 1), and
//! * a `<Platform name=… schemaVersion=…>` wrapper holding several Masters
//!   and platform-level interconnects.
//!
//! Interconnect elements may appear inside any PU scope (as in Listing 1) or
//! at the Platform level; they are hoisted into the platform's global edge
//! list, which is what the model stores.
//!
//! Every string goes through [`PlatformBuilder::intern`]: the decoded
//! platform holds one allocation per distinct id, name and value, and an
//! interconnect endpoint shares the text of the PU id it names.

use crate::dom::{Document, Element};
use crate::error::{SchemaError, XmlError};
use crate::schema::SchemaRegistry;
use pdl_core::prelude::*;

/// Decodes a validated document into a platform.
///
/// Validation (schema + model) is always performed; errors are returned via
/// [`XmlError`].
pub fn decode_document(doc: &Document, registry: &SchemaRegistry) -> Result<Platform, XmlError> {
    let mut schema_errors = registry.validate(doc);
    if !schema_errors.is_empty() {
        return Err(XmlError::Schema(schema_errors.remove(0)));
    }
    decode_unvalidated(doc)
}

/// Decodes without schema validation (the model's own structural validation
/// still runs). Used by tools that already validated, and by tests.
pub fn decode_unvalidated(doc: &Document) -> Result<Platform, XmlError> {
    let builder = decode_to_builder(doc, false)?;
    Ok(builder.build()?)
}

/// Decodes without schema *or* model validation, tolerating malformed
/// attribute values and structurally invalid trees as far as the arena can
/// represent them (un-attachable children — e.g. PUs nested under a Worker —
/// are skipped). This is the entry point for analysis tools like
/// `pdl-analyze` that want to report *all* problems in a description rather
/// than stop at the first; pair it with
/// [`crate::schema::SchemaRegistry::validate_at`] for the skipped findings.
pub fn decode_unchecked(doc: &Document) -> Result<Platform, XmlError> {
    let builder = decode_to_builder(doc, true)?;
    Ok(builder.build_unchecked())
}

fn decode_to_builder(doc: &Document, lenient: bool) -> Result<PlatformBuilder, XmlError> {
    let root = doc.root();
    let mut builder;
    match root.local_name() {
        "Platform" => {
            let name = root.attribute("name").unwrap_or("unnamed").to_string();
            builder = Platform::builder(name);
            if let Some(v) = root.attribute("schemaVersion") {
                match v.parse::<Version>() {
                    Ok(version) => {
                        builder.schema_version(version);
                    }
                    Err(_) if lenient => {}
                    Err(_) => {
                        return Err(XmlError::Schema(SchemaError::BadAttributeValue {
                            element: "Platform".into(),
                            attribute: "schemaVersion".into(),
                            value: v.to_string(),
                        }))
                    }
                }
            }
            for child in root.elements() {
                match child.local_name() {
                    "Master" => decode_pu_tree(&mut builder, child, None, lenient)?,
                    "Interconnect" => {
                        let ic = decode_interconnect(&mut builder, child, lenient)?;
                        builder.interconnect(ic);
                    }
                    _ if lenient => {} // reported by schema validation
                    _ => unreachable!("rejected by schema validation"),
                }
            }
        }
        "Master" => {
            builder = Platform::builder(root.attribute("id").unwrap_or("unnamed").to_string());
            decode_pu_tree(&mut builder, root, None, lenient)?;
        }
        // In lenient mode any PU class may appear as the root; the model's
        // structural rules (Uncontrolled, HybridNotControlled) then report it.
        "Worker" | "Hybrid" if lenient => {
            builder = Platform::builder(root.attribute("id").unwrap_or("unnamed").to_string());
            decode_pu_tree(&mut builder, root, None, lenient)?;
        }
        other => {
            return Err(XmlError::Schema(SchemaError::UnexpectedElement {
                element: other.to_string(),
                parent: String::new(),
            }))
        }
    }
    Ok(builder)
}

fn decode_pu_tree(
    builder: &mut PlatformBuilder,
    e: Element<'_, '_>,
    parent: Option<PuHandle>,
    lenient: bool,
) -> Result<(), XmlError> {
    let class = PuClass::from_element_name(e.local_name()).expect("caller checked element name");
    let id = builder.intern(e.attribute("id").unwrap_or_default());

    let handle = match parent {
        None => builder.root(id, class),
        Some(p) => match builder.child(p, id, class) {
            Ok(h) => h,
            // A parent that cannot control children (a Worker): the arena
            // cannot hold this subtree. Analysis tools detect it on the DOM.
            Err(_) if lenient => return Ok(()),
            Err(e) => return Err(e.into()),
        },
    };

    if let Some(q) = e.attribute("quantity") {
        match q.parse::<u32>() {
            Ok(quantity) => {
                builder.quantity(handle, quantity);
            }
            Err(_) if lenient => {}
            Err(_) => {
                return Err(XmlError::Schema(SchemaError::BadAttributeValue {
                    element: e.local_name().to_string(),
                    attribute: "quantity".into(),
                    value: q.to_string(),
                }))
            }
        }
    }

    for child in e.elements() {
        match child.local_name() {
            "PUDescriptor" => {
                let d = decode_descriptor(builder, child, lenient)?;
                builder.descriptor(handle, d);
            }
            "MemoryRegion" => {
                let id = builder.intern(child.attribute("id").unwrap_or_default());
                let mut mr = MemoryRegion::new(id);
                if let Some(d) = child.first_named("MRDescriptor") {
                    mr.descriptor = decode_descriptor(builder, d, lenient)?;
                }
                builder.memory(handle, mr);
            }
            "Interconnect" => {
                let ic = decode_interconnect(builder, child, lenient)?;
                builder.interconnect(ic);
            }
            "LogicGroupAttribute" => {
                let name = builder.intern(child.attribute("name").unwrap_or_default());
                builder.group(handle, name);
            }
            "Worker" | "Hybrid" => decode_pu_tree(builder, child, Some(handle), lenient)?,
            _ => {}
        }
    }
    Ok(())
}

fn decode_interconnect(
    builder: &mut PlatformBuilder,
    e: Element<'_, '_>,
    lenient: bool,
) -> Result<Interconnect, XmlError> {
    let mut attribute = |name: &str| builder.intern(e.attribute(name).unwrap_or_default());
    let mut ic = Interconnect::new(attribute("type"), attribute("from"), attribute("to"));
    ic.scheme = attribute("scheme");
    if e.attribute("direction") == Some("uni") {
        ic.directionality = Directionality::Unidirectional;
    }
    if let Some(d) = e.first_named("ICDescriptor") {
        ic.descriptor = decode_descriptor(builder, d, lenient)?;
    }
    Ok(ic)
}

fn decode_descriptor(
    builder: &mut PlatformBuilder,
    e: Element<'_, '_>,
    lenient: bool,
) -> Result<Descriptor, XmlError> {
    let mut d = Descriptor::with_capacity(e.elements_named("Property").count());
    for p in e.elements_named("Property") {
        d.push(decode_property(builder, p, lenient)?);
    }
    Ok(d)
}

fn decode_property(
    builder: &mut PlatformBuilder,
    e: Element<'_, '_>,
    lenient: bool,
) -> Result<Property, XmlError> {
    // `fixed` defaults to false when absent (the attribute is optional in
    // the paper's schema; both listings spell it explicitly).
    let fixed = match e.attribute("fixed") {
        None | Some("false") => false,
        Some("true") => true,
        Some(_) if lenient => false,
        Some(other) => {
            return Err(XmlError::Schema(SchemaError::BadAttributeValue {
                element: "Property".into(),
                attribute: "fixed".into(),
                value: other.to_string(),
            }))
        }
    };

    let subschema = match e.attribute("xsi:type") {
        Some(t) => match SubschemaRef::parse_with(t, |s| builder.intern(s)) {
            Some(r) => Some(r),
            None if lenient => None,
            None => {
                return Err(XmlError::Schema(SchemaError::UnknownSubschema(
                    t.to_string(),
                )))
            }
        },
        None => None,
    };

    let name = match e.first_named("name") {
        Some(n) => builder.intern(&n.text_content()),
        None => Text::default(),
    };

    let (text, unit) = match e.first_named("value") {
        Some(v) => {
            let unit = match v.attribute("unit") {
                Some(u) => match u.parse::<Unit>() {
                    Ok(unit) => Some(unit),
                    Err(_) if lenient => None,
                    Err(_) => {
                        return Err(XmlError::Schema(SchemaError::BadAttributeValue {
                            element: "value".into(),
                            attribute: "unit".into(),
                            value: u.to_string(),
                        }))
                    }
                },
                None => None,
            };
            (builder.intern(&v.text_content()), unit)
        }
        None => (Text::default(), None),
    };

    Ok(Property {
        name,
        value: PropertyValue { text, unit },
        fixed,
        subschema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn decode(src: &str) -> Platform {
        let doc = parse_document(src).unwrap();
        decode_document(&doc, &SchemaRegistry::with_builtins()).unwrap()
    }

    /// Listing 1 of the paper, verbatim structure.
    const LISTING1: &str = r#"<?xml version="1.0"?>
<!-- XML HEADER -->
<Master id="0" quantity="1">
  <PUDescriptor>
    <Property fixed="true">
      <name>ARCHITECTURE</name>
      <value>x86</value>
    </Property>
    <!-- Additional properties -->
  </PUDescriptor>
  <Worker quantity="1" id="1">
    <PUDescriptor>
      <Property fixed="true">
        <name>ARCHITECTURE</name>
        <value>gpu</value>
      </Property>
    </PUDescriptor>
  </Worker>
  <Interconnect type="rDMA" from="0" to="1" scheme=""/>
</Master>"#;

    #[test]
    fn listing1_decodes() {
        let p = decode(LISTING1);
        assert_eq!(p.len(), 2);
        let (_, m) = p.pu_by_id("0").unwrap();
        assert_eq!(m.class, PuClass::Master);
        assert_eq!(m.architecture(), Some("x86"));
        assert!(m.descriptor.get("ARCHITECTURE").unwrap().fixed);
        let (_, w) = p.pu_by_id("1").unwrap();
        assert_eq!(w.class, PuClass::Worker);
        assert_eq!(w.architecture(), Some("gpu"));
        assert_eq!(p.interconnects().len(), 1);
        assert_eq!(p.interconnects()[0].ic_type, "rDMA");
        // One allocation per distinct text: the endpoint is the PU's id,
        // and both PUs' property names are one string.
        assert!(p.interconnects()[0].from.text().ptr_eq(m.id.text()));
        let name = |pu: &ProcessingUnit| pu.descriptor.iter().next().unwrap().name.clone();
        assert!(name(m).ptr_eq(&name(w)));
    }

    #[test]
    fn listing2_typed_properties_decode() {
        let p = decode(
            r#"<Master id="0"><Worker id="1"><PUDescriptor>
                 <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
                   <ocl:name>DEVICE_NAME</ocl:name><ocl:value>GeForce GTX 480</ocl:value>
                 </Property>
                 <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
                   <ocl:name>MAX_COMPUTE_UNITS</ocl:name><ocl:value>15</ocl:value>
                 </Property>
                 <Property fixed="false" xsi:type="ocl:oclDevicePropertyType">
                   <ocl:name>GLOBAL_MEM_SIZE</ocl:name><ocl:value unit="kB">1572864</ocl:value>
                 </Property>
               </PUDescriptor></Worker></Master>"#,
        );
        let (_, w) = p.pu_by_id("1").unwrap();
        assert_eq!(w.descriptor.value("DEVICE_NAME"), Some("GeForce GTX 480"));
        assert_eq!(w.descriptor.value_i64("MAX_COMPUTE_UNITS"), Some(15));
        let gm = w.descriptor.get("GLOBAL_MEM_SIZE").unwrap();
        assert_eq!(gm.value.unit, Some(Unit::KiloByte));
        assert_eq!(gm.value.in_base_units(), Some(1_572_864_000.0));
        assert_eq!(
            gm.subschema.as_ref().unwrap().qualified(),
            "ocl:oclDevicePropertyType"
        );
        assert!(!gm.fixed);
    }

    #[test]
    fn platform_wrapper_decodes() {
        let p = decode(
            r#"<Platform name="dual-host" schemaVersion="1.0">
                 <Master id="a"><Worker id="aw"/></Master>
                 <Master id="b"><Worker id="bw"/></Master>
                 <Interconnect type="QPI" from="a" to="b"/>
               </Platform>"#,
        );
        assert_eq!(p.name, "dual-host");
        assert_eq!(p.roots().len(), 2);
        assert_eq!(p.interconnects().len(), 1);
    }

    #[test]
    fn memory_regions_and_groups_decode() {
        let p = decode(
            r#"<Master id="0">
                 <MemoryRegion id="ram">
                   <MRDescriptor>
                     <Property fixed="true"><name>SIZE</name><value unit="GiB">32</value></Property>
                   </MRDescriptor>
                 </MemoryRegion>
                 <LogicGroupAttribute name="hosts"/>
                 <Worker id="1">
                   <LogicGroupAttribute name="gpus"/>
                   <LogicGroupAttribute name="fast"/>
                 </Worker>
               </Master>"#,
        );
        let (_, m) = p.pu_by_id("0").unwrap();
        assert_eq!(m.memory_regions.len(), 1);
        assert_eq!(
            m.memory_regions[0].size_bytes(),
            Some(32.0 * 1024.0 * 1024.0 * 1024.0)
        );
        assert!(m.in_group("hosts"));
        let (_, w) = p.pu_by_id("1").unwrap();
        assert!(w.in_group("gpus") && w.in_group("fast"));
    }

    #[test]
    fn hierarchy_with_hybrids_decodes() {
        let p = decode(
            r#"<Master id="fe">
                 <Hybrid id="node0">
                   <Worker id="gpu0"/>
                   <Worker id="gpu1"/>
                 </Hybrid>
               </Master>"#,
        );
        assert_eq!(p.hybrids().count(), 1);
        assert_eq!(p.workers().count(), 2);
        let g0 = p.index_of("gpu0").unwrap();
        assert_eq!(p.depth(g0), 2);
    }

    #[test]
    fn unidirectional_interconnect_decodes() {
        let p = decode(
            r#"<Master id="0"><Worker id="1"/>
               <Interconnect type="dma" from="0" to="1" direction="uni"/></Master>"#,
        );
        assert_eq!(
            p.interconnects()[0].directionality,
            Directionality::Unidirectional
        );
    }

    #[test]
    fn bad_unit_is_schema_error() {
        let doc = parse_document(
            r#"<Master id="0"><PUDescriptor>
                 <Property fixed="true"><name>S</name><value unit="parsec">1</value></Property>
               </PUDescriptor></Master>"#,
        )
        .unwrap();
        let err = decode_document(&doc, &SchemaRegistry::with_builtins()).unwrap_err();
        assert!(matches!(
            err,
            XmlError::Schema(SchemaError::BadAttributeValue { .. })
        ));
    }

    #[test]
    fn model_violations_surface_as_model_errors() {
        // Schema-valid XML (Worker under Master is fine) but duplicate ids.
        let doc = parse_document(r#"<Master id="0"><Worker id="0"/></Master>"#).unwrap();
        let err = decode_document(&doc, &SchemaRegistry::with_builtins()).unwrap_err();
        assert!(matches!(err, XmlError::Model(_)));
    }

    #[test]
    fn schema_invalid_document_rejected() {
        let doc = parse_document("<Garbage/>").unwrap();
        let err = decode_document(&doc, &SchemaRegistry::with_builtins()).unwrap_err();
        assert!(matches!(err, XmlError::Schema(_)));
    }

    #[test]
    fn ic_descriptor_decodes() {
        let p = decode(
            r#"<Master id="0"><Worker id="1"/>
               <Interconnect type="PCIe" from="0" to="1">
                 <ICDescriptor>
                   <Property fixed="true"><name>BANDWIDTH</name><value unit="GB/s">8</value></Property>
                 </ICDescriptor>
               </Interconnect></Master>"#,
        );
        assert_eq!(p.interconnects()[0].bandwidth_bps(), Some(8e9));
    }

    #[test]
    fn decode_unchecked_tolerates_invalid_platforms() {
        // Duplicate ids + dangling interconnect + bad quantity: strict
        // decoding fails, lenient decoding yields an analyzable platform.
        let doc = parse_document(
            r#"<Master id="0" quantity="many">
                 <Worker id="0"/>
                 <Interconnect type="PCIe" from="0" to="404"/>
               </Master>"#,
        )
        .unwrap();
        assert!(decode_unvalidated(&doc).is_err());
        let p = decode_unchecked(&doc).unwrap();
        assert_eq!(p.len(), 2);
        assert!(!p.issues().is_empty());
    }

    #[test]
    fn decode_unchecked_accepts_non_master_roots() {
        let doc = parse_document(r#"<Hybrid id="h"><Worker id="w"/></Hybrid>"#).unwrap();
        let p = decode_unchecked(&doc).unwrap();
        assert_eq!(p.len(), 2);
        use pdl_core::error::ValidationIssue;
        assert!(p
            .issues()
            .iter()
            .any(|i| matches!(i, ValidationIssue::HybridNotControlled(_))));
    }

    #[test]
    fn property_without_fixed_defaults_unfixed() {
        let p = decode(
            r#"<Master id="0"><PUDescriptor>
                 <Property><name>HINT</name><value>x</value></Property>
               </PUDescriptor></Master>"#,
        );
        let (_, m) = p.pu_by_id("0").unwrap();
        assert!(!m.descriptor.get("HINT").unwrap().fixed);
    }
}
